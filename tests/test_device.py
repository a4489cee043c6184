"""Device model: virtual gates, exchange laws, noise, pulse simulation."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from aeonsim import device as dev
from aeonsim import hilbert as hb
from aeonsim import rotations as rot
from aeonsim.errors import ConfigError


def test_compensation_first_column_frozen():
    d = dev.default_device()
    v = np.zeros(6)
    v[0] = 1.0
    out = d.compensation.virtualize(v)
    np.testing.assert_allclose(out, [1.0, -0.19, 0.06, 0.0, 0.0, 0.0], atol=1e-12)


def test_compensation_rejects_barrier_feedback():
    m = np.eye(6)
    m[3, 0] = 0.2  # barriers must not feed back on plungers
    with pytest.raises(ConfigError):
        dev.CompensationMatrix(m)


def test_exchange_law_anchors():
    law = dev.ExchangeLaw(a_hz=1e6, b_per_v=52.983, c=0.0)
    assert law.j_hz(0.0) == pytest.approx(1e6, rel=1e-12)
    assert law.j_hz(0.1) == pytest.approx(199.99652672055223e6, rel=1e-12)
    assert law.v_for(law.j_hz(0.0431)) == pytest.approx(0.0431, abs=1e-12)
    with pytest.raises(ValueError):
        law.v_for(0.0)


def test_detuning_penalty_common_mode_free():
    d = dev.default_device()
    base = dev.detuning_penalty((1e-3, -2e-3, 0.5e-3), d.sensitivities)
    shifted = dev.detuning_penalty((6e-3, 3e-3, 5.5e-3), d.sensitivities)
    for pair in base:
        assert base[pair] == pytest.approx(shifted[pair], rel=1e-12)
    neutral = dev.detuning_penalty((2e-3, 2e-3, 2e-3), d.sensitivities)
    for pair in neutral:
        assert neutral[pair] == pytest.approx(1.0, rel=1e-12)


def test_rng_streams_are_independent_and_stable():
    a1 = dev.rng_stream(7, 1, 2).standard_normal(4)
    a2 = dev.rng_stream(7, 1, 2).standard_normal(4)
    b = dev.rng_stream(7, 1, 3).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert np.abs(a1 - b).max() > 1e-12


STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**130 + 5)
STREAM_PATHS = ((0,), (2**32 - 1,), (5, 0), (0, 2**32 - 1, 7), (3, 1, 4, 1), (9, 0, 2**32 - 1, 6, 1))


def _oracle(seed, path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_rng_stream_matches_seed_sequence_oracle(seed):
    for path in ((),) + STREAM_PATHS:
        got, want = dev.rng_stream(seed, *path), _oracle(seed, path)
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.random(5), want.random(5))
        np.testing.assert_array_equal(got.standard_normal(3), want.standard_normal(3))
        assert got.integers(0, 2**63) == want.integers(0, 2**63)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_rng_streams_match_seed_sequence_oracle_in_c_order(seed):
    for prefix, shape in (((), (4,)), ((2**32 - 1,), (2, 3)), ((0, 7, 1), (3,)), ((1, 2, 3, 4), ())):
        got = []
        for rng in dev.rng_streams(seed, *prefix, shape=shape):
            got.append((rng.bit_generator.state, rng.random(3).tolist()))
        want = []
        for index in np.ndindex(shape):
            oracle = _oracle(seed, prefix + index)
            want.append((oracle.bit_generator.state, oracle.random(3).tolist()))
        assert got == want


def test_rng_streams_reseed_one_generator_per_call():
    first, second = list(dev.rng_streams(4, 1, shape=3)), list(dev.rng_streams(4, 1, shape=2))
    assert first[0] is first[1] is first[2]
    assert first[0] is not second[0]
    assert dev.rng_stream(4, 1) is not dev.rng_stream(4, 1)
    assert list(dev.rng_streams(4, 1, shape=0)) == []


@pytest.mark.parametrize("seed,path", [
    (-1, (0,)),
    (0, (-1,)),
    (0, (2**32,)),
    (0, (1, 2**40)),
])
def test_rng_streams_reject_negative_seeds_and_wide_path_entries(seed, path):
    with pytest.raises(ValueError):
        dev.rng_stream(seed, *path)
    with pytest.raises(ValueError):
        dev.rng_streams(seed, *path, shape=2)


def test_noise_sampling_shapes():
    cfg = dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=2e4, seed=0)
    draw = dev.sample_noise(cfg, dev.rng_stream(0, 1))
    assert np.asarray(draw.voltage_offsets_v).shape == (6,)
    assert np.asarray(draw.gradients_hz).shape == (3,)
    silent = dev.sample_noise(dev.NoiseConfig(), dev.rng_stream(0, 2))
    assert np.abs(np.asarray(silent.voltage_offsets_v)).max() == 0.0


def test_noise_sigmas_are_computed_once_and_draws_keep_their_values():
    sig_v = (1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3)
    for cfg in (dev.NoiseConfig(1e-3, 2e4), dev.NoiseConfig(sig_v, (1e4, 2e4, 3e4))):
        assert cfg.sigma_v is cfg.sigma_v and not cfg.sigma_v.flags.writeable
        draw = dev.sample_noise(cfg, dev.rng_stream(3, 1))
        rng = dev.rng_stream(3, 1)
        want_v = rng.normal(0.0, 1.0, size=6) * np.broadcast_to(cfg.voltage_sigma_v, (6,))
        want_b = rng.normal(0.0, 1.0, size=3) * np.broadcast_to(cfg.gradient_sigma_hz, (3,))
        np.testing.assert_array_equal(draw.voltage_offsets_v, want_v)
        np.testing.assert_array_equal(draw.gradients_hz, want_b)


def test_exchange_from_voltages_minus_inf_is_exactly_off():
    d = dev.default_device()
    j = d.exchange_from_voltages(np.array([0.07, -np.inf, 0.07]))
    assert j.j13 == 0.0
    assert j.j12 > 0 and j.j23 > 0


def test_cross_talk_is_opt_in():
    d = dev.default_device()
    v = np.array([0.07, 0.05, 0.06])
    j_plain = d.exchange_from_voltages(v)
    j_cross = d.exchange_from_voltages(v, apply_cross=True)
    assert j_plain.j12 != j_cross.j12
    # a pulse simulation defaults to no cross-talk
    off = d.exchange_from_voltages(np.array([0.07, -np.inf, 0.07]), apply_cross=True)
    assert off.j13 == 0.0


def test_voltages_for_exchange_round_trip():
    d = dev.default_device()
    j = hb.ExchangeVector(j12=35e6, j23=18e6, j13=0.0)
    v = d.voltages_for_exchange(j)
    assert v[1] == -np.inf
    back = d.exchange_from_voltages(v)
    assert back.j12 == pytest.approx(35e6, rel=1e-12)
    assert back.j23 == pytest.approx(18e6, rel=1e-12)
    assert back.j13 == 0.0


def test_simulate_pulse_matches_direct_propagator():
    d = dev.default_device()
    j = hb.ExchangeVector(j12=42e6, j23=13e6, j13=7e6)
    pulse = dev.PulseSpec(v_x=tuple(d.voltages_for_exchange(j)), duration_s=10e-9)
    rho = hb.initialize_singlet()
    out = d.simulate_pulse(rho, pulse)
    u = expm(-1j * hb.build_hamiltonian(j) * 10e-9)
    np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-9)


def test_ramped_pulse_uses_piecewise_segments():
    d = dev.default_device()
    pulse = dev.PulseSpec(
        v_x=(0.06, -np.inf, 0.05), duration_s=10e-9, ramp_s=2e-9
    )
    segs = d._segments(pulse, dev.NoiseDraw.none(), False)
    assert len(segs) == 33  # 16 up, plateau, 16 down
    total = sum(dt for _, dt in segs)
    assert total == pytest.approx(10e-9 + 2 * 2e-9, rel=1e-12)


def test_pulse_train_plays_in_order():
    # a train must play its pulses in time order; the two pulses here do
    # not commute, so any swap changes the result
    d = dev.default_device()
    j_a = hb.ExchangeVector(60e6, 0.0, 0.0)
    j_b = hb.ExchangeVector(0.0, 55e6, 10e6)
    pulse_a = dev.PulseSpec(v_x=tuple(d.voltages_for_exchange(j_a)), duration_s=7e-9)
    pulse_b = dev.PulseSpec(v_x=tuple(d.voltages_for_exchange(j_b)), duration_s=9e-9)
    rho = hb.initialize_singlet()
    out = d.simulate_pulse(rho, [pulse_a, pulse_b])
    u = expm(-1j * hb.build_hamiltonian(j_b) * 9e-9) @ expm(-1j * hb.build_hamiltonian(j_a) * 7e-9)
    np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-9)


def _oracle_couplings(d, v, plungers):
    """Exchange law, cross-talk and detuning penalty, one draw at a time."""
    off = np.isinf(v)
    v = np.where(off, v, d.cross @ np.where(off, 0.0, v))
    e1, e2, e3 = plungers
    eps_t, eps_d = 0.5 * (e2 - e1), e3 - 0.5 * (e1 + e2)
    j = {}
    for i, pair in enumerate(dev.PAIR_ORDER):
        law, s = d.laws[pair], d.sensitivities[pair]
        pen = math.exp(s.alpha_tilt * eps_t**2 + s.alpha_dimple * eps_d**2)
        j[pair] = law.a_hz * math.exp(law.b_per_v * v[i] + law.c) * pen
    return hb.ExchangeVector(j["12"], j["23"], j["13"])


def _oracle_segments(d, pulse, dv):
    """(barrier voltages, duration) of each segment of one pulse, in order."""
    target = np.asarray(pulse.v_x) + dv[3:]
    segs = [(target, pulse.duration_s)]
    if pulse.ramp_s > 0.0:
        idle = d.idle_v + dv[3:]
        dt = pulse.ramp_s / 16
        up = [(idle + (k + 0.5) / 16 * (target - idle), dt) for k in range(16)]
        down = [(idle + (1 - (k + 0.5) / 16) * (target - idle), dt) for k in range(16)]
        segs = up + segs + down
    return segs


def test_stacked_draws_match_per_draw_oracle():
    d = dataclasses.replace(
        dev.default_device(),
        fields=hb.FieldConfig(2e7, (1e5, -2e5, 3e4)),
        noise=dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=1e5),
    )
    ramped = dev.PulseSpec(v_x=(0.072, -np.inf, 0.065), duration_s=8e-9,
                           plunger_offsets_v=(2e-3, -1e-3, 5e-4), ramp_s=2e-9)
    idle = dev.PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=20e-9)
    plain = dev.PulseSpec(v_x=(-np.inf, 0.07, 0.068), duration_s=10e-9,
                          plunger_offsets_v=(0.0, 1e-3, 0.0))
    train = [ramped, idle, plain, ramped, plain]
    draws = [dev.sample_noise(d.noise, dev.rng_stream(3, shot)) for shot in range(4)]
    rho0 = hb.initialize_singlet()
    out = d.simulate_pulse(rho0, train, dev.NoiseDraw.stack(draws), apply_cross=True)
    assert out.shape == (4, 8, 8)
    for draw, got in zip(draws, out):
        dv = draw.voltage_offsets_v
        fields = hb.FieldConfig(2e7, tuple(np.asarray(d.fields.gradients_hz) + draw.gradients_hz))
        rho = rho0
        for pulse in train:
            plungers = np.asarray(pulse.plunger_offsets_v) + dv[:3]
            for v, dt in _oracle_segments(d, pulse, dv):
                h = hb.build_hamiltonian(_oracle_couplings(d, v, plungers), fields)
                u = expm(-1j * h * dt)
                rho = u @ rho @ u.conj().T
        np.testing.assert_allclose(got, rho, rtol=0, atol=1e-12)
        # a single draw through the same train gives the same state
        one = d.simulate_pulse(rho0, train, draw, apply_cross=True)
        np.testing.assert_allclose(one, got, rtol=0, atol=1e-14)


def test_empty_train_returns_rho_unchanged():
    d = dev.default_device()
    rho = hb.initialize_singlet()
    draws = dev.NoiseDraw(np.full((3, 6), 1e-3), np.full((3, 3), 1e5))
    for draw in (None, draws):
        np.testing.assert_array_equal(d.simulate_pulse(rho, [], draw), rho)


def test_gradient_noise_causes_leakage():
    d = dev.default_device()
    draw = dev.NoiseDraw(
        voltage_offsets_v=(0.0,) * 6, gradients_hz=(2e6, -1e6, 0.5e6)
    )
    pulse = dev.PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=400e-9)
    rho = d.simulate_pulse(hb.initialize_singlet(), pulse, draw=draw)
    assert hb.leakage_population(rho) > 1e-4


def test_device_config_round_trip(tmp_path):
    cfg = {
        "exchange_law": {
            "12": {"A_hz": 2e6, "B_per_v": 50.0, "C": 0.1},
        },
        "cross_matrix": [[1, -0.08, -0.08], [-0.24, 1, -0.18], [-0.15, -0.19, 1]],
        "noise": {"voltage_sigma_v": 1e-4, "gradient_sigma_hz": 3e4, "seed": 9},
        "pulse_s": 8e-9,
        "fields": {"f_uniform_hz": 1e9, "gradients_hz": [100.0, 0.0, -50.0]},
    }
    path = tmp_path / "device.json"
    path.write_text(json.dumps(cfg))
    d = dev.load_device(path)
    assert d.laws["12"].a_hz == 2e6
    assert d.laws["13"].a_hz == 1e6  # untouched default
    assert d.pulse_s == 8e-9
    assert d.noise.seed == 9
    assert d.fields.f_uniform_hz == 1e9


def test_device_config_rejects_unknown_pair(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"exchange_law": {"14": {"A_hz": 1, "B_per_v": 1}}}))
    with pytest.raises(ConfigError):
        dev.load_device(path)


def test_device_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        dev.load_device(path)


def test_readme_documents_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Device configuration", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^- `(\w+)`:", section, re.M)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(dev.CONFIG_KEYS)


def test_fingerpinch_map_shape_and_symmetry():
    d = dev.default_device()
    v = np.linspace(0.05, 0.08, 7)
    p0 = dev.fingerpinch_map(d, ("12", "23"), v, v, apply_cross=False)
    assert p0.shape == (7, 7)
    # equal couplings rotate about -z and preserve the initial state
    np.testing.assert_allclose(np.diag(p0), 1.0, atol=1e-9)
    # map is symmetric for the symmetric pair sweep without cross-talk
    np.testing.assert_allclose(p0, p0.T, atol=1e-9)


def test_fingerpinch_hadamard_changes_contrast():
    d = dev.default_device()
    v = np.linspace(0.05, 0.08, 5)
    plain = dev.fingerpinch_map(d, ("12", "23"), v, v, apply_cross=False)
    had = dev.fingerpinch_map(d, ("12", "23"), v, v, hadamard=True, apply_cross=False)
    assert np.abs(plain - had).max() > 0.05
