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
    for where, keys in dev.SECTION_KEYS.items():
        assert f"`{where.split('.')[0]}`" in section
        assert all(f"`{key}`" in section for key in keys), where


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


# ---------------------------------------------------------------------------
# Batched kernel: every row of a batch, blocked, against one train at a time


def _one_train_oracle(d, rho, train, draw, apply_cross):
    """One train under one draw (or none), unblocked, on the sector route:
    each distinct pulse built once, one sector_propagator call per segment
    duration, and the train folded on the sector vectors of ``rho``.

    Returns the density matrix and p0 after the train.
    """
    state = hb.sector_state(rho)
    if not train:
        return rho, hb.sector_p0(state.vectors)
    draw = dev.NoiseDraw.none() if draw is None else draw
    fields = hb.FieldConfig(
        d.fields.f_uniform_hz, np.asarray(d.fields.gradients_hz, dtype=float) + draw.gradients_hz
    )
    plan = {p: d._segments(p, draw, apply_cross and d.cross is not None) for p in dict.fromkeys(train)}
    by_duration = {}
    for segments in plan.values():
        for j, dt in segments:
            by_duration.setdefault(dt, []).append(j)
    unitaries = {}
    for dt, js in by_duration.items():
        j = hb.ExchangeVector(*(np.stack([getattr(x, f) for x in js]) for f in ("j12", "j23", "j13")))
        unitaries[dt] = zip(*hb.sector_propagator(j, fields, dt))
    pulse_u = {}
    for pulse, segments in plan.items():
        u = ph = None
        for _, dt in segments:
            seg_u, seg_ph = next(unitaries[dt])
            u, ph = (seg_u, seg_ph) if u is None else (seg_u @ u, seg_ph * ph)
        pulse_u[pulse] = u, ph
    psi, phase = state.vectors, None
    for pulse in train:
        u, ph = pulse_u[pulse]
        psi, phase = u @ psi, ph if phase is None else ph * phase
    out = hb.SectorState(psi, phase[:, None] * state.ends, state.coherent)
    return hb.sector_density(out), hb.sector_p0(psi)


def _dense_train(d, rho, train, draw, apply_cross):
    """The dense reference: one train under one draw, every segment's 8x8
    propagator from expm of build_hamiltonian, applied to ``rho``."""
    draw = dev.NoiseDraw.none() if draw is None else draw
    dv = np.asarray(draw.voltage_offsets_v, dtype=float)
    fields = hb.FieldConfig(
        d.fields.f_uniform_hz, np.asarray(d.fields.gradients_hz, dtype=float) + draw.gradients_hz
    )
    for pulse in train:
        for j, dt in d._segments(pulse, dev.NoiseDraw(dv, draw.gradients_hz), apply_cross and d.cross is not None):
            u = expm(-1j * hb.build_hamiltonian(j, fields) * dt)
            rho = u @ rho @ u.conj().T
    return rho


def _noisy_device():
    return dataclasses.replace(
        dev.default_device(),
        fields=hb.FieldConfig(2e7, (1e5, -2e5, 3e4)),
        noise=dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=1e5),
    )


RAMPED = dev.PulseSpec(v_x=(0.072, -np.inf, 0.065), duration_s=8e-9,
                       plunger_offsets_v=(2e-3, -1e-3, 5e-4), ramp_s=2e-9)
IDLE = dev.PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=20e-9)
PLAIN = dev.PulseSpec(v_x=(-np.inf, 0.07, 0.068), duration_s=10e-9,
                      plunger_offsets_v=(0.0, 1e-3, 0.0))
OTHER = dev.PulseSpec(v_x=(0.071, 0.069, -np.inf), duration_s=10e-9)


def _mixed_trains(n_runs):
    """Runs of rows sharing a train: ramped pulses, two segment durations,
    an empty train among them, lengths from 0 to 6."""
    shapes = [[RAMPED, IDLE, PLAIN], [PLAIN, OTHER], [], [OTHER, RAMPED, PLAIN, IDLE, OTHER, PLAIN],
              [IDLE], [PLAIN, PLAIN, OTHER, RAMPED]]
    rows = []
    for k in range(n_runs):
        train = list(shapes[k % len(shapes)])
        rows += [train] * (1 + k % 4)
    return rows


@pytest.mark.parametrize("apply_cross", [False, True])
@pytest.mark.parametrize("with_draws", [False, True])
def test_batched_rows_equal_one_train_at_a_time(apply_cross, with_draws):
    d = _noisy_device()
    rows = _mixed_trains(24)
    rho0 = hb.initialize_singlet()
    draws = [dev.sample_noise(d.noise, dev.rng_stream(5, r)) for r in range(len(rows))]
    batch = dev.NoiseDraw.stack(draws) if with_draws else None
    assert len(dev._blocks(rows)) > 2  # the batch spans several blocks
    out = d.simulate_pulse(rho0, rows, batch, apply_cross)
    p0 = d.simulate_pulse(rho0, rows, batch, apply_cross, readout=hb.measure_p0)
    assert out.shape == (len(rows), 8, 8) and p0.shape == (len(rows),)
    for r, train in enumerate(rows):
        draw = draws[r] if with_draws else None
        want, want_p0 = _one_train_oracle(d, rho0, train, draw, apply_cross)
        assert np.array_equal(out[r], want), r
        assert p0[r] == want_p0, r
        dense = _dense_train(d, rho0, train, draw, apply_cross)
        np.testing.assert_allclose(out[r], dense, rtol=0, atol=1e-12)
        assert abs(p0[r] - hb.measure_p0(dense)) < 1e-12


def _random_density(rng, rank):
    a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("rank", [1, 3, 8])
def test_any_rho_plays_through_its_eigenvectors(rank):
    # states with coherence between S_z sectors and weight on m_S = +-3/2
    d = _noisy_device()
    rho = _random_density(np.random.default_rng(rank), rank)
    rows = _mixed_trains(8)
    draws = [dev.sample_noise(d.noise, dev.rng_stream(6, r)) for r in range(len(rows))]
    batch = dev.NoiseDraw.stack(draws)
    out = d.simulate_pulse(rho, rows, batch, True)
    leak = d.simulate_pulse(rho, rows, batch, True, readout=hb.leakage_population)
    p0 = d.simulate_pulse(rho, rows, batch, True, readout=hb.measure_p0)
    for r, train in enumerate(rows):
        want = _dense_train(d, rho, train, draws[r], True)
        np.testing.assert_allclose(out[r], want, rtol=0, atol=1e-12)
        assert abs(leak[r] - hb.leakage_population(want)) < 1e-12
        assert abs(p0[r] - hb.measure_p0(want)) < 1e-12
        if not train:
            assert np.array_equal(out[r], rho)


@pytest.mark.parametrize("hadamard", [False, True])
def test_fingerpinch_matches_the_dense_route(hadamard):
    d = dataclasses.replace(_noisy_device(), fields=hb.FieldConfig(2e7, (1e5, -2e5, 3e4)))
    v1, v2 = np.linspace(0.05, 0.08, 9), np.linspace(0.04, 0.09, 7)
    got = dev.fingerpinch_map(d, ("12", "13"), v1, v2, hadamard=hadamard, apply_cross=True)
    h8 = hb.embed_qubit_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    rho0 = hb.initialize_singlet()
    if hadamard:
        rho0 = h8 @ rho0 @ h8.conj().T
    for r, c in np.ndindex(got.shape):
        j = d.exchange_from_voltages(np.array([v1[c], v2[r], -np.inf]), apply_cross=True)
        u = expm(-1j * hb.build_hamiltonian(j, d.fields) * d.pulse_s)
        rho = u @ rho0 @ u.conj().T
        if hadamard:
            rho = h8 @ rho @ h8.conj().T
        assert abs(got[r, c] - hb.measure_p0(rho)) < 1e-12


def test_rows_with_empty_trains_keep_rho():
    d = _noisy_device()
    rho = hb.initialize_singlet()
    out = d.simulate_pulse(rho, [[], [PLAIN], []])
    assert np.array_equal(out[0], rho) and np.array_equal(out[2], rho)
    assert not np.array_equal(out[1], rho)
    assert np.array_equal(d.simulate_pulse(rho, [[], []]), np.stack([rho, rho]))


def test_single_train_with_a_batch_of_draws_equals_per_row_trains():
    d = _noisy_device()
    draws = dev.NoiseDraw.stack([dev.sample_noise(d.noise, dev.rng_stream(9, s)) for s in range(300)])
    train = [RAMPED, PLAIN]  # 34 matrices a row, so 300 rows take 40 blocks
    rho0 = hb.initialize_singlet()
    shared = d.simulate_pulse(rho0, train, draws)
    assert np.array_equal(shared, d.simulate_pulse(rho0, [train] * 300, draws))
    draw = dev.NoiseDraw(draws.voltage_offsets_v[123], draws.gradients_hz[123])
    assert np.array_equal(shared[123], _one_train_oracle(d, rho0, train, draw, False)[0])
    np.testing.assert_allclose(shared[123], _dense_train(d, rho0, train, draw, False),
                               rtol=0, atol=1e-12)


def test_blocks_cut_between_runs_and_respect_the_cap():
    rabi = []
    for t in range(10):
        train = [dev.PulseSpec(v_x=(0.07, -np.inf, -np.inf), duration_s=1e-9 * (t + 1))]
        rabi += [train] * 50
    blocks = dev._blocks(rabi)
    assert [sum(hi - lo for _, lo, hi in b) for b in blocks] == [250, 250]
    assert all(hi - lo == 50 for b in blocks for _, lo, hi in b)
    # a run larger than the cap is cut within; a row over the cap is alone
    big = dev._blocks([[PLAIN]] * 600)
    assert [(b[0][1], b[-1][2]) for b in big] == [(0, 256), (256, 512), (512, 600)]
    ramps = [dev.PulseSpec(v_x=(0.07, -np.inf, -np.inf), duration_s=1e-9, ramp_s=k * 1e-10)
             for k in range(1, 10)]
    wide = dev._blocks([ramps, ramps, [PLAIN]])
    assert [[(lo, hi) for _, lo, hi in b] for b in wide] == [[(0, 1)], [(1, 2)], [(2, 3)]]


def test_propagator_stacks_stay_within_the_block_cap(monkeypatch):
    sizes = []
    sector_propagator = hb.sector_propagator

    def spy(j, fields, tau_s):
        sizes.append(math.prod(np.broadcast_shapes(
            *(np.shape(c) for c in (j.j12, j.j23, j.j13)), np.shape(fields.gradients_hz)[:-1])))
        return sector_propagator(j, fields, tau_s)

    def dense(*args):
        raise AssertionError("the kernel never takes the dense route")

    monkeypatch.setattr(hb, "sector_propagator", spy)
    monkeypatch.setattr(hb, "propagator", dense)
    monkeypatch.setattr(hb, "build_hamiltonian", dense)
    d = _noisy_device()
    times = np.linspace(1e-9, 100e-9, 20)
    trains = [(dev.PulseSpec(v_x=(0.072, -np.inf, -np.inf), duration_s=float(t)),) for t in times]
    d.survival(trains, times.shape, 60, 3, (101,))
    assert sizes == [240] * 5  # whole runs per block: one call per block
    sizes.clear()
    rows = _mixed_trains(40)
    d.survival(rows, (len(rows),), 7, 3)
    assert max(sizes) <= dev.BLOCK_MATRICES
    assert len(sizes) == len(dev._blocks([t for t in rows for _ in range(7)]))
    # one row over the cap: its 330 segments take two calls
    sizes.clear()
    ramps = [dev.PulseSpec(v_x=(0.07, -np.inf, -np.inf), duration_s=1e-9, ramp_s=2e-9,
                           plunger_offsets_v=(k * 1e-5, 0.0, 0.0)) for k in range(10)]
    d.simulate_pulse(hb.initialize_singlet(), ramps)
    assert sizes == [256, 74]
    sizes.clear()
    v = np.linspace(0.05, 0.08, 41)
    dev.fingerpinch_map(d, ("12", "23"), v, v)
    assert sizes == [246] * 6 + [41 * 5]


def test_survival_equals_the_per_train_shot_loop():
    d = _noisy_device()
    rows = _mixed_trains(6)
    shape, shots, seed = (len(rows),), 4, 17
    got = d.survival(rows, shape, shots, seed, (3,), apply_cross=True)
    rho0 = hb.initialize_singlet()
    for k, train in enumerate(rows):
        hits = 0
        for rng in dev.rng_streams(seed, 3, k, shape=shots):
            draw = dev.NoiseDraw(rng.normal(0.0, 1.0, 6) * d.noise.sigma_v,
                                 rng.normal(0.0, 1.0, 3) * d.noise.sigma_b)
            p0 = _one_train_oracle(d, rho0, train, draw, True)[1]
            assert abs(p0 - hb.measure_p0(_dense_train(d, rho0, train, draw, True))) < 1e-12
            hits += rng.random() < p0
        assert got[k] == hits / shots
    clean = d.survival(rows, shape)
    for k, t in enumerate(rows):
        assert clean[k] == _one_train_oracle(d, rho0, t, None, False)[1]
        assert abs(clean[k] - hb.measure_p0(_dense_train(d, rho0, t, None, False))) < 1e-12


def test_sample_shots_equals_the_per_shot_loop():
    noise = dev.NoiseConfig((1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3), (1e4, 2e4, 3e4))
    draws, uniforms = dev.sample_shots(noise, 11, 101, shape=(7, 5))
    assert draws.voltage_offsets_v.shape == (35, 6) and uniforms.shape == (35,)
    k = 0
    for t in range(7):
        for rng in dev.rng_streams(11, 101, t, shape=5):
            want = dev.sample_noise(noise, rng)
            assert np.array_equal(draws.voltage_offsets_v[k], want.voltage_offsets_v)
            assert np.array_equal(draws.gradients_hz[k], want.gradients_hz)
            assert uniforms[k] == rng.random()
            k += 1


def test_sample_noise_into_a_row_equals_the_returned_draw():
    noise = dev.NoiseConfig((1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3), (1e4, 2e4, 3e4))
    buf = np.full((3, 9), np.nan)
    for seed in range(50):
        rng, into = np.random.default_rng(seed), np.random.default_rng(seed)
        want = dev.sample_noise(noise, rng)
        got = dev.sample_noise(noise, into, out=buf[1])
        assert got.base is buf and np.shares_memory(got, buf[1])
        assert np.array_equal(buf[1, :6], want.voltage_offsets_v)
        assert np.array_equal(buf[1, 6:], want.gradients_hz)
        assert np.isnan(buf[[0, 2]]).all()  # other rows untouched
        assert into.random() == rng.random()  # both leave the stream alike


def _counting_pulse_hashes(monkeypatch):
    calls = [0]
    pulse_hash = dev.PulseSpec.__hash__

    def counted(self):
        calls[0] += 1
        return pulse_hash(self)

    monkeypatch.setattr(dev.PulseSpec, "__hash__", counted)
    return calls


def test_pulses_are_hashed_once_per_distinct_object_and_run(monkeypatch):
    d = _noisy_device()
    rng = np.random.default_rng(3)
    shared = [RAMPED, IDLE, PLAIN, OTHER]
    # 10 trains of 60 pulses from 4 shared objects, 5 rows (shots) each
    trains = [[shared[k] for k in rng.integers(0, 4, size=60)] for _ in range(10)]
    for train in trains:
        train[:4] = shared
    rows = [train for train in trains for _ in range(5)]
    draws, _ = dev.sample_shots(d.noise, 4, shape=50)
    picked = [(rows[r], dev.NoiseDraw(draws.voltage_offsets_v[r], draws.gradients_hz[r]))
              for r in (0, 7, 49)]
    want = [_one_train_oracle(d, hb.initialize_singlet(), t, w, False)[0] for t, w in picked]
    dense = [_dense_train(d, hb.initialize_singlet(), t, w, False) for t, w in picked]
    runs = sum(len(block) for block in dev._blocks(rows))
    calls = _counting_pulse_hashes(monkeypatch)
    out = d.simulate_pulse(hb.initialize_singlet(), rows, draws)
    # one hash per distinct object when each train is resolved, and one
    # per distinct pulse of each run of a block; per played pulse, none
    assert runs == len(trains) and calls[0] <= 4 * len(trains) + 4 * runs
    for r, w, ref in zip((0, 7, 49), want, dense):
        assert np.array_equal(out[r], w)
        np.testing.assert_allclose(out[r], ref, rtol=0, atol=1e-12)


def test_resolve_merges_equal_pulse_objects():
    twin = dataclasses.replace(PLAIN)
    assert twin is not PLAIN and twin == PLAIN
    train = dev._resolve([PLAIN, IDLE, twin, PLAIN, IDLE])
    assert train.pulses == (PLAIN, IDLE)
    assert train.index.tolist() == [0, 1, 0, 0, 1]
    empty = dev._resolve([])
    assert empty.pulses == () and empty.index.shape == (0,)


def test_sample_noise_draws_nine_normals_as_six_then_three():
    noise = dev.NoiseConfig((1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3), (1e4, 2e4, 3e4))
    for seed in range(300):
        draw = dev.sample_noise(noise, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        assert np.array_equal(draw.voltage_offsets_v, rng.normal(0.0, 1.0, 6) * noise.sigma_v)
        assert np.array_equal(draw.gradients_hz, rng.normal(0.0, 1.0, 3) * noise.sigma_b)


def test_rng_streams_cross_chunk_boundaries_like_the_oracle():
    got = [rng.bit_generator.state for rng in dev.rng_streams(2**40 + 7, 5, shape=(13, 100))]
    assert len(got) == 1300 > 2 * dev._STREAM_CHUNK
    for index, state in zip(np.ndindex(13, 100), got):
        assert state == _oracle(2**40 + 7, (5,) + index).bit_generator.state
