"""Device model: virtual gates, exchange laws, noise, pulse simulation."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from aeonsim import benchmarking as bench
from aeonsim import device as dev
from aeonsim import hilbert as hb
from aeonsim import rotations as rot
from aeonsim.errors import ConfigError
from oracles import build_hamiltonian, initialize_singlet


def test_exchange_law_anchors():
    law = dev.ExchangeLaw(a_hz=1e6, b_per_v=52.983, c=0.0)
    assert law.j_hz(0.0) == pytest.approx(1e6, rel=1e-12)
    assert law.j_hz(0.1) == pytest.approx(199.99652672055223e6, rel=1e-12)
    assert law.v_for(law.j_hz(0.0431), "12") == pytest.approx(0.0431, abs=1e-12)
    with pytest.raises(ValueError):
        law.v_for(0.0, "12")


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


def _draw(noise, rng):
    """One noise draw from ``rng``, a fresh (9,) row."""
    out = np.full(9, np.nan)
    assert dev.sample_noise(noise, rng, out) is None
    return out


def test_noise_sampling_shapes():
    cfg = dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=2e4)
    draw = _draw(cfg, dev.rng_stream(0, 1))
    assert np.all(np.isfinite(draw)) and np.all(draw != 0.0)
    silent = _draw(dev.NoiseConfig(), dev.rng_stream(0, 2))
    assert np.abs(silent).max() == 0.0


def test_noise_sigmas_are_computed_once_and_draws_keep_their_values():
    sig_v = (1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3)
    for cfg in (dev.NoiseConfig(1e-3, 2e4), dev.NoiseConfig(sig_v, (1e4, 2e4, 3e4))):
        assert cfg.sigmas is cfg.sigmas and not cfg.sigmas.flags.writeable
        draw = _draw(cfg, dev.rng_stream(3, 1))
        rng = dev.rng_stream(3, 1)
        want_v = rng.normal(0.0, 1.0, size=6) * np.broadcast_to(cfg.voltage_sigma_v, (6,))
        want_b = rng.normal(0.0, 1.0, size=3) * np.broadcast_to(cfg.gradient_sigma_hz, (3,))
        np.testing.assert_array_equal(draw[:6], want_v)
        np.testing.assert_array_equal(draw[6:], want_b)


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


def test_cross_none_is_the_identity_bit_for_bit():
    # a device without cross-talk plays the same bits with the flag on or off
    d = dataclasses.replace(dev.default_device(), cross=None)
    v = np.array([[0.07, -np.inf, 0.06], [0.05, 0.08, -np.inf], [0.065, -0.02, 0.075]])
    plain, crossed = (d.exchange_from_voltages(v, apply_cross=c) for c in (False, True))
    for pair in ("j12", "j13", "j23"):
        assert np.array_equal(getattr(plain, pair), getattr(crossed, pair))
    pulses = [dev.PulseSpec(v_x=tuple(row), duration_s=7e-9) for row in v]
    trains = [np.array([0, 1, 2]), np.array([2, 0])]
    noise = dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=1e6)
    for draws in (None, dev.sample_shots(noise, 3, shape=(2, 2))[0]):
        assert np.array_equal(d.simulate_pulse(pulses, trains, draws, False),
                              d.simulate_pulse(pulses, trains, draws, True))


def test_voltages_for_exchange_round_trip():
    d = dev.default_device()
    j = hb.ExchangeVector(j12=35e6, j23=18e6, j13=0.0)
    v = d.voltages_for_exchange(j)
    assert v[1] == -np.inf
    back = d.exchange_from_voltages(v)
    assert back.j12 == pytest.approx(35e6, rel=1e-12)
    assert back.j23 == pytest.approx(18e6, rel=1e-12)
    assert back.j13 == 0.0


def _table(trains):
    """The table of the distinct pulses of ``trains`` (merged by equality,
    as the device RB engine merges them) and each train as integer
    positions in it."""
    slots = {}
    index = [np.array([slots.setdefault(p, len(slots)) for p in t], dtype=np.intp) for t in trains]
    return list(slots), index


def _kernel_p0(d, trains, draws=None, apply_cross=False):
    """The kernel's p0 per row for trains given as lists of pulses."""
    return d.simulate_pulse(*_table(trains), draws, apply_cross)


def _dense_p0(rho, unitaries):
    for u in unitaries:
        rho = u @ rho @ u.conj().T
    return hb.measure_p0(rho)


def test_simulate_pulse_matches_direct_propagator():
    d = dev.default_device()
    j = hb.ExchangeVector(j12=42e6, j23=13e6, j13=7e6)
    pulse = dev.PulseSpec(v_x=tuple(d.voltages_for_exchange(j)), duration_s=10e-9)
    (p0,) = _kernel_p0(d, [[pulse]])
    u = expm(-1j * build_hamiltonian(j) * 10e-9)
    assert abs(p0 - _dense_p0(initialize_singlet(), [u])) < 1e-12
    assert p0 < 0.9  # the pulse moves the state


def test_pulse_train_plays_in_order():
    # a train must play its pulses in time order; the three pulses here do
    # not commute, so a swap of the first two changes the result
    d = dev.default_device()
    js = [hb.ExchangeVector(60e6, 0.0, 0.0), hb.ExchangeVector(0.0, 55e6, 10e6),
          hb.ExchangeVector(30e6, 45e6, 0.0)]
    taus = (7e-9, 9e-9, 5e-9)
    a, b, c = (dev.PulseSpec(v_x=tuple(d.voltages_for_exchange(j)), duration_s=tau)
               for j, tau in zip(js, taus))
    abc, bac = _kernel_p0(d, [[a, b, c], [b, a, c]])
    u_a, u_b, u_c = (expm(-1j * build_hamiltonian(j) * tau) for j, tau in zip(js, taus))
    assert abs(abc - _dense_p0(initialize_singlet(), [u_a, u_b, u_c])) < 1e-12
    assert abs(bac - _dense_p0(initialize_singlet(), [u_b, u_a, u_c])) < 1e-12
    assert abs(abc - bac) > 1e-3


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


def test_stacked_draws_match_per_draw_oracle():
    d = dataclasses.replace(
        dev.default_device(),
        fields=hb.FieldConfig(2e7, (1e5, -2e5, 3e4)),
        noise=dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=1e5),
    )
    shifted = dev.PulseSpec(v_x=(0.072, -np.inf, 0.065), duration_s=8e-9)
    idle = dev.PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=20e-9)
    plain = dev.PulseSpec(v_x=(-np.inf, 0.07, 0.068), duration_s=10e-9)
    train = [shifted, idle, plain, shifted, plain]
    draws = np.stack([_draw(d.noise, dev.rng_stream(3, shot)) for shot in range(4)])
    out = _kernel_p0(d, [train], draws, apply_cross=True)
    assert out.shape == (4,)
    for draw, got in zip(draws, out):
        fields = hb.FieldConfig(2e7, tuple(np.asarray(d.fields.gradients_hz) + draw[6:]))
        unitaries = []
        for pulse in train:
            j = _oracle_couplings(d, np.asarray(pulse.v_x) + draw[3:6], draw[:3])
            unitaries.append(expm(-1j * build_hamiltonian(j, fields) * pulse.duration_s))
        assert abs(got - _dense_p0(initialize_singlet(), unitaries)) < 1e-12
        # the draw alone, as a batch of one, gives the same p0
        one = _kernel_p0(d, [train], draw[None], apply_cross=True)
        assert one[0] == got


def test_empty_train_returns_rho_unchanged():
    # an empty train leaves the singlet, so its p0 is the singlet's
    d = dev.default_device()
    singlet = hb.sector_p0(hb.SINGLET_SECTORS)
    assert singlet == pytest.approx(1.0, abs=1e-15)
    draws = np.repeat([[1e-3] * 6 + [1e5] * 3], 3, axis=0)
    for draw in (None, draws):
        assert np.array_equal(_kernel_p0(d, [[]], draw), [singlet] * (1 if draw is None else 3))
    assert _kernel_p0(d, []).shape == (0,)


def test_gradient_noise_causes_leakage():
    # at J = 0 a gradient rotates the singlet out of the encoded subspace
    d = dev.default_device()
    draw = np.array([[0.0] * 6 + [2e6, -1e6, 0.5e6]])
    pulse = dev.PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=400e-9)
    (p0,) = _kernel_p0(d, [[pulse]], draw)
    fields = hb.FieldConfig(0.0, draw[0, 6:])
    u = expm(-1j * build_hamiltonian(hb.ExchangeVector(0.0, 0.0, 0.0), fields) * 400e-9)
    rho = u @ initialize_singlet() @ u.conj().T
    assert np.trace(hb.ENCODED.p_leak @ rho).real > 1e-4  # quadruplet population
    assert abs(p0 - hb.measure_p0(rho)) < 1e-12 and p0 < 1.0 - 1e-4


def test_device_config_round_trip(tmp_path):
    cfg = {
        "exchange_law": {
            "12": {"A_hz": 2e6, "B_per_v": 50.0, "C": 0.1},
        },
        "cross_matrix": [[1, -0.08, -0.08], [-0.24, 1, -0.18], [-0.15, -0.19, 1]],
        "noise": {"voltage_sigma_v": 1e-4, "gradient_sigma_hz": 3e4},
        "pulse_s": 8e-9,
        "fields": {"f_uniform_hz": 1e9, "gradients_hz": [100.0, 0.0, -50.0]},
    }
    path = tmp_path / "device.json"
    path.write_text(json.dumps(cfg))
    d = dev.load_device(path)
    assert d.laws["12"].a_hz == 2e6
    assert d.laws["13"].a_hz == 1e6  # untouched default
    assert d.pulse_s == 8e-9
    assert d.noise.gradient_sigma_hz == 3e4
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
    # one entry per schema row, nested leaves included, with the pair
    # written as <pair>, and each entry opens with its row's shape and range
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Device configuration", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^- `([^`]+)`: ([^.]+)\.", section, re.M)
    documented = {path: " ".join(text.split()) for path, text in entries}
    assert len(entries) == len(documented)
    expected = {re.sub(r"\.(12|13|23)\b", ".<pair>", path): dev._want(*row)
                for path, row in dev.CONFIG_SCHEMA.items()}
    assert documented == expected


def test_fingerpinch_map_shape_and_symmetry():
    d = dev.default_device()
    v = np.linspace(0.05, 0.08, 7)
    p0 = dev.fingerpinch_map(d, ("12", "23"), v, v, duration_s=d.pulse_s, apply_cross=False)
    assert p0.shape == (7, 7)
    # equal couplings rotate about -z and preserve the initial state
    np.testing.assert_allclose(np.diag(p0), 1.0, atol=1e-9)
    # map is symmetric for the symmetric pair sweep without cross-talk
    np.testing.assert_allclose(p0, p0.T, atol=1e-9)


def test_fingerpinch_hadamard_changes_contrast():
    d = dev.default_device()
    v = np.linspace(0.05, 0.08, 5)
    plain = dev.fingerpinch_map(d, ("12", "23"), v, v, duration_s=d.pulse_s, apply_cross=False)
    had = dev.fingerpinch_map(d, ("12", "23"), v, v, duration_s=d.pulse_s, apply_cross=False,
                              hadamard=True)
    assert np.abs(plain - had).max() > 0.05


# ---------------------------------------------------------------------------
# Batched kernel: every row of a batch, blocked, against one train at a time


def _couplings(d, pulse, draw, apply_cross):
    """The couplings of one pulse under one (9,) draw: the front end one
    pulse at a time."""
    target = np.asarray(pulse.v_x, dtype=float) + draw[3:6]
    return d.exchange_from_voltages(target, draw[:3], apply_cross=apply_cross)


def _one_train_oracle(d, train, draw, apply_cross, vectors=hb.SINGLET_SECTORS):
    """p0 after one train under one draw (or none), unblocked, on the sector
    route: each distinct pulse built once, one sector_propagator call per
    pulse duration, and the train folded on the sector vectors (the
    singlet's by default)."""
    if not train:
        return hb.sector_p0(vectors)
    draw = np.zeros(9) if draw is None else draw
    fields = hb.FieldConfig(
        d.fields.f_uniform_hz, np.asarray(d.fields.gradients_hz, dtype=float) + draw[6:]
    )
    cross = apply_cross and d.cross is not None
    by_duration = {}
    for pulse in dict.fromkeys(train):
        by_duration.setdefault(pulse.duration_s, []).append(pulse)
    pulse_u = {}
    for dt, pulses in by_duration.items():
        js = [_couplings(d, p, draw, cross) for p in pulses]
        j = hb.ExchangeVector(*(np.array([getattr(x, f) for x in js]) for f in ("j12", "j23", "j13")))
        pulse_u.update(zip(pulses, hb.sector_propagator(j, fields, dt)))
    for pulse in train:
        vectors = pulse_u[pulse] @ vectors
    return hb.sector_p0(vectors)


def _dense_train(d, rho, train, draw, apply_cross):
    """The dense reference: one train under one draw, every pulse's 8x8
    propagator from expm of build_hamiltonian, applied to ``rho``."""
    draw = np.zeros(9) if draw is None else draw
    fields = hb.FieldConfig(
        d.fields.f_uniform_hz, np.asarray(d.fields.gradients_hz, dtype=float) + draw[6:]
    )
    for pulse in train:
        j = _couplings(d, pulse, draw, apply_cross and d.cross is not None)
        u = expm(-1j * build_hamiltonian(j, fields) * pulse.duration_s)
        rho = u @ rho @ u.conj().T
    return rho


def _noisy_device():
    return dataclasses.replace(
        dev.default_device(),
        fields=hb.FieldConfig(2e7, (1e5, -2e5, 3e4)),
        noise=dev.NoiseConfig(voltage_sigma_v=1e-3, gradient_sigma_hz=1e5),
    )


SHIFTED = dev.PulseSpec(v_x=(0.072, -np.inf, 0.065), duration_s=8e-9)
IDLE = dev.PulseSpec(v_x=(-np.inf, -np.inf, -np.inf), duration_s=20e-9)
PLAIN = dev.PulseSpec(v_x=(-np.inf, 0.07, 0.068), duration_s=10e-9)
OTHER = dev.PulseSpec(v_x=(0.071, 0.069, -np.inf), duration_s=10e-9)


def _mixed_trains(n_runs):
    """Runs of rows sharing a train: three pulse durations, J = 0 (the
    idle), an empty train among them, lengths from 0 to 6."""
    shapes = [[SHIFTED, IDLE, PLAIN], [PLAIN, OTHER], [], [OTHER, SHIFTED, PLAIN, IDLE, OTHER, PLAIN],
              [IDLE], [PLAIN, PLAIN, OTHER, SHIFTED]]
    rows = []
    for k in range(n_runs):
        train = list(shapes[k % len(shapes)])
        rows += [train] * (1 + k % 4)
    return rows


def _costs(trains):
    """Matrices a row of each train stacks: one per distinct pulse."""
    return [max(1, len(set(t))) for t in trains]


@pytest.mark.parametrize("apply_cross", [False, True])
@pytest.mark.parametrize("with_draws", [False, True])
def test_batched_rows_equal_one_train_at_a_time(monkeypatch, apply_cross, with_draws):
    # cross-talk, noise draws (plunger offsets among them) and J = 0, each row its own train
    d = _noisy_device()
    rows = _mixed_trains(24)
    draws = np.stack([_draw(d.noise, dev.rng_stream(5, r)) for r in range(len(rows))])
    batch = draws if with_draws else None
    monkeypatch.setattr(dev, "BLOCK_MATRICES", 16)
    assert len(dev._blocks(_costs(rows))) > 2  # the batch spans several blocks
    p0 = _kernel_p0(d, rows, batch, apply_cross)
    assert p0.shape == (len(rows),)
    for r, train in enumerate(rows):
        draw = draws[r] if with_draws else None
        assert p0[r] == _one_train_oracle(d, train, draw, apply_cross), r
        dense = _dense_train(d, initialize_singlet(), train, draw, apply_cross)
        assert abs(p0[r] - hb.measure_p0(dense)) < 1e-12


def _random_density(rng, rank):
    a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("rank", [1, 3, 8])
def test_any_rho_plays_through_its_eigenvectors(rank):
    # p0 of states with coherence between S_z sectors and weight on
    # m_S = +-3/2 after noisy trains, read off their sector vectors alone:
    # the eigenvectors of rho's two sector blocks, scaled by the square
    # roots of their eigenvalues
    d = _noisy_device()
    rho = _random_density(np.random.default_rng(rank), rank)
    weights, vecs = np.linalg.eigh(hb.sector_blocks(rho))
    vectors = vecs * np.sqrt(np.clip(weights, 0.0, None))[:, None, :]
    rows = _mixed_trains(8)
    draws = [_draw(d.noise, dev.rng_stream(6, r)) for r in range(len(rows))]
    for train, draw in zip(rows, draws):
        want = hb.measure_p0(_dense_train(d, rho, train, draw, True))
        assert abs(_one_train_oracle(d, train, draw, True, vectors) - want) < 1e-12


@pytest.mark.parametrize("hadamard", [False, True])
def test_fingerpinch_matches_the_dense_route(hadamard):
    d = dataclasses.replace(_noisy_device(), fields=hb.FieldConfig(2e7, (1e5, -2e5, 3e4)))
    v1, v2 = np.linspace(0.05, 0.08, 9), np.linspace(0.04, 0.09, 7)
    got = dev.fingerpinch_map(d, ("12", "13"), v1, v2, duration_s=d.pulse_s, apply_cross=True,
                              hadamard=hadamard)
    h8 = hb.embed_qubit_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    rho0 = initialize_singlet()
    if hadamard:
        rho0 = h8 @ rho0 @ h8.conj().T
    for r, c in np.ndindex(got.shape):
        j = d.exchange_from_voltages(np.array([v1[c], v2[r], -np.inf]), apply_cross=True)
        u = expm(-1j * build_hamiltonian(j, d.fields) * d.pulse_s)
        rho = u @ rho0 @ u.conj().T
        if hadamard:
            rho = h8 @ rho @ h8.conj().T
        assert abs(got[r, c] - hb.measure_p0(rho)) < 1e-12


def test_rows_with_empty_trains_keep_rho():
    # rows with an empty train keep the singlet's p0, next to rows that play
    d = _noisy_device()
    singlet = hb.sector_p0(hb.SINGLET_SECTORS)
    out = _kernel_p0(d, [[], [PLAIN], []])
    assert out[0] == out[2] == singlet and out[1] < singlet - 1e-3
    assert np.array_equal(_kernel_p0(d, [[], []]), [singlet, singlet])


def test_single_train_with_a_batch_of_draws_equals_per_row_trains():
    d = _noisy_device()
    draws = np.stack([_draw(d.noise, dev.rng_stream(9, s)) for s in range(300)])
    train = [SHIFTED, PLAIN]  # 2 matrices a row, so 300 rows take blocks of 128, 128, 44
    table, (index,) = _table([train])
    shared = d.simulate_pulse(table, [index], draws, False)
    assert dev._blocks([2] * 300) == [(0, 128), (128, 256), (256, 300)]
    assert np.array_equal(shared, d.simulate_pulse(table, [index] * 300, draws, False))
    draw = draws[123]
    assert shared[123] == _one_train_oracle(d, train, draw, False)
    dense = _dense_train(d, initialize_singlet(), train, draw, False)
    assert abs(shared[123] - hb.measure_p0(dense)) < 1e-12
    for bad in (draws[:, :6], draws[0]):
        with pytest.raises(ValueError, match="split evenly"):
            d.simulate_pulse(table, [index], bad, False)
    with pytest.raises(ValueError, match="split evenly"):
        d.simulate_pulse(table, [index] * 7, draws, False)
    with pytest.raises(ValueError, match="table of 2 pulses"):
        d.simulate_pulse(table, [np.array([0, 2])], None, False)


def test_blocks_cover_the_rows_in_order_within_the_cap():
    # random per-row costs, some rows over the cap: the blocks tile the
    # rows in order, each fits the cap or is one row over it, and none
    # could have taken the row after it
    rng = np.random.default_rng(22)
    cap = dev.BLOCK_MATRICES
    for trial in range(300):
        n = int(rng.integers(0, 60))
        costs = rng.integers(1, [3, 40, 300][trial % 3], size=n)
        blocks = dev._blocks(costs)
        cuts = [0] + [hi for _, hi in blocks]
        assert blocks == list(zip(cuts, cuts[1:])) and cuts[-1] == n
        for lo, hi in blocks:
            used = int(costs[lo:hi].sum())
            assert hi > lo and (used <= cap or hi - lo == 1)
            assert hi == n or used + costs[hi] > cap
    assert dev._blocks([1] * 600) == [(0, 256), (256, 512), (512, 600)]
    assert dev._blocks([9 * 33, 9 * 33, 1]) == [(0, 1), (1, 2), (2, 3)]


def test_propagator_stacks_stay_within_the_block_cap(monkeypatch):
    sizes, front_end = [], []
    sector_propagator = hb.sector_propagator
    exchange_from_voltages = dev.DeviceModel.exchange_from_voltages

    def spy(j, fields, tau_s):
        sizes.append(math.prod(np.broadcast_shapes(
            *(np.shape(c) for c in (j.j12, j.j23, j.j13)), np.shape(fields.gradients_hz)[:-1])))
        return sector_propagator(j, fields, tau_s)

    def front_end_spy(self, v_x, *args, **kwargs):
        front_end.append(np.shape(v_x)[:-1])
        return exchange_from_voltages(self, v_x, *args, **kwargs)

    monkeypatch.setattr(hb, "sector_propagator", spy)
    monkeypatch.setattr(dev.DeviceModel, "exchange_from_voltages", front_end_spy)
    d = _noisy_device()
    times = np.linspace(1e-9, 100e-9, 20)
    pulses = [dev.PulseSpec(v_x=(0.072, -np.inf, -np.inf), duration_s=float(t)) for t in times]
    d.survival(pulses, np.arange(20)[:, None], times.shape, 60, 3, (101,))
    assert sizes == [256] * 4 + [176]  # 1,200 one-pulse rows: one call per block
    assert front_end == [(256,)] * 4 + [(176,)]  # one front-end call per block
    sizes.clear()
    front_end.clear()
    rows = _mixed_trains(40)
    table, index = _table(rows)
    d.survival(table, index, (len(rows),), 7, 3)
    assert max(sizes) <= dev.BLOCK_MATRICES
    assert len(sizes) == len(front_end) == len(dev._blocks(np.repeat(_costs(rows), 7)))
    # one row over the cap: its 300 distinct pulses are one call of their own
    sizes.clear()
    front_end.clear()
    many = [dev.PulseSpec(v_x=(0.07 + k * 1e-6, -np.inf, -np.inf), duration_s=1e-9)
            for k in range(300)]
    _kernel_p0(d, [many])
    assert sizes == [300] and front_end == [(300,)]
    # fingerpinch walks its flat grid cells in chunks of the cap
    sizes.clear()
    v = np.linspace(0.05, 0.08, 41)
    dev.fingerpinch_map(d, ("12", "23"), v, v, duration_s=d.pulse_s, apply_cross=True)
    assert sizes == [256] * 6 + [145]
    # a row wider than the cap: every call stays within it, and each cell's
    # p0 is the kernel's for that cell's pulse
    sizes.clear()
    v1, v2 = np.linspace(0.05, 0.08, 300), np.linspace(0.06, 0.07, 3)
    p0 = dev.fingerpinch_map(d, ("12", "13"), v1, v2, duration_s=7e-9, apply_cross=True)
    assert sizes == [256] * 3 + [132]
    cells = [dev.PulseSpec(v_x=(a, b, -np.inf), duration_s=7e-9) for b in v2 for a in v1]
    assert np.array_equal(p0.reshape(-1), _kernel_p0(d, [[c] for c in cells], apply_cross=True))


def test_survival_equals_the_per_train_shot_loop():
    d = _noisy_device()
    rows = _mixed_trains(6)
    shape, shots, seed = (len(rows),), 4, 17
    table, index = _table(rows)
    got = d.survival(table, index, shape, shots, seed, (3,), apply_cross=True)
    rho0 = initialize_singlet()
    for k, train in enumerate(rows):
        hits = 0
        for rng in dev.rng_streams(seed, 3, k, shape=shots):
            draw = np.concatenate([rng.normal(0.0, 1.0, 6) * d.noise.sigmas[:6],
                                   rng.normal(0.0, 1.0, 3) * d.noise.sigmas[6:]])
            p0 = _one_train_oracle(d, train, draw, True)
            assert abs(p0 - hb.measure_p0(_dense_train(d, rho0, train, draw, True))) < 1e-12
            hits += rng.random() < p0
        assert got[k] == hits / shots
    clean = d.survival(table, index, shape)
    for k, t in enumerate(rows):
        assert clean[k] == _one_train_oracle(d, t, None, False)
        assert abs(clean[k] - hb.measure_p0(_dense_train(d, rho0, t, None, False))) < 1e-12


def test_sample_shots_equals_the_per_shot_loop():
    noise = dev.NoiseConfig((1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3), (1e4, 2e4, 3e4))
    draws, uniforms = dev.sample_shots(noise, 11, 101, shape=(7, 5))
    assert draws.shape == (35, 9) and uniforms.shape == (35,)
    k = 0
    for t in range(7):
        for rng in dev.rng_streams(11, 101, t, shape=5):
            assert np.array_equal(draws[k], _draw(noise, rng))
            assert uniforms[k] == rng.random()
            k += 1


def _counting_pulse_hashes(monkeypatch):
    calls = [0]
    pulse_hash = dev.PulseSpec.__hash__

    def counted(self):
        calls[0] += 1
        return pulse_hash(self)

    monkeypatch.setattr(dev.PulseSpec, "__hash__", counted)
    return calls


def _rb_trains(monkeypatch, cfg, interleaved=None):
    """The pulse table and integer trains device RB hands to survival."""
    seen = []
    survival = dev.DeviceModel.survival

    def spy(self, pulses, trains, *args, **kwargs):
        seen.append((pulses, trains))
        return survival(self, pulses, trains, *args, **kwargs)

    monkeypatch.setattr(dev.DeviceModel, "survival", spy)
    bench.run_rb(dev.default_device(), cfg, interleaved=interleaved)
    monkeypatch.undo()
    return seen[0]


def test_pulses_are_hashed_once_per_distinct_rotation(monkeypatch):
    cfg = bench.RbConfig(depths=(1, 8, 24), n_sequences=6, shots=2, idle_s=5e-9)
    calls = _counting_pulse_hashes(monkeypatch)
    table, trains = _rb_trains(monkeypatch, cfg)
    rotations = {aa for el in rot.canonical_clifford_group() for aa in el.decomposition}
    # one hash per realized rotation, and one for the idle; the kernel
    # plays integer trains and hashes no pulse
    assert calls[0] <= len(rotations) + 1
    d = _noisy_device()
    draws, _ = dev.sample_shots(d.noise, 4, shape=2 * len(trains))
    calls = _counting_pulse_hashes(monkeypatch)
    d.simulate_pulse(table, trains, draws, False)
    assert calls[0] == 0


@pytest.mark.parametrize("interleaved", [None, rot.AxisAngle(-math.pi / 2, math.pi)])
def test_device_rb_table_merges_equal_pulses(monkeypatch, interleaved):
    # the integer trains spell out the pulses the engine played as
    # PulseSpec lists: each Clifford's pulses, the interleaved gate, the
    # idle, then the recovery to the identity or the flip
    d = dev.default_device()
    cfg = bench.RbConfig(depths=(0, 2, 5), n_sequences=3, idle_s=4e-9, seed=8)
    table, trains = _rb_trains(monkeypatch, cfg, interleaved)
    assert len(set(table)) == len(table)
    group = rot.canonical_clifford_group()
    idle = dev.PulseSpec(v_x=(-np.inf,) * 3, duration_s=4e-9)
    want = []
    for (di, _), rng in zip(np.ndindex(3, 3), dev.rng_streams(8, shape=(3, 3))):
        body, net = [], group.identity
        for k in bench.generate_sequence(rng, cfg.depths[di], group):
            body += [bench.realize_pulse(d, aa) for aa in group[k].decomposition]
            net = group.mul[k, net]
            if interleaved is not None:
                body.append(bench.realize_pulse(d, interleaved))
                net = group.mul[group.index(rot.match_element(
                    group, rot.quaternion(interleaved.phi, interleaved.theta))), net]
            body.append(idle)
        for flip in (False, True):
            rec = group[int(group.flip_inv[net] if flip else group.inv[net])]
            want.append(body + [bench.realize_pulse(d, aa) for aa in rec.decomposition])
    assert [[table[i] for i in t] for t in trains] == want


def test_sample_noise_draws_nine_normals_as_six_then_three():
    # written in place into one row of a buffer, whose other rows it leaves
    noise = dev.NoiseConfig((1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3), (1e4, 2e4, 3e4))
    buf = np.full((3, 9), np.nan)
    for seed in range(300):
        into, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert dev.sample_noise(noise, into, buf[1]) is None
        assert np.array_equal(buf[1, :6], rng.normal(0.0, 1.0, 6) * noise.sigmas[:6])
        assert np.array_equal(buf[1, 6:], rng.normal(0.0, 1.0, 3) * noise.sigmas[6:])
        assert np.isnan(buf[[0, 2]]).all()
        assert into.random() == rng.random()  # both leave the stream alike


def test_rng_streams_cross_chunk_boundaries_like_the_oracle(monkeypatch):
    got = [rng.bit_generator.state for rng in dev.rng_streams(2**40 + 7, 5, shape=(13, 100))]
    assert len(got) == 1300 > 2 * dev._STREAM_CHUNK
    for index, state in zip(np.ndindex(13, 100), got):
        assert state == _oracle(2**40 + 7, (5,) + index).bit_generator.state
    # over a range of flat indices, the streams are that slice of the full
    # iteration, and no state outside it is derived
    derived = []
    states = dev._pcg64_states

    def counted(seed, paths):
        derived.append(len(paths))
        return states(seed, paths)

    monkeypatch.setattr(dev, "_pcg64_states", counted)
    for start in (1, dev._STREAM_CHUNK - 1, dev._STREAM_CHUNK, dev._STREAM_CHUNK + 3, 1299, 1300):
        for stop in {s for s in (start, start + 1, 650, 1299, 1300) if start <= s <= 1300}:
            derived.clear()
            part = dev.rng_streams(2**40 + 7, 5, shape=(13, 100), cells=range(start, stop))
            assert [rng.bit_generator.state for rng in part] == got[start:stop]
            assert sum(derived) == stop - start
    assert list(dev.rng_streams(3, shape=4, cells=range(4, 4))) == []
    for cells in (range(-1, 4), range(0, 5), range(9, 9), range(0, 4, 2), [0, 1]):
        with pytest.raises(ValueError, match="step-1 range"):
            dev.rng_streams(3, shape=4, cells=cells)


def test_kernel_memory_does_not_grow_with_trains_times_table():
    # a Rabi-shaped sweep: 3,000 single-pulse trains over a 3,000-pulse table
    import tracemalloc

    d = dev.default_device()
    times = np.linspace(1e-9, 200e-9, 3000)
    pulses = [dev.PulseSpec(v_x=(0.072, -np.inf, -np.inf), duration_s=float(t)) for t in times]
    trains = np.arange(times.size)[:, None]
    tracemalloc.start()
    try:
        p0 = d.survival(pulses, trains, times.shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p0.shape == times.shape
    assert peak < 10e6, peak
