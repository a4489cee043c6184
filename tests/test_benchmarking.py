"""Benchmarking: sequences, recovery, engines, decay fits."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from aeonsim import benchmarking as bench
from aeonsim import cli
from aeonsim import device as dev
from aeonsim import fitting
from aeonsim import rotations as rot
from aeonsim.errors import FitError
from oracles import IDENTITY, approx_equal, compile_clifford_group, inverse, overlap

PI = math.pi


def test_sequences_deterministic_per_stream():
    grp = rot.canonical_clifford_group()
    a = bench.generate_sequence(dev.rng_stream(5, 0, 0), 30, grp)
    b = bench.generate_sequence(dev.rng_stream(5, 0, 0), 30, grp)
    c = bench.generate_sequence(dev.rng_stream(5, 0, 1), 30, grp)
    assert a == b
    assert a != c


def test_recovery_completes_to_identity_and_flip():
    rng = np.random.default_rng(2)
    flip = rot.FLIP
    for grp in (rot.canonical_clifford_group(), compile_clifford_group((rot.PHI_M, rot.PHI_N))):
        for _ in range(40):
            seq = bench.generate_sequence(rng, int(rng.integers(1, 12)), grp)
            net, pos = IDENTITY, grp.identity
            for k in seq:
                net = rot.compose(grp[k].rotation, net)
                pos = grp.mul[k, pos]
            assert approx_equal(grp[pos].rotation, net)  # table fold = compose
            assert grp.position(net) == pos
            assert grp.index(rot.match_element(grp, net)) == pos
            # the engines read the recovery off the tables
            rec_i = grp[int(grp.inv[pos])]
            total = rot.compose(rec_i.rotation, net)
            assert overlap(total, IDENTITY) == pytest.approx(1.0, abs=1e-9)
            rec_f = grp[int(grp.flip_inv[pos])]
            total = rot.compose(rec_f.rotation, net)
            assert overlap(total, flip) == pytest.approx(1.0, abs=1e-9)


def test_realize_pulse_round_trip():
    d = dev.default_device()
    cases = [
        rot.AxisAngle(0.0, PI / 2),          # x: two couplings
        rot.AxisAngle(-PI / 2, PI),          # -z: two couplings
        rot.AxisAngle(rot.PHI_Z, PI / 2),    # +z: single coupling
        rot.AxisAngle(rot.PHI_M, 3 * PI / 2),
    ]
    for aa in cases:
        pulse = bench.realize_pulse(d, aa)
        j = d.exchange_from_voltages(np.asarray(pulse.v_x))
        back = rot.exchange_to_rotation(j, d.pulse_s)
        assert abs((back.phi - aa.phi + PI) % (2 * PI) - PI) < 1e-9
        assert back.theta == pytest.approx(aa.theta, rel=1e-9)


@pytest.mark.parametrize("engine", ["device", "channel"])
def test_noiseless_device_rb_is_exact(engine):
    # a noise-free device and a zero-injection channel are two routes to
    # the same survivals
    cfg = bench.RbConfig(depths=(1, 3, 6), n_sequences=3, seed=7)
    runs = {
        "device": bench.run_rb(dev.default_device(), cfg, engine="device"),
        "channel": bench.run_rb(None, cfg, engine="channel"),
    }
    data = runs[engine]
    np.testing.assert_allclose(data.surv_identity, 1.0, atol=1e-9)
    np.testing.assert_allclose(data.surv_flip, 0.0, atol=1e-9)
    fit = bench.fit_rb(data)
    assert fit["p"] == 1.0
    assert fit["lambda"] == 1.0
    assert fit["leakage_per_clifford"] == 0.0
    for curve in ("surv_identity", "surv_flip"):
        np.testing.assert_allclose(
            getattr(runs["device"], curve), getattr(runs["channel"], curve), rtol=0, atol=1e-12
        )


def test_channel_engine_depolarizing_recovery():
    eps = 1e-3
    cfg = bench.RbConfig(depths=(1, 2, 4, 8, 16, 32, 64), n_sequences=25, seed=11)
    data = bench.run_rb(
        None, cfg, engine="channel", inject=bench.InjectedError(depol_per_pulse=eps)
    )
    fit = bench.fit_rb(data)
    assert fit["error_per_pulse"] == pytest.approx(eps, rel=0.1)
    assert fit["leakage_per_clifford"] == 0.0


def test_channel_engine_leakage_recovery():
    leak = 1e-3
    nmax = int(2.5 / (leak * 11 / 6))
    depths = tuple(int(round(x)) for x in np.geomspace(1, nmax, 7))
    cfg = bench.RbConfig(depths=depths, n_sequences=25, seed=12)
    data = bench.run_rb(
        None, cfg, engine="channel", inject=bench.InjectedError(leak_per_pulse=leak)
    )
    fit = bench.fit_rb(data)
    per_pulse = 1.0 - (1.0 - fit["leakage_per_clifford"]) ** (1.0 / fit["avg_pulses_per_clifford"])
    assert per_pulse == pytest.approx(leak, rel=0.15)


def test_interleaved_subtracts_reference():
    cfg = bench.RbConfig(depths=(1, 2, 4, 8, 16, 32), n_sequences=20, seed=13)
    out = bench.interleaved_rb(
        None,
        cfg,
        rot.AxisAngle(-PI / 2, PI),
        engine="channel",
        inject=bench.InjectedError(gate_depol=1e-3),
    )
    assert out["gate_error"] == pytest.approx(1e-3, abs=2e-4)


def test_interleaved_gate_error_may_be_negative():
    # no gate error injected: subtraction noise can legitimately go below
    # zero and must be reported unclamped
    cfg = bench.RbConfig(
        depths=(1, 2, 4, 8, 16), n_sequences=8, shots=200, seed=3
    )
    out = bench.interleaved_rb(
        None,
        cfg,
        rot.AxisAngle(-PI / 2, PI),
        engine="channel",
        inject=bench.InjectedError(depol_per_pulse=5e-4),
    )
    assert isinstance(out["gate_error"], float)
    assert abs(out["gate_error"]) < 5e-3


def _channel_engine_so3_oracle(cfg, group, inject, interleaved):
    """Step-by-step channel engine: Bloch vector through each Clifford's
    SO(3) matrix and per-pulse channel scalings, net rotation by compose."""
    lam_dep = 1.0 - 2.0 * inject.depol_per_pulse
    keep = 1.0 - inject.leak_per_pulse
    lam_gate = 1.0 - 2.0 * inject.gate_depol
    inter = None
    if interleaved is not None:
        inter = rot.match_element(group, rot.quaternion(interleaved.phi, interleaved.theta))
    surv = np.empty((2, len(cfg.depths), cfg.n_sequences))
    for di, depth in enumerate(cfg.depths):
        for si in range(cfg.n_sequences):
            indices = bench.generate_sequence(dev.rng_stream(cfg.seed, di, si), depth, group)
            net, r, trace = IDENTITY, np.array([0.0, 0.0, 1.0]), 1.0
            for k in indices:
                el = group[k]
                r = rot.so3_matrix(el.rotation) @ r * (lam_dep * keep) ** el.pulse_count
                trace *= keep**el.pulse_count
                net = rot.compose(el.rotation, net)
                if inter is not None:
                    r = rot.so3_matrix(inter.rotation) @ r * (lam_gate * lam_dep * keep)
                    trace *= keep
                    net = rot.compose(inter.rotation, net)
            for flip in (0, 1):
                target = rot.compose(rot.FLIP, inverse(net)) if flip else inverse(net)
                rec = rot.match_element(group, target)
                rr = rot.so3_matrix(rec.rotation) @ r * (lam_dep * keep) ** rec.pulse_count
                p0 = 0.5 * (trace * keep**rec.pulse_count + rr[2])
                if cfg.shots is not None:
                    shot_rng = dev.rng_stream(cfg.seed, di, si, flip, 1000)
                    p0 = shot_rng.binomial(cfg.shots, min(1.0, max(0.0, p0))) / cfg.shots
                surv[flip, di, si] = p0
    return surv


@pytest.mark.parametrize("shots", [None, 40])
@pytest.mark.parametrize(
    "inject,interleaved",
    [
        (bench.InjectedError(depol_per_pulse=2e-3, leak_per_pulse=1e-3), None),
        (bench.InjectedError(depol_per_pulse=1e-3, gate_depol=3e-3), rot.AxisAngle(-PI / 2, PI)),
        (bench.InjectedError(depol_per_pulse=1e-3, leak_per_pulse=2e-3),
         rot.AxisAngle(0.0, PI / 2)),
    ],
    ids=["plain", "interleaved", "leak-interleaved"],
)
def test_channel_engine_matches_so3_oracle(inject, interleaved, shots):
    grp = rot.canonical_clifford_group()
    cfg = bench.RbConfig(depths=(1, 3, 17, 64), n_sequences=6, shots=shots, seed=29)
    data = bench.run_rb(None, cfg, engine="channel", inject=inject, interleaved=interleaved)
    want = _channel_engine_so3_oracle(cfg, grp, inject, interleaved)
    if shots is None:
        np.testing.assert_allclose(data.surv_identity, want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(data.surv_flip, want[1], rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(data.surv_identity, want[0])
        np.testing.assert_array_equal(data.surv_flip, want[1])


def test_channel_engine_shot_sampling_reproducible():
    cfg = bench.RbConfig(depths=(1, 4), n_sequences=4, shots=50, seed=21)
    inj = bench.InjectedError(depol_per_pulse=1e-3)
    d1 = bench.run_rb(None, cfg, engine="channel", inject=inj)
    d2 = bench.run_rb(None, cfg, engine="channel", inject=inj)
    np.testing.assert_array_equal(d1.surv_identity, d2.surv_identity)


def test_device_rb_with_noise_decays():
    d = dataclasses.replace(
        dev.default_device(),
        noise=dev.NoiseConfig(voltage_sigma_v=4e-4, gradient_sigma_hz=0.0),
    )
    cfg = bench.RbConfig(depths=(1, 6, 12), n_sequences=4, shots=30, seed=3)
    data = bench.run_rb(d, cfg, engine="device")
    diff = np.mean(data.surv_identity - data.surv_flip, axis=1)
    assert diff[0] > diff[-1] + 0.02


@pytest.mark.parametrize("depths", [(3,), (2, 2, 2), (1, 2), (4, 1, 4, 1)])
def test_fit_rb_needs_three_distinct_depths(depths):
    cfg = bench.RbConfig(depths=depths, n_sequences=3, seed=17)
    inject = bench.InjectedError(depol_per_pulse=2e-3)
    data = bench.run_rb(None, cfg, engine="channel", inject=inject)
    named = re.escape(str(sorted(set(depths))))
    with pytest.raises(FitError, match=f"at least 3 distinct depths.*got {named}"):
        bench.fit_rb(data)
    with pytest.raises(FitError):
        bench.interleaved_rb(None, cfg, rot.AxisAngle(-PI / 2, PI), engine="channel")


def test_flat_sum_reports_unit_lambda():
    cfg = bench.RbConfig(depths=(1, 2, 4, 8), n_sequences=10, seed=17)
    data = bench.run_rb(
        None, cfg, engine="channel", inject=bench.InjectedError(depol_per_pulse=2e-3)
    )
    fit = bench.fit_rb(data)
    assert fit["lambda"] == 1.0
    assert fit["leakage_per_clifford"] == 0.0


def test_oscillation_fit_recovers_parameters():
    t = np.linspace(0, 3e-6, 240)
    y = 0.5 + 0.4 * np.cos(2 * PI * 2.2e6 * t - 0.7) * np.exp(-((t / 1.1e-6) ** 2))
    fit = bench.fit_oscillation_decay(t, y)
    assert fit["frequency_hz"] == pytest.approx(2.2e6, rel=1e-6)
    assert fit["t_decay_s"] == pytest.approx(1.1e-6, rel=1e-6)
    assert fit["n_oscillations"] == pytest.approx(2.2e6 * 1.1e-6, rel=1e-6)


def test_oscillation_fit_pure_cosine_sentinel():
    t = np.linspace(0, 2e-6, 150)
    y = 0.2 + 0.35 * np.cos(2 * PI * 4.0e6 * t + 0.1)
    fit = bench.fit_oscillation_decay(t, y)
    assert fit["t_decay_s"] is fit["n_oscillations"] is None
    assert fit["frequency_hz"] == pytest.approx(4.0e6, rel=1e-9)


def test_oscillation_fit_rejects_noise():
    rng = np.random.default_rng(4)
    t = np.linspace(0, 1e-6, 100)
    with pytest.raises(FitError):
        bench.fit_oscillation_decay(t, rng.normal(size=t.size))


def test_oscillation_fit_rejects_what_no_probability_or_span_supports(capsys):
    # one shot at each of 8 times: the fit reported amplitude 81.1 and
    # 0.0048 oscillations, under a residual bound that grows with the
    # amplitude
    argv = ["rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:8", "--shots", "1"]
    assert cli.main(argv) == 3
    assert "amplitude 81.1 exceeds 1" in capsys.readouterr().err
    # a fifth of a cycle in the sampled span fits exactly, but shows no
    # oscillation
    t = np.linspace(0, 1e-7, 40)
    with pytest.raises(FitError, match="0.2 oscillations in the sampled span, fewer than 0.5"):
        bench.fit_oscillation_decay(t, 0.5 + 0.4 * np.cos(2 * PI * 2e6 * t + 0.3))
    fit = bench.fit_oscillation_decay(t, 0.5 + 0.4 * np.cos(2 * PI * 6e6 * t + 0.3))
    assert fit["frequency_hz"] == pytest.approx(6e6, rel=1e-9)


def test_flat_oscillation_curve_reports_no_oscillation():
    # a flat trace used to be fitted with a tiny amplitude and a decay time
    t = np.linspace(0, 1e-7, 20)
    for y in (np.ones(t.size), 0.3 + 1e-13 * np.cos(2 * PI * 5e7 * t)):
        fit = bench.fit_oscillation_decay(t, y)
        assert fit["baseline"] == float(np.mean(y))
        assert fit["amplitude"] == fit["frequency_hz"] == fit["phase_rad"] == 0.0
        assert fit["t_decay_s"] is fit["n_oscillations"] is None
    # just above the threshold the curve is fitted
    fit = bench.fit_oscillation_decay(t, 0.3 + 1e-11 * np.cos(2 * PI * 5e7 * t))
    assert fit["amplitude"] > 0.0 and fit["frequency_hz"] > 0.0


def test_rb_report_format(tmp_path):
    argv = ["rb", "--engine", "channel", "--depths", "1,2,4", "--sequences", "5", "--seed", "1",
            "--inject-depol", "1e-3", "--emit-plot-data", str(tmp_path / "plot.csv")]
    outs = [tmp_path / f"{k}.json" for k in range(2)]
    for out in outs:
        assert cli.main(argv + ["--out", str(out)]) == 0
    text = outs[0].read_text()
    assert outs[1].read_text() == text
    doc = json.loads(text)
    assert set(doc) == {"config", "config_hash", "per_depth", "fit"}
    assert len(doc["config_hash"]) == 16
    assert len(doc["per_depth"]) == 3
    assert doc["fit"]["avg_pulses_per_clifford"] == pytest.approx(11.0 / 6.0)
    # keys are sorted for byte-stable output
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    # the fit object is fit_rb's, and the plot rows are the per-depth means
    cfg = bench.RbConfig(depths=(1, 2, 4), n_sequences=5, seed=1)
    data = bench.run_rb(None, cfg, engine="channel",
                        inject=bench.InjectedError(depol_per_pulse=1e-3))
    assert doc["fit"] == bench.fit_rb(data)
    assert doc["config"]["interleaved"] is None
    rows = (tmp_path / "plot.csv").read_text().splitlines()[1:]
    assert rows == [f"{d['N']},{d['identity_mean']!r},{d['flip_mean']!r}"
                    for d in doc["per_depth"]]


def test_benchmarking_binds_nothing_from_calibration():
    # the rotation map (pairs_for_axis, solve_exchange_for_rotation) and the
    # pair order live in rotations and device; RB does not need calibration
    import ast
    import inspect

    from aeonsim import calibration

    tree = ast.parse(inspect.getsource(bench))
    imported = [
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
         for alias in node.names]
    assert not any(m and m.endswith("calibration") for m in imported)
    assert not [
        name for name, obj in vars(bench).items()
        if obj is calibration or getattr(obj, "__module__", None) == calibration.__name__
    ]


# ---------------------------------------------------------------------------
# Stacked fit Jacobians: each stacked row is the per-point residual, bit for
# bit, so the fits take the iterates of one residual call per column


def _oscillation_resid(t, y):
    """The oscillation model one point at a time."""
    def resid(x):
        b, a, w, ph, log_g = x
        damp = np.exp(-np.minimum(t**2 * math.exp(min(log_g, 700.0)), 700.0))
        return b + a * np.cos(w * t + ph) * damp - y
    return resid


def _decay_resid(depths, y, with_offset):
    """The RB decay model one point at a time."""
    depths = np.asarray(depths, dtype=float)
    if with_offset:
        return lambda x: x[0] + x[1] * np.clip(x[2], 0.0, 1.05) ** depths - y
    return lambda x: x[0] * np.clip(x[1], 0.0, 1.0) ** depths - y


# the unpatched rule, which the spies below and the row checks call
TWO_POINT = fitting.two_point


def _per_point(fun):
    """A per-point residual function as a stacked model: one call per row."""
    return lambda points: np.array([fun(x) for x in points], dtype=float)


def _spy_two_point(monkeypatch, oracles=None):
    """Record the stacked models the multi-start driver hands to two_point;
    with ``oracles``, fit through the i-th oracle, one point at a time,
    instead."""
    seen = []

    def spy(stacked):
        seen.append(stacked)
        if oracles is not None:
            return TWO_POINT(_per_point(oracles[len(seen) - 1]))
        return TWO_POINT(stacked)

    monkeypatch.setattr(fitting, "two_point", spy)
    return seen


def _rabi_curve():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 200e-9, 60)
    p = 0.5 + 0.45 * np.cos(2 * PI * 45e6 * t + 0.3) * np.exp(-((t / 150e-9) ** 2))
    return t, rng.binomial(40, p) / 40


def _rb_curves():
    cfg = bench.RbConfig(depths=(1, 4, 16, 64, 256), n_sequences=6, shots=80, seed=4)
    inject = bench.InjectedError(depol_per_pulse=1e-3, leak_per_pulse=2e-3)
    data = bench.run_rb(None, cfg, engine="channel", inject=inject)
    diff = np.mean(data.surv_identity - data.surv_flip, axis=1)
    total = np.mean(data.surv_identity + data.surv_flip, axis=1)
    return data, [_decay_resid(cfg.depths, diff, False), _decay_resid(cfg.depths, total, True)]


def _assert_rows_and_jacobians_equal(stacked, oracle, points):
    rows = stacked(points)
    for x, row in zip(points, rows):
        residuals, jac = TWO_POINT(stacked)
        assert np.array_equal(row, oracle(x)) and np.array_equal(residuals(x), oracle(x))
        # the stacked Jacobian equals the one built point by point
        assert np.array_equal(jac(x), TWO_POINT(_per_point(oracle))[1](x))


def test_oscillation_stack_rows_equal_the_per_point_residual(monkeypatch):
    t, y = _rabi_curve()
    seen = _spy_two_point(monkeypatch)
    bench.fit_oscillation_decay(t, y)
    (stacked,) = seen
    rng = np.random.default_rng(12)
    points = np.column_stack([
        rng.uniform(0, 1, 40), rng.uniform(-1, 1, 40), rng.uniform(0, 6e8, 40),
        rng.uniform(-PI, PI, 40),
        # the decay rate below, at and above the clamp at exp(700)
        np.concatenate([rng.uniform(-40, 40, 34), [700.0, 699.9999999, 700.0000001, 1e4,
                                                   -1e4, 33.0]]),
    ])
    _assert_rows_and_jacobians_equal(stacked, _oscillation_resid(t, y), points)


def test_decay_stack_rows_equal_the_per_point_residual(monkeypatch):
    data, oracles = _rb_curves()
    seen = _spy_two_point(monkeypatch)
    bench.fit_rb(data)
    assert len(seen) == 2
    rng = np.random.default_rng(13)
    # r clipped at 0, 1 and 1.05, and just inside and outside each clip
    r = np.concatenate([rng.uniform(-0.2, 1.3, 30),
                        [0.0, -1e-17, 1e-17, 1.0, 1.0 - 1e-16, 1.0 + 1e-16, 1.05, 1.0500000001, 2.0]])
    c = rng.uniform(-1, 1, (r.size, 2))
    for stacked, oracle, points in zip(
            seen, oracles, (np.column_stack([c[:, 0], r]), np.column_stack([c, r]))):
        _assert_rows_and_jacobians_equal(stacked, oracle, points)


def test_fits_equal_the_per_row_oracle_fits(monkeypatch):
    t, y = _rabi_curve()
    data, oracles = _rb_curves()
    stacked = (bench.fit_oscillation_decay(t, y), bench.fit_rb(data))
    _spy_two_point(monkeypatch, [_oscillation_resid(t, y)])
    per_row = [bench.fit_oscillation_decay(t, y)]
    _spy_two_point(monkeypatch, oracles)
    per_row.append(bench.fit_rb(data))
    assert stacked == tuple(per_row)
