"""Germ construction, twirled fidelity, peak tracking, closed-loop runs."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative  # least_squares' own rule
from scipy.special import eval_chebyu

from aeonsim import calibration as cal
from aeonsim import cli
from aeonsim import device as dev
from aeonsim import fitting
from aeonsim import rotations as rot
from aeonsim.errors import ConfigError, DetectionError
from aeonsim import hilbert as hb
from oracles import (IDENTITY, build_germ_sequence, compose_sequence, initialize_singlet, inverse,
                     to_unitary, twirl_fidelity)

PI = math.pi


def default_cfg(phi=-PI / 2, theta=PI):
    return cal.GermConfig.for_target(phi, theta)


def perturbed_device(b_factor=1.015, c_shift=0.02):
    d = dev.default_device()
    laws = {
        p: dev.ExchangeLaw(law.a_hz, law.b_per_v * b_factor, law.c + c_shift)
        for p, law in d.laws.items()
    }
    return dataclasses.replace(d, laws=laws, cross=None)


def _unshared_spread_polynomial(m, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise ValueError("spread polynomial argument outside [0, 1]")
    a = np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))
    return np.sin(m * a) ** 2


def _unshared_chebyshev_u(m, x):
    """U_m(x) for x in [-1, 1], one order on its own, the endpoint limits
    assigned by mask."""
    x = np.asarray(x, dtype=float)
    t = np.arccos(x.reshape(-1))
    st = np.sin(t)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = np.sin((m + 1) * t) / st
    ends = st < 1e-9
    val[ends] = (m + 1) * np.sign(np.cos(t[ends])) ** m
    return val.reshape(x.shape)


def _unshared_analytic_fidelity(phi, theta, eta, chi, n_reps, cfg):
    """The surface as it was written before its shared terms: every
    product and both Chebyshev orders evaluated on their own."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    q = cfg.q
    half_chi = 0.5 * chi
    theta_q = q * theta
    ch, sh = np.cos(half_chi), np.sin(half_chi)
    ct, st = np.cos(0.5 * theta_q), np.sin(0.5 * theta_q)
    rx, rz = np.cos(phi), np.sin(phi)
    wc = ch * ct - sh * st * np.cos(phi - eta)
    vx = ch * st * rx + sh * ct * math.cos(eta)
    vy = -sh * st * np.sin(phi - eta)
    vz = ch * st * rz + sh * ct * math.sin(eta)
    sin2_half = 1.0 - wc**2
    alpha = 2.0 * n_reps * q * theta
    sin2_half_alpha = np.sin(0.5 * alpha) ** 2
    s2n = _unshared_spread_polynomial(2 * n_reps, np.clip(sin2_half, 0.0, 1.0))
    u2n1 = _unshared_chebyshev_u(2 * n_reps - 1, wc)
    u4n1 = _unshared_chebyshev_u(4 * n_reps - 1, wc)
    cross_sq = (rx * vz - rz * vx) ** 2 + vy**2
    dot = rx * vx + rz * vz
    bracket = np.cos(alpha) * s2n + cross_sq * sin2_half_alpha * u2n1**2
    term2 = 0.5 * dot * np.sin(alpha) * u4n1
    return 1.0 - (2.0 / 3.0) * (bracket + term2 + sin2_half_alpha)


# ---------------------------------------------------------------------------
# geometry helpers


def test_germ_exponent_selection():
    assert cal.choose_germ_exponent(PI) == (1, 1)
    assert cal.choose_germ_exponent(PI / 2) == (2, 1)
    assert cal.choose_germ_exponent(3 * PI / 2) == (2, 3)
    with pytest.raises(ConfigError):
        cal.choose_germ_exponent(1.0)


def test_pairs_for_axis_wedges():
    assert cal.pairs_for_axis(0.0) == ("12", "13")
    assert cal.pairs_for_axis(PI) == ("13", "23")
    assert cal.pairs_for_axis(-PI / 2) == ("12", "23")
    with pytest.raises(ConfigError):
        cal.pairs_for_axis(PI / 2)  # single-coupling axis


def test_solve_exchange_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(60):
        pairs_set = [("12", "13"), ("13", "23"), ("12", "23")]
        wedges = [(-PI / 6, PI / 2), (PI / 2, 7 * PI / 6), (-5 * PI / 6, -PI / 6)]
        k = rng.integers(0, 3)
        lo, hi = wedges[k]
        phi = float(rng.uniform(lo + 0.02, hi - 0.02))
        phi = (phi + PI) % (2 * PI) - PI
        omega = float(rng.uniform(5e6, 90e6))
        j = cal.solve_exchange_for_rotation(phi, omega, pairs_set[k])
        from aeonsim.hilbert import ExchangeVector

        aa = rot.exchange_to_rotation(
            ExchangeVector(j12=j["12"], j23=j["23"], j13=j["13"]), 1.0 / (2 * PI)
        )
        assert aa.theta == pytest.approx(omega, rel=1e-9)
        assert abs((aa.phi - phi + PI) % (2 * PI) - PI) < 1e-9


def test_solve_exchange_unreachable_axis():
    with pytest.raises(ConfigError):
        cal.solve_exchange_for_rotation(0.0, 1e6, ("12", "23"))


# ---------------------------------------------------------------------------
# germ sequence and net rotation


def test_germ_sequence_layout():
    cfg = default_cfg(theta=PI / 2)  # q = 2
    probe = rot.AxisAngle(cfg.phi_star, cfg.theta_star)
    n = 3
    seq = build_germ_sequence(cfg, probe, n)
    kinds = [k for k, _ in seq]
    assert len(seq) == 4 * cfg.q * n + 2 * n
    assert kinds.count("precal") == 2 * n
    # helper pulses only occur in the angle-amplification half
    assert "precal" not in kinds[-2 * cfg.q * n :]


def test_germ_fast_path_equals_literal_composition():
    rng = np.random.default_rng(6)
    for _ in range(60):
        theta_star = float(rng.choice([PI, PI / 2, 3 * PI / 2]))
        cfg = cal.GermConfig.for_target(float(rng.uniform(-PI, PI)), theta_star)
        n = int(rng.integers(1, 9))
        probe = rot.AxisAngle(
            cfg.phi_star + float(rng.normal(0, 0.25)),
            cfg.theta_star * (1 + float(rng.normal(0, 0.06))),
        )
        seq = build_germ_sequence(cfg, probe, n)
        q_lit = compose_sequence([aa for _, aa in seq])
        q_fast = cal.germ_net_quaternion(cfg, probe.phi, probe.theta, n)
        assert q_fast.shape == (4,)
        assert min(np.abs(q_lit - q_fast).max(), np.abs(q_lit + q_fast).max()) < 1e-9


def test_germ_is_identity_at_calibration_point():
    for theta_star in (PI, PI / 2, 3 * PI / 2):
        cfg = cal.GermConfig.for_target(0.7, theta_star)
        for n in (1, 2, 3, 5, 8, 24):
            w, *v = cal.germ_net_quaternion(cfg, cfg.phi_star, cfg.theta_star, n)
            assert min(abs(float(w) - 1), abs(float(w) + 1)) < 1e-9
            assert np.abs(v).max() < 1e-9


# ---------------------------------------------------------------------------
# twirled fidelity


def test_twirl_of_identity_and_flip():
    assert twirl_fidelity(IDENTITY) == pytest.approx(1.0, abs=1e-12)
    # a pi rotation about y averages to exactly 1/3 over the Cliffords
    r = np.array([0.0, 0.0, 1.0, 0.0])
    assert twirl_fidelity(r) == pytest.approx(1.0 / 3.0, abs=1e-12)


def _dense_twirl(u8):
    """The twirl on the 8-dim space: each Clifford embedded in both gauge
    sectors, survival read as the encoded-|0> population of the singlet."""
    rho0, terms = initialize_singlet(), []
    for el in rot.canonical_clifford_group():
        c8 = hb.embed_qubit_unitary(to_unitary(el.rotation))
        v = c8.conj().T @ u8 @ c8
        terms.append(hb.measure_p0(v @ rho0 @ v.conj().T))
    return float(np.mean(terms))


def test_twirl_eight_dim_agrees_with_rotation_path():
    rng = np.random.default_rng(12)
    for _ in range(5):
        r = rng.normal(size=4)
        r /= np.linalg.norm(r)
        f_rot = twirl_fidelity(r)
        # the physical propagator is the conjugate SU(2) matrix; the twirl
        # cannot tell them apart
        u8 = hb.embed_qubit_unitary(to_unitary(r).conj())
        assert _dense_twirl(u8) == pytest.approx(f_rot, abs=1e-10)


# ---------------------------------------------------------------------------
# special function helpers


def test_spread_polynomial_definition():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(1, 40))
        a = float(rng.uniform(0, PI / 2))
        assert cal._spread(m, math.sin(a) ** 2) == pytest.approx(
            math.sin(m * a) ** 2, abs=1e-12
        )


def test_chebyshev_against_scipy():
    rng = np.random.default_rng(32)
    x = rng.uniform(-1, 1, size=200)
    for m in (1, 2, 7, 31, 96):
        (got,) = cal._chebyshev_u_orders((m,), x)
        np.testing.assert_allclose(got, eval_chebyu(m, x), atol=1e-8)
        # endpoint limits
        ends = cal._chebyshev_u_orders((m,), np.array([1.0, -1.0]))[0]
        assert ends[0] == pytest.approx(m + 1)
        assert ends[1] == pytest.approx((-1) ** m * (m + 1))


def test_shared_chebyshev_kernel_equals_chebyshev_u():
    rng = np.random.default_rng(33)
    # 1.0 and -1.0 take the endpoint limits, where sin t < 1e-9
    inside = np.concatenate([rng.uniform(-1, 1, 300), [1.0, -1.0, 0.0, 1 - 2**-53]])
    for x in (inside, inside.reshape(2, -1, 2), inside[-6:], np.float64(0.3), 1.0, -1.0):
        for orders in ((1, 3), (7, 15), (47, 95)):
            got = cal._chebyshev_u_orders(orders, x)
            assert len(got) == len(orders)
            for m, u in zip(orders, got):
                want = _unshared_chebyshev_u(m, x)
                assert u.shape == want.shape == np.shape(x)
                assert np.array_equal(u, want)
    # a unit quaternion's scalar part rounded one ulp past +-1 is clipped
    # onto the endpoint, where U_m takes its limit (m + 1) (+-1)^m
    for x in (np.array([1.0 + 2**-52, -1.0 - 2**-52]), 1.0 + 2**-52):
        for orders in ((1, 3), (7, 15), (47, 95)):
            for m, u in zip(orders, cal._chebyshev_u_orders(orders, x)):
                limits = np.array([m + 1.0, (-1.0) ** m * (m + 1)])
                assert u.shape == np.shape(x)
                assert np.array_equal(u, limits[: u.size].reshape(u.shape))


# ---------------------------------------------------------------------------
# analytic fidelity surface


def test_analytic_fidelity_frozen_values():
    cfg = default_cfg()
    assert float(
        cal.analytic_fidelity(-1.45, 3.0, cfg.eta, cfg.chi, 6, cfg)
    ) == pytest.approx(0.3385725747235522, abs=1e-12)
    cfg2 = cal.GermConfig.for_target(0.0, PI / 2)
    assert float(
        cal.analytic_fidelity(0.08, 1.62, cfg2.eta, cfg2.chi, 4, cfg2)
    ) == pytest.approx(0.7004591878084505, abs=1e-12)


def test_analytic_fidelity_matches_twirl_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        theta_star = float(rng.choice([PI, PI / 2, 3 * PI / 2]))
        cfg = cal.GermConfig.for_target(float(rng.uniform(-PI, PI)), theta_star)
        n = int(rng.integers(1, 25))
        phi = cfg.phi_star + float(rng.normal(0, 0.3))
        theta = cfg.theta_star * (1 + float(rng.normal(0, 0.1)))
        seq = build_germ_sequence(cfg, rot.AxisAngle(phi, theta), n)
        net = compose_sequence([aa for _, aa in seq])
        f_ref = twirl_fidelity(net)
        f = float(cal.analytic_fidelity(phi, theta, cfg.eta, cfg.chi, n, cfg))
        worst = max(worst, abs(f - f_ref))
    assert worst < 1e-9


def test_analytic_fidelity_equals_unshared_reference():
    rng = np.random.default_rng(14)
    for theta_star, n, k in ((PI, 24, 6), (PI / 2, 5, 3), (3 * PI / 2, 1, 1)):
        cfg = cal.GermConfig.for_target(float(rng.uniform(-PI, PI)), theta_star)
        phi = cfg.phi_star + rng.normal(0, 0.3, (k, 21, 21))
        theta = cfg.theta_star * (1 + rng.normal(0, 0.1, (k, 21, 21)))
        chi = cfg.chi + rng.normal(0, 0.05, (k, 1, 1))
        got = cal.analytic_fidelity(phi, theta, cfg.eta, chi, n, cfg)
        assert got.shape == (k, 21, 21)
        assert np.array_equal(got, _unshared_analytic_fidelity(phi, theta, cfg.eta, chi, n, cfg))
    # floats in, one value out, also at the calibration point
    cfg = default_cfg()
    for phi, theta in ((-1.45, 3.0), (cfg.phi_star, cfg.theta_star)):
        got = cal.analytic_fidelity(phi, theta, cfg.eta, cfg.chi, 6, cfg)
        assert got == _unshared_analytic_fidelity(phi, theta, cfg.eta, cfg.chi, 6, cfg)


def test_fringe_spacing_and_slope_scaling():
    cfg = default_cfg()
    # at theta = theta* the fidelity along phi is 1 - (2/3) sin^2(2N dphi)
    for n in (4, 8):
        dphi = np.linspace(-0.4 / n, 0.4 / n, 4001)
        f = cal.analytic_fidelity(cfg.phi_star + dphi, cfg.theta_star, cfg.eta, cfg.chi, n, cfg)
        expected = 1 - (2.0 / 3.0) * np.sin(2 * n * dphi) ** 2
        np.testing.assert_allclose(f, expected, atol=1e-10)
    # the max slope grows linearly with N: ratio of 8 vs 4 is 2
    slopes = {}
    for n in (4, 8):
        dphi = np.linspace(0, PI / (4 * n), 20001)
        f = cal.analytic_fidelity(cfg.phi_star + dphi, cfg.theta_star, cfg.eta, cfg.chi, n, cfg)
        slopes[n] = np.max(np.abs(np.gradient(f, dphi)))
    assert slopes[8] / slopes[4] == pytest.approx(2.0, rel=1e-3)
    assert slopes[8] == pytest.approx(8 * 4 / 3, rel=1e-3)


def test_helper_axis_error_shifts_phi_only():
    # the map depends on phi - eta: biasing the helper by +e relabels the
    # probe axis by +e while the angle structure stays put
    cfg = default_cfg()
    e = 0.03
    f_ref = float(cal.analytic_fidelity(cfg.phi_star, cfg.theta_star, cfg.eta, cfg.chi, 5, cfg))
    f_shift = float(
        cal.analytic_fidelity(cfg.phi_star + e, cfg.theta_star, cfg.eta + e, cfg.chi, 5, cfg)
    )
    assert f_shift == pytest.approx(f_ref, abs=1e-12)


# ---------------------------------------------------------------------------
# sweeps and peak finding


def test_sweep_shapes():
    d = dev.default_device()
    cfg = default_cfg()
    v = np.linspace(0.070, 0.078, 9)
    fmap = cal.sweep_fidelity(d, cfg, ("12", "23"), v, v, 2)
    assert fmap.f.shape == (9, 9)


def test_sweep_shot_noise_reproducible():
    d = dev.default_device()
    cfg = default_cfg()
    v = np.linspace(0.070, 0.078, 5)
    m1 = cal.sweep_fidelity(d, cfg, ("12", "23"), v, v, 2, shots=20, seed=4)
    m2 = cal.sweep_fidelity(d, cfg, ("12", "23"), v, v, 2, shots=20, seed=4)
    np.testing.assert_array_equal(m1.f, m2.f)
    exact = cal.sweep_fidelity(d, cfg, ("12", "23"), v, v, 2)
    assert np.abs(m1.f - exact.f).max() > 0


def _cell_survivals(d, cfg, pairs, va, vb, n_reps):
    """Per-cell oracle: scalar rotation map, germ composed pulse by pulse,
    then the 24 twirl terms from the quaternion path."""
    v_x = np.full(3, -np.inf)
    v_x[dev.PAIR_ORDER.index(pairs[0])] = va
    v_x[dev.PAIR_ORDER.index(pairs[1])] = vb
    aa = rot.exchange_to_rotation(d.exchange_from_voltages(v_x), d.pulse_s)
    u = compose_sequence(p for _, p in build_germ_sequence(cfg, aa, n_reps))
    terms = []
    for el in rot.canonical_clifford_group():
        net = rot.compose(rot.compose(inverse(el.rotation), u), el.rotation)
        terms.append(net[0] ** 2 + net[3] ** 2)
    assert np.mean(terms) == pytest.approx(twirl_fidelity(u), abs=1e-15)
    return np.clip(terms, 0.0, 1.0)


@pytest.mark.parametrize("phi,pairs", [(-PI / 2, ("12", "23")), (0.0, ("12", "13"))])
def test_sweep_matches_per_cell_oracle(phi, pairs):
    d, cfg = dev.default_device(), default_cfg(phi=phi)
    v1 = np.linspace(0.068, 0.080, 5)
    v2 = np.linspace(0.070, 0.078, 4)
    fmap = cal.sweep_fidelity(d, cfg, pairs, v1, v2, 3)
    want = np.array(
        [[_cell_survivals(d, cfg, pairs, va, vb, 3).mean() for va in v1] for vb in v2]
    )
    assert np.ptp(want) > 0.1  # the window shows contrast
    np.testing.assert_allclose(fmap.f, want, rtol=0, atol=1e-12)


def test_sweep_shots_match_per_term_binomial_loop():
    d, cfg, pairs, shots, seed, n = dev.default_device(), default_cfg(), ("12", "23"), 30, 6, 2
    v1 = np.linspace(0.070, 0.078, 5)
    v2 = np.linspace(0.071, 0.077, 4)
    fmap = cal.sweep_fidelity(d, cfg, pairs, v1, v2, n, shots=shots, seed=seed)
    for r, vb in enumerate(v2):
        for c, va in enumerate(v1):
            surv = _cell_survivals(d, cfg, pairs, va, vb, n)
            rng = dev.rng_stream(seed, n, r, c)
            order = rng.permutation(24)
            est = np.empty(24)
            for k in order:
                est[k] = rng.binomial(shots, surv[k]) / shots
            assert fmap.f[r, c] == est.mean()


def _single_process_sweep(d, cfg, pairs, v1, v2, n_reps, shots, seed):
    """The shot map drawn cell by cell in C order in one loop, as
    sweep_fidelity drew it before the helper process took half the cells."""
    aa = rot.exchange_to_rotation(d.exchange_from_voltages(dev.barrier_grid(pairs, v1, v2)),
                                  cfg.pulse_s)
    q = cal.germ_net_quaternion(cfg, aa.phi, aa.theta, n_reps)
    w, v = q[..., 0], np.ascontiguousarray(q[..., 1:])
    proj = np.einsum("...j,kj->...k", v, cal._clifford_z_columns())
    surv = np.clip(w[..., None] ** 2 + proj**2, 0.0, 1.0)
    rows = surv.reshape(-1, surv.shape[-1])
    orders = np.tile(np.arange(rows.shape[1]), (rows.shape[0], 1))
    draws = np.empty(rows.shape)
    streams = dev.rng_streams(seed, n_reps, shape=surv.shape[:2])
    for order, row, draw, rng in zip(orders, rows, draws, streams):
        rng.shuffle(order)
        draw[:] = rng.binomial(shots, row[order])
    est = np.empty_like(rows)
    np.put_along_axis(est, orders, draws, axis=1)
    return (est.reshape(surv.shape) / shots).mean(axis=-1)


@pytest.mark.parametrize("n", [7, 21, 1])
def test_shot_sweep_equals_the_single_process_loop(n):
    # the helper process draws the first half of the cells, this process
    # the rest (both here on one CPU); the map is the same bytes
    d, cfg, pairs = dev.default_device(), default_cfg(), ("12", "23")
    v1 = np.linspace(0.0725, 0.0745, n)
    v2 = np.linspace(0.0726, 0.0746, n)
    for n_reps, shots, seed in ((2, 30, 6), (16, 200, 2**33 + 1)):
        fmap = cal.sweep_fidelity(d, cfg, pairs, v1, v2, n_reps, shots=shots, seed=seed)
        want = _single_process_sweep(d, cfg, pairs, v1, v2, n_reps, shots, seed)
        assert fmap.f.shape == (n, n)
        assert fmap.f.tobytes() == want.tobytes()


def _fit_problem():
    d, cfg, pairs = dev.default_device(), default_cfg(), ("12", "23")
    fmap = cal.sweep_fidelity(
        d, cfg, pairs, np.linspace(0.0725, 0.0745, 9), np.linspace(0.0726, 0.0746, 7), 4
    )
    laws = d.laws
    x0 = np.array([laws["12"].b_per_v, laws["12"].c, laws["23"].b_per_v, laws["23"].c, cfg.chi])
    return fmap, (laws["12"].a_hz, laws["23"].a_hz), x0


def _surface_pair(fmap, a_scales):
    """The residuals and Jacobian the multi-start driver builds over the
    surface fit's stacked model."""
    return fitting.two_point(functools.partial(cal._surface_residuals, fmap, a_scales))


def test_stacked_map_model_equals_per_row_evaluation():
    fmap, a_scales, x0 = _fit_problem()
    grids = np.meshgrid(fmap.v1, fmap.v2)
    rng = np.random.default_rng(8)
    stack = x0 * (1.0 + 0.01 * rng.standard_normal((6, 5)))
    stack[0] = x0
    stack[1, 1] = stack[1, 3] = 0.0
    stacked = cal._map_model(stack, fmap, a_scales, fmap.cfg.eta)
    assert stacked.shape == (6,) + fmap.f.shape
    for k, params in enumerate(stack):
        row = cal._map_model(params[None], fmap, a_scales, fmap.cfg.eta)[0]
        assert np.array_equal(stacked[k], row)
        # a float chi gives the same map as the stacked array chi
        aa = rot.exchange_to_rotation(
            dev.ExchangeVector(
                j12=a_scales[0] * np.exp(params[0] * grids[0] + params[1]),
                j23=a_scales[1] * np.exp(params[2] * grids[1] + params[3]),
                j13=0.0,
            ),
            fmap.cfg.pulse_s,
        )
        scalar = cal.analytic_fidelity(
            aa.phi, aa.theta, fmap.cfg.eta, float(params[4]), fmap.n_reps, fmap.cfg
        )
        assert np.array_equal(stacked[k], scalar)


def test_fit_jacobian_equals_scipy_two_point_rule():
    fmap, a_scales, x0 = _fit_problem()
    residuals, jac = _surface_pair(fmap, a_scales)
    points = [x0, x0 * np.array([1.01, 1.0, 0.99, 1.0, 1.02]), x0 + np.array([0.0, 0.3, 0.0, -0.2, 0.05])]
    points.append(np.array([x0[0], 0.0, x0[2], -0.0, x0[4]]))  # sign(0) steps forward
    points.append(np.array([x0[0], -0.04, x0[2], 0.03, -0.2]))
    for x in points:
        want = approx_derivative(residuals, x, method="2-point")
        got = jac(x)
        assert got.shape == want.shape == (fmap.f.size, 5)
        assert np.array_equal(got, want)
        assert np.array_equal(residuals(x), (cal._map_model(
            x[None], fmap, a_scales, fmap.cfg.eta)[0] - fmap.f
        ).ravel())


def _counting_model_rows(monkeypatch):
    """Patch the fit's model so each call adds its stack height to a count."""
    rows = [0]
    model = cal._map_model

    def counted(params, *args):
        rows[0] += len(params)
        return model(params, *args)

    monkeypatch.setattr(cal, "_map_model", counted)
    return rows


def test_fit_jacobian_memo_reuses_the_residual(monkeypatch):
    fmap, a_scales, x0 = _fit_problem()
    x, y, z = x0, x0 * np.array([1.01, 1.0, 0.99, 1.0, 1.02]), x0 + 0.01
    want = {}
    for p in (x, z):
        residuals, _ = _surface_pair(fmap, a_scales)
        want[p.tobytes()] = approx_derivative(residuals, p, method="2-point")
    residuals, jac = _surface_pair(fmap, a_scales)
    rows = _counting_model_rows(monkeypatch)
    cases = [
        (x, lambda: residuals(x), 5),  # the Jacobian follows residuals at x
        (z, lambda: residuals(y), 6),  # the last residual call was elsewhere
    ]
    for p, before, n_rows in cases:
        before()
        start = rows[0]
        got = jac(p)
        assert rows[0] - start == n_rows
        assert got.shape == (fmap.f.size, 5)
        assert np.array_equal(got, want[p.tobytes()])


def test_fit_jacobian_memo_survives_caller_mutation():
    fmap, a_scales, x0 = _fit_problem()
    residuals, jac = _surface_pair(fmap, a_scales)
    want = approx_derivative(residuals, x0, method="2-point")
    f = residuals(x0)
    f_want = f.copy()
    f[:] = 0.0  # the memo keeps its own residual
    got = jac(x0)
    assert np.array_equal(got, want)
    got[:] = np.nan  # a Jacobian handed out is the caller's own
    assert np.array_equal(jac(x0), want)
    assert np.array_equal(residuals(x0), f_want)


def test_find_peak_centroid_and_region_choice():
    v = np.linspace(-1, 1, 41)
    xx, yy = np.meshgrid(v, v)
    # two gaussian bumps; the previous-peak hint must pick the nearer one
    f = np.exp(-((xx - 0.5) ** 2 + yy**2) / 0.01)
    f = f + 0.95 * np.exp(-((xx + 0.5) ** 2 + yy**2) / 0.01)
    cfg = default_cfg()
    fmap = cal.FidelityMap(v, v, f, ("12", "23"), 1, cfg, None)
    near_right = cal.find_peak(fmap, previous=(0.4, 0.0))
    assert near_right.v1 == pytest.approx(0.5, abs=0.02)
    near_left = cal.find_peak(fmap, previous=(-0.4, 0.0))
    assert near_left.v1 == pytest.approx(-0.5, abs=0.02)


def test_find_peak_rejects_flat_map():
    v = np.linspace(0, 1, 11)
    fmap = cal.FidelityMap(v, v, np.full((11, 11), 0.7), ("12", "23"), 1, default_cfg(), None)
    with pytest.raises(DetectionError):
        cal.find_peak(fmap, previous=(0.5, 0.5))


# ---------------------------------------------------------------------------
# closed loop


def test_run_calibration_recovers_target():
    d = perturbed_device()
    nominal = dev.default_device().laws
    res = cal.run_calibration(d, -PI / 2, PI, assumed_laws=nominal)
    vf = [res["final"][f"v_x{p}"] for p in res["pairs"]]
    v_x = np.full(3, -np.inf)
    order = {p: i for i, p in enumerate(dev.PAIR_ORDER)}
    for p, vv in zip(res["pairs"], vf):
        v_x[order[p]] = vv
    aa = rot.exchange_to_rotation(d.exchange_from_voltages(v_x), d.pulse_s)
    assert abs((aa.phi + PI / 2 + PI) % (2 * PI) - PI) < 1e-6
    assert abs(aa.theta - PI) < 1e-6
    assert res["fit"]["residual_rms"] < 1e-6
    assert [s["N"] for s in res["stages"]] == [1, 2, 4, 8, 16, 24]
    # windows shrink monotonically
    widths = [s["window"][0][1] - s["window"][0][0] for s in res["stages"]]
    assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))


def test_run_calibration_report_is_stable_json(tmp_path):
    argv = ["calibrate", "--phi-star", repr(-PI / 2), "--theta-star", repr(PI)]
    outs = [tmp_path / f"{k}.json" for k in range(2)]
    for out in outs:
        assert cli.main(argv + ["--out", str(out)]) == 0
    text = outs[0].read_text()
    assert outs[1].read_text() == text
    doc = json.loads(text)
    assert set(doc) == {"target", "pairs", "stages", "fit", "final"}
    assert [set(s) for s in doc["stages"]] == [{"N", "window", "peak_v", "stderr"}] * 6
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    # the artifact is run_calibration's document
    res = cal.run_calibration(dev.default_device(), -PI / 2, PI)
    assert json.loads(json.dumps(res)) == doc


def test_helper_error_transfers_to_fitted_axis():
    d = dev.default_device()
    eps = 0.01
    actual = rot.quaternion(-PI / 2 + PI / 2 + eps, PI)
    res = cal.run_calibration(d, -PI / 2, PI, precal_actual=actual)
    vf = [res["final"][f"v_x{p}"] for p in res["pairs"]]
    v_x = np.full(3, -np.inf)
    order = {p: i for i, p in enumerate(dev.PAIR_ORDER)}
    for p, vv in zip(res["pairs"], vf):
        v_x[order[p]] = vv
    aa_true = rot.exchange_to_rotation(d.exchange_from_voltages(v_x), d.pulse_s)
    shift = (res["final"]["phi"] - aa_true.phi + PI) % (2 * PI) - PI
    assert shift == pytest.approx(-eps, abs=0.1 * eps)


# ---------------------------------------------------------------------------
# find_peak's smoothing and region labels: numpy versions of
# scipy.ndimage.gaussian_filter(sigma=1, mode="nearest") and ndimage.label


def test_smooth_equals_scipy_gaussian_filter_bit_for_bit():
    from scipy import ndimage

    rng = np.random.default_rng(60)
    for k in range(3000):
        shape = tuple(rng.integers(1, 40, size=2))
        f = rng.random(shape) * (1e-3, 1.0, 1e3)[k % 3]
        want = ndimage.gaussian_filter(f, sigma=1.0, mode="nearest")
        got = cal._smooth(f)
        assert np.array_equal(got, want), shape
        assert got.flags.c_contiguous


def test_label_equals_scipy_label():
    from scipy import ndimage

    rng = np.random.default_rng(61)
    for k in range(2000):
        shape = tuple(rng.integers(1, 26, size=2))
        mask = rng.random(shape) < (0.2, 0.5, 0.8)[k % 3]
        want, n_want = ndimage.label(mask)
        got, n_got = cal._label(mask)
        assert n_got == n_want and np.array_equal(got, want), shape


def test_cli_import_leaves_scipy_ndimage_unloaded():
    import os
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    src = str(Path(cal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, aeonsim.cli; sys.exit(2 * any(m.startswith('scipy') for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, check=False).returncode == 0
    # commands that fit nothing run with scipy unimportable
    code = (
        "import sys; sys.modules['scipy'] = None; from aeonsim import cli\n"
        "assert cli.main(['spectrum', '--j12', '1e6', '--out', sys.argv[1]]) == 0\n"
        "assert cli.main(['fingerpinch', '--pairs', '12,23', '--v1', '0.05:0.08:4',"
        " '--v2', '0.05:0.08:3', '--hadamard', '--out', sys.argv[1]]) == 0\n"
    )
    # commands that fit run with scipy.optimize unimportable and load
    # neither it nor scipy.linalg
    fit_code = (
        "import sys; sys.modules['scipy.optimize'] = None; from aeonsim import cli\n"
        "assert cli.main(['rabi', '--pair', '12', '--v', '0.0738', '--times', '0:100e-9:30',"
        " '--shots', '50', '--out', sys.argv[1]]) == 0\n"
        "assert cli.main(['calibrate', '--phi-star', '0', '--theta-star', '3.141592653589793',"
        " '--schedule', '1,2', '--grid', '11', '--out', sys.argv[1]]) == 0\n"
        "assert sys.modules.pop('scipy.optimize') is None\n"
        "loaded = [m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.linalg'))]\n"
        "assert not loaded, loaded\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        run = subprocess.run([sys.executable, "-c", code, out], env=env, check=False)
        assert run.returncode == 0
        run = subprocess.run([sys.executable, "-c", fit_code, out], env=env, check=False)
        assert run.returncode == 0
