"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for a one-line verdict per
criterion; add ``-s`` to see the measured numbers behind each verdict.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from aeonsim import benchmarking as bench
from aeonsim import calibration as cal
from aeonsim import cli
from aeonsim import device as dev
from aeonsim import hilbert as hb
from aeonsim import rotations as rot
from oracles import (approx_equal, build_germ_sequence, build_hamiltonian, compile_clifford_group,
                     compose_sequence, propagator, qubit_block, twirl_fidelity)

PI = math.pi


def wrap(a):
    return (a + PI) % (2.0 * PI) - PI


def perturbed_device(b_factor=1.015, c_shift=0.02):
    """A device whose true exchange laws differ from the nominal ones."""
    d = dev.default_device()
    laws = {
        p: dev.ExchangeLaw(law.a_hz, law.b_per_v * b_factor, law.c + c_shift)
        for p, law in d.laws.items()
    }
    return dataclasses.replace(d, laws=laws, cross=None)


def test_c01_uniform_exchange_gap_and_level_topology():
    t0 = time.perf_counter()
    for f in (20e6, 100e6, 173.2e6):
        e = hb.energy_levels(hb.ExchangeVector(f, f, f), None)
        gap = e[4] - e[3]
        assert gap == pytest.approx(1.5 * 2.0 * PI * f, rel=1e-10)
    # one coupling swept against a fixed 100 MHz partner: the four
    # symmetric levels sit at 2*pi*(J12+J23)/4 and separate from the rest
    # exactly when both couplings are on
    j23 = 100e6
    for j12 in np.linspace(0.0, 200e6, 21):
        e = hb.energy_levels(hb.ExchangeVector(float(j12), j23, 0.0), None)
        e_top = 2.0 * PI * (j12 + j23) / 4.0
        tol = 1e-6 * 2.0 * PI * j23
        at_top = int(np.sum(np.abs(e - e_top) < tol))
        if j12 > 0.0:
            assert at_top == 4
            assert e_top - e[3] > tol
        else:
            assert at_top == 6  # a doublet merges with the top levels
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS c01: gap = (3/2)*2*pi*J to 1e-10 rel; topology ok ({elapsed:.2f} s)")


def test_c02_qubit_block_matches_full_evolution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        j = hb.ExchangeVector(*(float(x) for x in rng.uniform(0, 200e6, 3)))
        tau = float(rng.uniform(1e-9, 40e-9))
        u8 = propagator(build_hamiltonian(j), tau)
        u2 = expm(-1j * qubit_block(j) * tau)
        for m_index in (0, 1):
            iso = hb.ENCODED.gauge_sector(m_index)
            sub = iso.conj().T @ u8 @ iso
            overlap = abs(np.trace(sub.conj().T @ u2)) / 2.0
            worst = max(worst, 1.0 - overlap**2)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"\nPASS c02: 1000 vectors, worst infidelity {worst:.2e} ({elapsed:.2f} s)")


def test_c03_single_coupling_axes_and_anchor_pulse():
    cases = {
        hb.ExchangeVector(60e6, 0, 0): rot.PHI_M,
        hb.ExchangeVector(0, 60e6, 0): rot.PHI_N,
        hb.ExchangeVector(0, 0, 60e6): rot.PHI_Z,
    }
    for j, phi_expected in cases.items():
        aa = rot.exchange_to_rotation(j, 10e-9)
        assert abs(wrap(aa.phi - phi_expected)) <= 1e-12
        axis = np.array([math.cos(aa.phi), 0.0, math.sin(aa.phi)])
        want = np.array([math.cos(phi_expected), 0.0, math.sin(phi_expected)])
        assert np.max(np.abs(axis - want)) <= 1e-12
    aa = rot.exchange_to_rotation(hb.ExchangeVector(50e6, 50e6, 0.0), 10e-9)
    assert abs(wrap(aa.phi + PI / 2)) <= 1e-12  # -z axis
    assert abs(aa.theta - PI) <= 1e-12
    print("\nPASS c03: coupling axes and the 50/50 MHz 10 ns pulse at 1e-12")


def test_c04_analytic_fidelity_matches_clifford_twirl():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        theta_star = float(rng.choice([PI, PI / 2, 3 * PI / 2]))
        cfg = cal.GermConfig.for_target(float(rng.uniform(-PI, PI)), theta_star)
        n = int(rng.integers(1, 25))
        phi = cfg.phi_star + float(rng.normal(0, 0.3))
        theta = cfg.theta_star * (1 + float(rng.normal(0, 0.1)))
        eta = cfg.eta + float(rng.normal(0, 0.2))
        chi = cfg.chi + float(rng.normal(0, 0.2))
        seq = build_germ_sequence(
            cal.GermConfig(cfg.phi_star, cfg.theta_star, cfg.q, cfg.s, eta, chi),
            rot.AxisAngle(phi, theta),
            n,
        )
        net = compose_sequence([aa for _, aa in seq])
        f_ref = twirl_fidelity(net)
        f = float(cal.analytic_fidelity(phi, theta, eta, chi, n, cfg))
        worst = max(worst, abs(f - f_ref))
    assert worst <= 1e-9
    # on target the sequence is the identity and both routes report F = 1
    for theta_star in (PI, PI / 2, 3 * PI / 2):
        cfg = cal.GermConfig.for_target(-PI / 2, theta_star)
        for n in range(1, 25):
            seq = build_germ_sequence(
                cfg, rot.AxisAngle(cfg.phi_star, cfg.theta_star), n
            )
            f_ref = twirl_fidelity(compose_sequence([a for _, a in seq]))
            f = float(
                cal.analytic_fidelity(
                    cfg.phi_star, cfg.theta_star, cfg.eta, cfg.chi, n, cfg
                )
            )
            assert abs(f - 1.0) <= 1e-9
            assert abs(f_ref - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS c04: 1000 points, worst |analytic - twirl| {worst:.2e} "
          f"({elapsed:.2f} s)")


def test_c05_fringe_spacing_and_width_scaling():
    cfg = cal.GermConfig.for_target(-PI / 2, PI)
    widths = {}
    for n in (4, 8, 16):
        dphi = np.linspace(-PI / 4, PI / 4, 40001)
        f = np.asarray(
            cal.analytic_fidelity(
                cfg.phi_star + dphi, cfg.theta_star, cfg.eta, cfg.chi, n, cfg
            )
        )
        # maxima above 0.999 mark the fringe peaks
        interior = (f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]) & (f[1:-1] > 0.999)
        peaks = dphi[1:-1][interior]
        spacing = np.diff(peaks)
        assert np.all(np.abs(spacing - PI / (2 * n)) <= 0.02 * PI / (2 * n))
        # central-peak width at half depth (F = 2/3)
        level = 2.0 / 3.0
        below = np.nonzero(f < level)[0]
        center = len(dphi) // 2
        left = below[below < center].max()
        right = below[below > center].min()

        def cross(i0, i1):
            x0, x1, y0, y1 = dphi[i0], dphi[i1], f[i0], f[i1]
            return x0 + (level - y0) * (x1 - x0) / (y1 - y0)

        widths[n] = cross(right - 1, right) - cross(left, left + 1)
    assert widths[4] / widths[8] == pytest.approx(2.0, rel=0.05)
    assert widths[8] / widths[16] == pytest.approx(2.0, rel=0.05)
    print(f"\nPASS c05: spacing pi/2N within 2%; widths {widths[4]:.4f}/"
          f"{widths[8]:.4f}/{widths[16]:.4f} halve within 5%")


def test_c06_closed_loop_calibration_nine_targets():
    t0 = time.perf_counter()
    d = perturbed_device()
    nominal = dev.default_device().laws
    order = {p: i for i, p in enumerate(dev.PAIR_ORDER)}
    worst_phi = worst_theta = 0.0
    for phi_star in (0.0, PI, -PI / 2):  # +x, -x, -z
        for theta_star in (PI / 2, PI, 3 * PI / 2):
            res = cal.run_calibration(
                d, phi_star, theta_star, assumed_laws=nominal
            )
            v_x = np.full(3, -np.inf)
            for p in res["pairs"]:
                v_x[order[p]] = res["final"][f"v_x{p}"]
            aa = rot.exchange_to_rotation(d.exchange_from_voltages(v_x), d.pulse_s)
            dphi = abs(wrap(aa.phi - phi_star))
            dtheta = abs(aa.theta - theta_star)
            assert dphi <= 1e-3, (phi_star, theta_star, dphi)
            assert dtheta <= 1e-3, (phi_star, theta_star, dtheta)
            worst_phi = max(worst_phi, dphi)
            worst_theta = max(worst_theta, dtheta)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nPASS c06: nine targets, worst |dphi| {worst_phi:.2e}, "
          f"|dtheta| {worst_theta:.2e} rad ({elapsed:.1f} s)")


def test_c07_clifford_group_sizes_and_pulse_counts():
    two_j = rot.canonical_clifford_group()
    assert len(two_j) == 24
    avg2 = rot.avg_pulse_count(two_j)
    assert abs(avg2 - 1.9) <= 0.15
    for axes in ((rot.PHI_Z, rot.PHI_N), (rot.PHI_Z, rot.PHI_M)):
        one_j = compile_clifford_group(axes)
        assert len(one_j) == 24
        avg1 = rot.avg_pulse_count(one_j)
        assert abs(avg1 - 2.7) <= 0.15
        for el in one_j:
            assert approx_equal(compose_sequence([aa for aa in el.decomposition]),
                                el.rotation, 1e-9)
    print(f"\nPASS c07: 24 elements each; avg pulses {avg2:.4f} (2-J), "
          f"{avg1:.4f} (1-J)")


def test_c08_rb_recovers_injected_errors():
    t0 = time.perf_counter()
    # depolarizing per pulse
    recovered = {}
    for eps in (3e-4, 1e-3):
        cfg = bench.RbConfig(
            depths=(1, 2, 4, 8, 16, 32, 64), n_sequences=25, seed=11
        )
        fit = bench.fit_rb(
            bench.run_rb(
                None, cfg, engine="channel",
                inject=bench.InjectedError(depol_per_pulse=eps),
            )
        )
        assert fit["error_per_clifford"] == pytest.approx(
            fit["avg_pulses_per_clifford"] * eps, rel=0.10
        )
        recovered[eps] = fit["error_per_pulse"]
    # leakage per pulse
    leak = 1e-3
    nmax = int(2.5 / (leak * 11 / 6))
    cfg = bench.RbConfig(
        depths=tuple(int(round(x)) for x in np.geomspace(1, nmax, 7)),
        n_sequences=25,
        seed=12,
    )
    fit = bench.fit_rb(
        bench.run_rb(
            None, cfg, engine="channel",
            inject=bench.InjectedError(leak_per_pulse=leak),
        )
    )
    leak_pp = 1.0 - (1.0 - fit["leakage_per_clifford"]) ** (1.0 / fit["avg_pulses_per_clifford"])
    assert leak_pp == pytest.approx(leak, rel=0.15)
    # interleaved excess on one gate
    cfg = bench.RbConfig(depths=(1, 2, 4, 8, 16, 32), n_sequences=20, seed=13)
    out = bench.interleaved_rb(
        None, cfg, rot.AxisAngle(-PI / 2, PI), engine="channel",
        inject=bench.InjectedError(gate_depol=1e-3),
    )
    assert out["gate_error"] == pytest.approx(1e-3, abs=2e-4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nPASS c08: depol {recovered[3e-4]:.2e}/{recovered[1e-3]:.2e}, "
          f"leak {leak_pp:.2e}, interleaved {out['gate_error']:.2e} "
          f"({elapsed:.1f} s)")


def test_c09_helper_error_signatures():
    d = dev.default_device()
    # axis error on the helper pulse moves the recovered axis the other way
    eps = 0.02
    actual = rot.quaternion(-PI / 2 + PI / 2 + eps, PI)
    res = cal.run_calibration(d, -PI / 2, PI, precal_actual=actual)
    order = {p: i for i, p in enumerate(dev.PAIR_ORDER)}
    v_x = np.full(3, -np.inf)
    for p in res["pairs"]:
        v_x[order[p]] = res["final"][f"v_x{p}"]
    aa_true = rot.exchange_to_rotation(d.exchange_from_voltages(v_x), d.pulse_s)
    shift = wrap(res["final"]["phi"] - aa_true.phi)
    assert shift == pytest.approx(-eps, abs=0.1 * eps)
    # angle error on the helper pulse distorts the map but leaves the peak put
    cfg = cal.GermConfig.for_target(-PI / 2, PI)
    pairs = cal.pairs_for_axis(-PI / 2)
    omega = cfg.theta_star / (2 * PI * cfg.pulse_s)
    j = cal.solve_exchange_for_rotation(cfg.phi_star, omega, pairs)
    v = d.voltages_for_exchange(
        hb.ExchangeVector(j.get("12", 0.0), j.get("23", 0.0), j.get("13", 0.0))
    )
    c1, c2 = v[order[pairs[0]]], v[order[pairs[1]]]
    v1 = np.linspace(c1 - 0.002, c1 + 0.002, 21)
    v2 = np.linspace(c2 - 0.002, c2 + 0.002, 21)
    f0 = cal.sweep_fidelity(d, cfg, pairs, v1, v2, 8)
    bent = rot.quaternion(cfg.eta, cfg.chi + 0.2)
    f1 = cal.sweep_fidelity(d, cfg, pairs, v1, v2, 8, precal_actual=bent)
    assert np.max(np.abs(f1.f - f0.f)) > 1e-3  # visibly distorted
    p0 = cal.find_peak(f0, previous=(c1, c2))
    p1 = cal.find_peak(f1, previous=(c1, c2))
    cell = v1[1] - v1[0]
    assert abs(p1.v1 - p0.v1) <= cell
    assert abs(p1.v2 - p0.v2) <= cell
    print(f"\nPASS c09: axis shift {shift:.5f} for eps {eps}; angle-error peak "
          f"shift ({abs(p1.v1 - p0.v1) / cell:.2f}, "
          f"{abs(p1.v2 - p0.v2) / cell:.2f}) cells")


def test_c10_cli_outputs_are_deterministic(tmp_path):
    runs = {
        "spectrum": ["spectrum", "--j12", "60e6", "--j23", "40e6", "--j13", "0"],
        "fingerpinch": ["fingerpinch", "--pairs", "12,23", "--v1",
                        "0.05:0.08:7", "--v2", "0.05:0.08:7"],
        "rabi": ["rabi", "--pair", "12", "--v", "0.0738", "--times",
                 "0:100e-9:40"],
        "calibrate": ["calibrate", "--phi-star", "-1.5707963267948966",
                      "--theta-star", "3.141592653589793", "--schedule",
                      "1,2,4", "--grid", "13", "--seed", "7"],
        "rb": ["rb", "--engine", "device", "--depths", "1,2,4",
               "--sequences", "3", "--shots", "50", "--seed", "7"],
        "irb": ["irb", "--engine", "channel", "--gate-phi",
                "-1.5707963267948966", "--gate-theta", "3.141592653589793",
                "--depths", "1,2,4,8", "--sequences", "5", "--seed", "7"],
    }
    for name, argv in runs.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert cli.main(argv + ["--out", str(a)]) == 0, name
        assert cli.main(argv + ["--out", str(b)]) == 0, name
        assert a.read_bytes() == b.read_bytes(), name
    print("\nPASS c10: all six commands byte-identical on re-run")
