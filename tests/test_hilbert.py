"""Three-spin Hilbert space: Hamiltonian, encoding, propagation."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from aeonsim import cli
from aeonsim import hilbert as hb
from oracles import build_hamiltonian, initialize_singlet, propagator, qubit_block

RNG = np.random.default_rng(1234)


def random_exchange(rng=RNG, scale=80e6):
    return hb.ExchangeVector(
        j12=float(rng.uniform(0, scale)),
        j23=float(rng.uniform(0, scale)),
        j13=float(rng.uniform(0, scale)),
    )


def test_spin_operator_algebra():
    for dot in (1, 2, 3):
        sx, sy, sz = hb.SPIN_OPS[dot]
        comm = sx @ sy - sy @ sx
        np.testing.assert_allclose(comm, 1j * sz, atol=1e-14)
        # spin-1/2 Casimir per site: 3/4 on the full space
        np.testing.assert_allclose(
            sx @ sx + sy @ sy + sz @ sz, 0.75 * np.eye(hb.DIM), atol=1e-14
        )


def test_hamiltonian_hermitian_and_real():
    j = random_exchange()
    h = build_hamiltonian(j, hb.FieldConfig(2e9, (1e5, -3e4, 2e4)))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-6)


def test_uniform_exchange_spectrum_gap():
    # uniform J couples total spin only: quadruplet sits 3*pi*J above the
    # two doublets
    for j_hz in (1e6, 40e6, 173.2e6):
        energies = hb.energy_levels(hb.ExchangeVector(j_hz, j_hz, j_hz), None)
        gap = energies[4] - energies[3]
        assert gap == pytest.approx(3.0 * math.pi * j_hz, rel=1e-12)
        assert np.ptp(energies[:4]) < 1e-6 * abs(gap)
        assert np.ptp(energies[4:]) < 1e-6 * abs(gap)


def test_energy_levels_match_the_dense_eigvalsh():
    # ascending, and within 1e-14 of the largest |level| of eigvalsh of the
    # dense Hamiltonian: inputs from 1 Hz to 1e9 Hz of either sign with
    # random zeros, then all seven inputs at +-MAX_SPECTRUM_HZ
    rng = np.random.default_rng(45)
    x = 10.0 ** rng.uniform(0, 9, (7, 20000)) * rng.choice([-1.0, 0.0, 1.0], (7, 20000))
    bound = cli.MAX_SPECTRUM_HZ * np.stack(np.meshgrid(*[[-1.0, 1.0]] * 7)).reshape(7, -1)
    for inputs in (x, bound):
        j, fields = hb.ExchangeVector(*inputs[:3]), hb.FieldConfig(inputs[3], inputs[4:].T)
        levels = hb.energy_levels(j, fields)
        want = np.linalg.eigvalsh(build_hamiltonian(j, fields))
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(levels - want) <= 1e-14 * scale)
        assert np.all(np.diff(levels, axis=-1) >= 0.0)


def test_zeeman_term_diagonal_product_basis():
    h = build_hamiltonian(
        hb.ExchangeVector(0, 0, 0), hb.FieldConfig(1e9, (0.0, 0.0, 0.0))
    )
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() < 1e-9
    # basis index 0 = all spins up: +3/2 * 2pi * f
    assert h[0, 0] == pytest.approx(1.5 * 2 * math.pi * 1e9, rel=1e-12)


def test_encoded_basis_orthonormal_complete():
    vecs = [hb.ENCODED.zero[0], hb.ENCODED.zero[1], hb.ENCODED.one[0], hb.ENCODED.one[1]]
    vecs += list(hb.ENCODED.leakage)
    mat = np.stack([np.asarray(v) for v in vecs])
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)
    p1 = sum(np.outer(v, v.conj()) for v in hb.ENCODED.one)
    p_sum = hb.ENCODED.p0 + p1 + hb.ENCODED.p_leak
    np.testing.assert_allclose(p_sum, np.eye(8), atol=1e-12)


def test_initial_state_is_singlet_mixture():
    rho = initialize_singlet()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert hb.measure_p0(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(hb.ENCODED.p_leak @ rho).real == pytest.approx(0.0, abs=1e-12)


def test_propagator_unitary_and_matches_expm():
    j = random_exchange()
    fields = hb.FieldConfig(0.5e9, (2e5, 0.0, -1e5))
    h = build_hamiltonian(j, fields)
    tau = 17e-9
    u = propagator(h, tau)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
    np.testing.assert_allclose(u, expm(-1j * h * tau), atol=1e-8)


def test_population_requires_density_matrix():
    with pytest.raises(ValueError):
        hb.measure_p0(np.eye(8) * 2.0)


def test_qubit_block_matches_projected_hamiltonian():
    # the encoded qubit block reproduces the full Hamiltonian inside one
    # gauge sector up to a multiple of the identity
    for _ in range(40):
        j = random_exchange()
        h = build_hamiltonian(j)
        blk = qubit_block(j)
        for m_index in (0, 1):
            iso = hb.ENCODED.gauge_sector(m_index)
            proj = iso.conj().T @ h @ iso
            shift = np.trace(proj - blk) / 2.0
            np.testing.assert_allclose(proj - blk, shift * np.eye(2), atol=1e-6)


def test_block_and_full_propagators_agree():
    rng = np.random.default_rng(77)
    for _ in range(25):
        j = random_exchange(rng)
        tau = float(rng.uniform(1e-9, 40e-9))
        u8 = propagator(build_hamiltonian(j), tau)
        u2 = expm(-1j * qubit_block(j) * tau)
        for m_index in (0, 1):
            iso = hb.ENCODED.gauge_sector(m_index)
            sub = iso.conj().T @ u8 @ iso
            overlap = abs(np.trace(sub.conj().T @ u2)) / 2.0
            assert 1.0 - overlap**2 < 1e-9


def random_batch(rng, n, scale=80e6):
    j = hb.ExchangeVector(*(rng.uniform(0, scale, size=n) for _ in range(3)))
    fields = hb.FieldConfig(0.5e9, rng.normal(0.0, 2e5, size=(n, 3)))
    return j, fields


def test_stacked_hamiltonian_matches_scalar_build():
    rng = np.random.default_rng(31)
    j, fields = random_batch(rng, 6)
    h = build_hamiltonian(j, fields)
    assert h.shape == (6, 8, 8)
    for k in range(6):
        one = build_hamiltonian(
            hb.ExchangeVector(float(j.j12[k]), float(j.j23[k]), float(j.j13[k])),
            hb.FieldConfig(0.5e9, tuple(fields.gradients_hz[k])),
        )
        np.testing.assert_array_equal(h[k], one)


def test_stacked_propagator_matches_expm_per_matrix():
    rng = np.random.default_rng(32)
    j, fields = random_batch(rng, 12)
    h = build_hamiltonian(j, fields).reshape(3, 4, 8, 8)
    tau = 17e-9
    u = propagator(h, tau)
    assert u.shape == (3, 4, 8, 8)
    for idx in np.ndindex(3, 4):
        np.testing.assert_allclose(u[idx], expm(-1j * h[idx] * tau), atol=1e-12)


def test_stacked_propagator_matches_qubit_block():
    rng = np.random.default_rng(33)
    j, _ = random_batch(rng, 10)
    tau = 23e-9
    u8 = propagator(build_hamiltonian(j), tau)
    for k in range(10):
        jk = hb.ExchangeVector(float(j.j12[k]), float(j.j23[k]), float(j.j13[k]))
        u2 = expm(-1j * qubit_block(jk) * tau)
        for m_index in (0, 1):
            iso = hb.ENCODED.gauge_sector(m_index)
            overlap = abs(np.trace(u2.conj().T @ (iso.conj().T @ u8[k] @ iso))) / 2.0
            assert 1.0 - overlap**2 < 1e-12


def test_stacked_inputs_are_validated():
    rho = np.stack([initialize_singlet()] * 4)
    np.testing.assert_allclose(hb.measure_p0(rho), np.ones(4), atol=1e-12)
    over = rho.copy()
    over[2] += 0.5 * hb.ENCODED.p0 - 0.25 * hb.ENCODED.p_leak  # trace 1, P0 = 2
    with pytest.raises(ValueError):
        hb.measure_p0(over)


def test_embed_qubit_unitary_block_structure():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(a)
    u8 = hb.embed_qubit_unitary(q)
    np.testing.assert_allclose(u8 @ u8.conj().T, np.eye(8), atol=1e-12)
    # identity on the leakage quadruplet
    for vec in hb.ENCODED.leakage:
        v = np.asarray(vec)
        np.testing.assert_allclose(u8 @ v, v, atol=1e-12)
    # same 2x2 action in both gauge sectors
    for m_index in (0, 1):
        iso = hb.ENCODED.gauge_sector(m_index)
        np.testing.assert_allclose(iso.conj().T @ u8 @ iso, q, atol=1e-12)


# ---------------------------------------------------------------------------
# S_z sectors: the premise of the pulse kernel, and its agreement with the
# dense route

SZ_BLOCKS = ([0], [1, 2, 4], [3, 5, 6], [7])


def test_hamiltonian_is_zero_outside_the_sz_blocks():
    rng = np.random.default_rng(40)
    in_block = np.zeros((8, 8), dtype=bool)
    for block in SZ_BLOCKS:
        in_block[np.ix_(block, block)] = True
    j, fields = random_batch(rng, 50)
    fields = hb.FieldConfig(float(rng.normal(0.0, 1e9)), fields.gradients_hz)
    for h in (build_hamiltonian(j, fields), build_hamiltonian(j)):
        assert np.all(h[:, ~in_block] == 0.0)
        assert np.any(h[:, in_block] != 0.0)
    assert np.array_equal(hb.SECTORS, [SZ_BLOCKS[1], SZ_BLOCKS[2]])


def test_sector_hamiltonian_equals_the_dense_blocks_bit_for_bit():
    rng = np.random.default_rng(41)
    j, fields = random_batch(rng, 7)
    cases = [
        (j, fields),
        (j, None),
        (hb.ExchangeVector(3e7, j.j23, 0.0), fields),
        (hb.ExchangeVector(j.j12[:, None], j.j23[None, :], 5e6), hb.FieldConfig(1e8, (1e5, 0.0, -2e5))),
        (hb.ExchangeVector(1e7, 2e7, 0.0), hb.FieldConfig()),
        (hb.ExchangeVector(-4e6, 1e300, 7e299), hb.FieldConfig(-1e300, (1e299, 0.0, 3.0))),
    ]
    for jj, ff in cases:
        h = build_hamiltonian(jj, ff)
        blocks = hb._sector_hamiltonian(jj, ff)
        assert blocks.shape == h.shape[:-2] + (2, 3, 3)
        dense = hb.sector_blocks(h)
        assert np.array_equal(blocks, dense.real) and not np.any(dense.imag)


def _states():
    # each state as a density matrix and as its sector vectors
    h8 = hb.embed_qubit_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    return {
        "singlet": (initialize_singlet(), hb.SINGLET_SECTORS),
        "hadamard singlet": (h8 @ initialize_singlet() @ h8.conj().T,
                             hb.sector_blocks(h8) @ hb.SINGLET_SECTORS),
    }


@pytest.mark.parametrize("name", list(_states()))
def test_sector_route_matches_expm_of_the_dense_hamiltonian(name):
    # the sector unitaries are the blocks of expm, and p0 read off the
    # propagated sector vectors is p0 of the propagated state
    rho, vectors = _states()[name]
    rng = np.random.default_rng(43)
    j, fields = random_batch(rng, 12)
    zero = np.zeros(12)
    cases = [
        (j, fields, 17e-9),  # noise-like gradients on a uniform field
        (hb.ExchangeVector(zero, zero, zero), fields, 40e-9),  # J = 0: diagonal, degenerate
        (hb.ExchangeVector(0.0, 0.0, 0.0), None, 1e-6),  # a zero-field idle
        (hb.ExchangeVector(0.0, 0.0, 0.0), hb.FieldConfig(), 1e-6),
        (hb.ExchangeVector(1e300, 3e299, 7e299), hb.FieldConfig(2e299, (1e299, 0.0, -5e298)), 1e-300),
        (hb.ExchangeVector(np.array([1e300, 0.0]), 0.0, 0.0), None, 2e-300),
    ]
    for jj, ff, tau in cases:
        h = build_hamiltonian(jj, ff)
        u = hb.sector_propagator(jj, ff, tau)
        p0 = hb.sector_p0(u @ vectors)
        assert u.shape == h.shape[:-2] + (2, 3, 3) and np.shape(p0) == h.shape[:-2]
        for idx in np.ndindex(h.shape[:-2]):
            full = expm(-1j * h[idx] * tau)
            np.testing.assert_allclose(u[idx], hb.sector_blocks(full), rtol=0, atol=1e-12)
            want = full @ rho @ full.conj().T
            assert abs(np.asarray(p0)[idx] - hb.measure_p0(want)) < 1e-12


def test_singlet_sectors_factor_the_singlet():
    # one read-only vector per sector, (1, 0, -1)/2: the encoded |0>,
    # (1, 0, -1)/sqrt(2), times the square root of its weight 1/2
    singlet = hb.SINGLET_SECTORS
    assert singlet.shape == (2, 3, 1) and not singlet.flags.writeable
    blocks = singlet @ singlet.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(blocks, hb.sector_blocks(initialize_singlet()), rtol=0, atol=1e-16)
    np.testing.assert_allclose(np.abs(singlet[..., 0]), [[0.5, 0, 0.5]] * 2, rtol=0, atol=1e-16)
    # p0 is 1 but for the rounding of the basis amplitude 1/sqrt(2)
    assert 1.0 - hb.sector_p0(singlet) <= np.finfo(float).eps
    # the Hadamard-prepared vectors factor the Hadamard-conjugated singlet
    rho, vectors = _states()["hadamard singlet"]
    blocks = vectors @ vectors.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(blocks, hb.sector_blocks(rho), rtol=0, atol=1e-15)
    assert abs(hb.sector_p0(vectors) - hb.measure_p0(rho)) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sector_propagator_rejects_non_finite_input(bad):
    arr = np.array([1e7, bad, 2e7])
    cases = [
        (hb.ExchangeVector(bad, 1e7, 0.0), None),
        (hb.ExchangeVector(arr, 1e7, 0.0), hb.FieldConfig()),
        (hb.ExchangeVector(1e7, 1e7, 0.0), hb.FieldConfig(bad)),
        (hb.ExchangeVector(1e7, 1e7, 0.0), hb.FieldConfig(1e9, np.array([[0.0, bad, 0.0]]))),
        (hb.ExchangeVector(1e308, 1e308, 1e308), hb.FieldConfig(1e308, (1e308,) * 3)),  # overflows
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j, fields in cases:
            with pytest.raises(ValueError, match="not finite"):
                hb.sector_propagator(j, fields, 1e-9)
        for tau in (bad, -1e-9, np.array([1e-9, bad]), np.array([1e-9, -1e-9])):
            with pytest.raises(ValueError):
                hb.sector_propagator(hb.ExchangeVector(np.full(2, 1e7), 0.0, 0.0), None, tau)


def test_sector_propagator_takes_a_duration_per_row():
    rng = np.random.default_rng(44)
    j, fields = random_batch(rng, 6)
    taus = rng.uniform(0.0, 50e-9, 6)
    u = hb.sector_propagator(j, fields, taus)
    for k in range(6):
        jk = hb.ExchangeVector(j.j12[k : k + 1], j.j23[k : k + 1], j.j13[k : k + 1])
        one = hb.sector_propagator(jk, hb.FieldConfig(0.5e9, fields.gradients_hz[k : k + 1]), taus[k])
        assert np.array_equal(u[k], one[0])


def test_sector_propagator_rejects_an_overflowing_phase():
    # finite couplings and a finite duration whose product overflows
    cases = [
        (hb.ExchangeVector(4e7, 1e7, 0.0), None, 1e300),
        (hb.ExchangeVector(np.array([0.0, 4e7]), 0.0, 0.0), hb.FieldConfig(), np.array([1e-9, 1e300])),
        (hb.ExchangeVector(0.0, 0.0, 0.0), hb.FieldConfig(1e9), 1e300),  # a Zeeman phase
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j, fields, tau in cases:
            with pytest.raises(ValueError, match="phase .* is not finite"):
                hb.sector_propagator(j, fields, tau)
        # a zero energy has a zero phase at any finite duration
        u = hb.sector_propagator(hb.ExchangeVector(np.array([0.0, 4e7]), 0.0, 0.0), None,
                                 np.array([1e300, 1e290]))
        assert np.all(np.isfinite(u))
