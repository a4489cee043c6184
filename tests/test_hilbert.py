"""Three-spin Hilbert space: Hamiltonian, encoding, propagation."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from aeonsim import cli
from aeonsim import hilbert as hb
from oracles import (ENCODED, SPIN_OPS, build_hamiltonian, embed_qubit_unitary, initialize_singlet, propagator,
                     qubit_block, sector_blocks)

RNG = np.random.default_rng(1234)


def random_exchange(rng=RNG, scale=80e6):
    j12, j23, j13 = (float(rng.uniform(0, scale)) for _ in range(3))
    return np.array([j12, j13, j23])


def test_spin_operator_algebra():
    for dot in (1, 2, 3):
        sx, sy, sz = SPIN_OPS[dot]
        comm = sx @ sy - sy @ sx
        np.testing.assert_allclose(comm, 1j * sz, atol=1e-14)
        # spin-1/2 Casimir per site: 3/4 on the full space
        np.testing.assert_allclose(
            sx @ sx + sy @ sy + sz @ sz, 0.75 * np.eye(8), atol=1e-14
        )


def test_hamiltonian_hermitian_and_real():
    j = random_exchange()
    h = build_hamiltonian(j, hb.FieldConfig(2e9, (1e5, -3e4, 2e4)))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-6)


def test_uniform_exchange_spectrum_gap():
    # uniform J couples total spin only: quadruplet sits 3*pi*J above the
    # two doublets
    for j_hz in (1e6, 40e6, 173.2e6):
        energies = hb.energy_levels(np.full(3, j_hz), None)
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
        j, fields = inputs[[0, 2, 1]].T, hb.FieldConfig(inputs[3], inputs[4:].T)
        levels = hb.energy_levels(j, fields)
        want = np.linalg.eigvalsh(build_hamiltonian(j, fields))
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(levels - want) <= 1e-14 * scale)
        assert np.all(np.diff(levels, axis=-1) >= 0.0)


def test_zeeman_term_diagonal_product_basis():
    h = build_hamiltonian(np.zeros(3), hb.FieldConfig(1e9, (0.0, 0.0, 0.0)))
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() < 1e-9
    # basis index 0 = all spins up: +3/2 * 2pi * f
    assert h[0, 0] == pytest.approx(1.5 * 2 * math.pi * 1e9, rel=1e-12)


def test_encoded_basis_orthonormal_complete():
    vecs = [ENCODED.zero[0], ENCODED.zero[1], ENCODED.one[0], ENCODED.one[1]]
    vecs += list(ENCODED.leakage)
    mat = np.stack([np.asarray(v) for v in vecs])
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)
    p1 = sum(np.outer(v, v.conj()) for v in ENCODED.one)
    p_sum = ENCODED.p0 + p1 + ENCODED.p_leak
    np.testing.assert_allclose(p_sum, np.eye(8), atol=1e-12)
    # total spin 1/2 on the qubit and 3/2 on the leakage; |0> has its outer
    # pair in a singlet, at m_S = +1/2 and then -1/2
    total = [sum(SPIN_OPS[dot][c] for dot in (1, 2, 3)) for c in range(3)]
    outer = [SPIN_OPS[1][c] + SPIN_OPS[3][c] for c in range(3)]
    s2, s13 = sum(s @ s for s in total), sum(s @ s for s in outer)
    for states, spin in ((ENCODED.zero + ENCODED.one, 0.5), (ENCODED.leakage, 1.5)):
        for v in states:
            np.testing.assert_allclose(s2 @ v, spin * (spin + 1) * v, atol=1e-12)
    for v, m_s in zip(ENCODED.zero, (0.5, -0.5)):
        np.testing.assert_allclose(s13 @ v, 0.0, atol=1e-12)
        np.testing.assert_allclose(total[2] @ v, m_s * v, atol=1e-12)


def test_initial_state_is_singlet_mixture():
    rho = initialize_singlet()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert hb.measure_p0(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(ENCODED.p_leak @ rho).real == pytest.approx(0.0, abs=1e-12)


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
            iso = ENCODED.gauge_sector(m_index)
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
            iso = ENCODED.gauge_sector(m_index)
            sub = iso.conj().T @ u8 @ iso
            overlap = abs(np.trace(sub.conj().T @ u2)) / 2.0
            assert 1.0 - overlap**2 < 1e-9


def random_batch(rng, n, scale=80e6):
    j = np.stack([rng.uniform(0, scale, size=n) for _ in range(3)], axis=-1)[:, [0, 2, 1]]
    fields = hb.FieldConfig(0.5e9, rng.normal(0.0, 2e5, size=(n, 3)))
    return j, fields


def test_stacked_hamiltonian_matches_scalar_build():
    rng = np.random.default_rng(31)
    j, fields = random_batch(rng, 6)
    h = build_hamiltonian(j, fields)
    assert h.shape == (6, 8, 8)
    for k in range(6):
        one = build_hamiltonian(j[k], hb.FieldConfig(0.5e9, tuple(fields.gradients_hz[k])))
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
        u2 = expm(-1j * qubit_block(j[k]) * tau)
        for m_index in (0, 1):
            iso = ENCODED.gauge_sector(m_index)
            overlap = abs(np.trace(u2.conj().T @ (iso.conj().T @ u8[k] @ iso))) / 2.0
            assert 1.0 - overlap**2 < 1e-12


def test_stacked_inputs_are_validated():
    rho = np.stack([initialize_singlet()] * 4)
    np.testing.assert_allclose(hb.measure_p0(rho), np.ones(4), atol=1e-12)
    over = rho.copy()
    over[2] += 0.5 * ENCODED.p0 - 0.25 * ENCODED.p_leak  # trace 1, P0 = 2
    with pytest.raises(ValueError):
        hb.measure_p0(over)


def test_embed_qubit_unitary_block_structure():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(a)
    u8 = embed_qubit_unitary(q)
    np.testing.assert_allclose(u8 @ u8.conj().T, np.eye(8), atol=1e-12)
    # identity on the leakage quadruplet
    for vec in ENCODED.leakage:
        v = np.asarray(vec)
        np.testing.assert_allclose(u8 @ v, v, atol=1e-12)
    # same 2x2 action in both gauge sectors
    for m_index in (0, 1):
        iso = ENCODED.gauge_sector(m_index)
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
        (np.stack(np.broadcast_arrays(3e7, 0.0, j[:, 2]), axis=-1), fields),
        (np.stack(np.broadcast_arrays(j[:, None, 0], 5e6, j[None, :, 2]), axis=-1),
         hb.FieldConfig(1e8, (1e5, 0.0, -2e5))),
        (np.array([1e7, 0.0, 2e7]), hb.FieldConfig()),
        (np.array([-4e6, 7e299, 1e300]), hb.FieldConfig(-1e300, (1e299, 0.0, 3.0))),
        (-j, hb.FieldConfig(-0.5e9, -fields.gradients_hz)),
        (np.array([-4e6, -0.0, -1e6]), hb.FieldConfig(-2e5, (-1e5, 0.0, 3.0))),
    ]
    for jj, ff in cases:
        h = build_hamiltonian(jj, ff)
        blocks = hb._sector_hamiltonian(jj, ff)
        assert blocks.shape == h.shape[:-2] + (2, 3, 3)
        dense = sector_blocks(h)
        assert np.array_equal(blocks, dense.real) and not np.any(dense.imag)
        # signed zeros too: eigh of a block can round differently on -0.0
        assert np.array_equal(np.signbit(blocks), np.signbit(dense.real))


def _states():
    # each state as a density matrix and as its sector vectors
    h8 = embed_qubit_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
    return {
        "singlet": (initialize_singlet(), hb.SINGLET_SECTORS),
        "hadamard singlet": (h8 @ initialize_singlet() @ h8.conj().T,
                             hb.HADAMARD_SECTORS @ hb.SINGLET_SECTORS),
    }


@pytest.mark.parametrize("name", list(_states()))
def test_sector_route_matches_expm_of_the_dense_hamiltonian(name):
    # the sector unitaries are the blocks of expm, and p0 read off the
    # propagated sector vectors is p0 of the propagated state
    rho, vectors = _states()[name]
    rng = np.random.default_rng(43)
    j, fields = random_batch(rng, 12)
    cases = [
        (j, fields, 17e-9),  # noise-like gradients on a uniform field
        (np.zeros((12, 3)), fields, 40e-9),  # J = 0: diagonal, degenerate
        (np.zeros(3), None, 1e-6),  # a zero-field idle
        (np.zeros(3), hb.FieldConfig(), 1e-6),
        (np.array([1e300, 7e299, 3e299]), hb.FieldConfig(2e299, (1e299, 0.0, -5e298)), 1e-300),
        (np.array([[1e300, 0.0, 0.0], [0.0, 0.0, 0.0]]), None, 2e-300),
    ]
    for jj, ff, tau in cases:
        h = build_hamiltonian(jj, ff)
        u = hb.sector_propagator(jj, ff, tau)
        p0 = hb.sector_p0(u @ vectors)
        assert u.shape == h.shape[:-2] + (2, 3, 3) and np.shape(p0) == h.shape[:-2]
        for idx in np.ndindex(h.shape[:-2]):
            full = expm(-1j * h[idx] * tau)
            np.testing.assert_allclose(u[idx], sector_blocks(full), rtol=0, atol=1e-12)
            want = full @ rho @ full.conj().T
            assert abs(np.asarray(p0)[idx] - hb.measure_p0(want)) < 1e-12


def test_singlet_sectors_factor_the_singlet():
    # one read-only vector per sector, (1, 0, -1)/2: the encoded |0>,
    # (1, 0, -1)/sqrt(2), times the square root of its weight 1/2
    singlet = hb.SINGLET_SECTORS
    assert singlet.shape == (2, 3, 1) and not singlet.flags.writeable
    blocks = singlet @ singlet.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(blocks, sector_blocks(initialize_singlet()), rtol=0, atol=1e-16)
    np.testing.assert_allclose(np.abs(singlet[..., 0]), [[0.5, 0, 0.5]] * 2, rtol=0, atol=1e-16)
    # p0 is 1 but for the rounding of the basis amplitude 1/sqrt(2)
    assert 1.0 - hb.sector_p0(singlet) <= np.finfo(float).eps
    # the Hadamard-prepared vectors factor the Hadamard-conjugated singlet
    assert not hb.HADAMARD_SECTORS.flags.writeable
    rho, vectors = _states()["hadamard singlet"]
    blocks = vectors @ vectors.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(blocks, sector_blocks(rho), rtol=0, atol=1e-15)
    assert abs(hb.sector_p0(vectors) - hb.measure_p0(rho)) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sector_propagator_rejects_non_finite_input(bad):
    cases = [
        (np.array([bad, 0.0, 1e7]), None),
        (np.array([[1e7, 0.0, 1e7], [bad, 0.0, 1e7], [2e7, 0.0, 1e7]]), hb.FieldConfig()),
        (np.array([1e7, 0.0, 1e7]), hb.FieldConfig(bad)),
        (np.array([1e7, 0.0, 1e7]), hb.FieldConfig(1e9, np.array([[0.0, bad, 0.0]]))),
        (np.full(3, 1e308), hb.FieldConfig(1e308, (1e308,) * 3)),  # overflows
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j, fields in cases:
            with pytest.raises(ValueError, match="not finite"):
                hb.sector_propagator(j, fields, 1e-9)
        for tau in (bad, -1e-9, np.array([1e-9, bad]), np.array([1e-9, -1e-9])):
            with pytest.raises(ValueError):
                hb.sector_propagator(np.array([[1e7, 0.0, 0.0]] * 2), None, tau)


def test_sector_propagator_takes_a_duration_per_row():
    rng = np.random.default_rng(44)
    j, fields = random_batch(rng, 6)
    taus = rng.uniform(0.0, 50e-9, 6)
    u = hb.sector_propagator(j, fields, taus)
    for k in range(6):
        one = hb.sector_propagator(j[k : k + 1], hb.FieldConfig(0.5e9, fields.gradients_hz[k : k + 1]), taus[k])
        assert np.array_equal(u[k], one[0])


def test_sector_propagator_rejects_an_overflowing_phase():
    # finite couplings and a finite duration whose product overflows
    cases = [
        (np.array([4e7, 0.0, 1e7]), None, 1e300),
        (np.array([[0.0, 0.0, 0.0], [4e7, 0.0, 0.0]]), hb.FieldConfig(), np.array([1e-9, 1e300])),
        (np.zeros(3), hb.FieldConfig(1e9), 1e300),  # a Zeeman phase
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j, fields, tau in cases:
            with pytest.raises(ValueError, match="phase .* is not finite"):
                hb.sector_propagator(j, fields, tau)
        # a zero energy has a zero phase at any finite duration
        u = hb.sector_propagator(np.array([[0.0, 0.0, 0.0], [4e7, 0.0, 0.0]]), None,
                                 np.array([1e300, 1e290]))
        assert np.all(np.isfinite(u))
