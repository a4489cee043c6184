"""Exact dynamics of three exchange-coupled spins-1/2.

States and operators live on the 8-dimensional product space of three
spins.  The product basis is ordered ``|s1 s2 s3>`` with dot 1 as the most
significant bit and spin-up before spin-down, i.e. index
``4*d1 + 2*d2 + d3`` where ``d_i = 0`` for up and ``1`` for down.

Exchange and longitudinal Zeeman terms conserve total S_z, so every
Hamiltonian here is block diagonal on the product states of equal m_S: the
two sectors m_S = +1/2 (indices 1, 2, 4) and -1/2 (3, 5, 6), three states
each, and the single states 0 (m_S = +3/2) and 7 (m_S = -3/2).  One
function, :func:`_sector_hamiltonian`, builds the Hamiltonian: its two
real 3x3 sector blocks.  The pulse kernel propagates in them alone
(:func:`sector_propagator`), starting from the outer-pair singlet's sector
vectors (:data:`SINGLET_SECTORS`): the singlet and the encoded qubit lie
within the sectors, so no state the kernel plays ever populates m_S =
+-3/2.  :func:`energy_levels` adds the two m_S = +-3/2 energies, diagonal
entries in closed form.  The dense 8x8 Hamiltonian, its propagator and
the singlet density matrix live in the tests (``tests/oracles.py``) as the
reference the sector route is checked against.

Exchange couplings are one array of shape ``(..., 3)`` in pair order
:data:`PAIR_ORDER`.  Couplings and fields are given in Hz;
:func:`_sector_hamiltonian` (and :func:`energy_levels` for the m_S =
+-3/2 energies) applies the factor 2*pi, so Hamiltonians are in rad/s
and evolution times in seconds.

The encoded qubit lives in the two total-spin-1/2 doublets: ``|0>`` is the
state whose outer pair (dots 1 and 3) forms a singlet, ``|1>`` the
orthogonal doublet state with the outer pair in a triplet.  The spin
projection m_S = +-1/2 of each doublet is an unobserved gauge degree of
freedom, and the total-spin-3/2 quadruplet is leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

DIM = 8

# The pairs along the last axis of every coupling array: J12, J13, J23
PAIR_ORDER = ("12", "13", "23")

_SZ = np.diag([0.5, -0.5]).astype(complex)
_SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
_SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def _embed(op: np.ndarray, dot: int) -> np.ndarray:
    """Embed a single-spin operator acting on ``dot`` (1, 2 or 3)."""
    ops = [_ID2, _ID2, _ID2]
    ops[dot - 1] = op
    return np.kron(ops[0], np.kron(ops[1], ops[2]))


# Spin operators S_{x,y,z} for each dot, in the product basis.
SPIN_OPS = {
    dot: tuple(_embed(c, dot) for c in (_SX, _SY, _SZ)) for dot in (1, 2, 3)
}


def _dot_product(i: int, j: int) -> np.ndarray:
    return sum(SPIN_OPS[i][c] @ SPIN_OPS[j][c] for c in range(3))


@dataclass(frozen=True)
class FieldConfig:
    """Magnetic field environment.

    Attributes:
        f_uniform_hz: uniform Zeeman splitting in Hz.
        gradients_hz: per-dot deviations ``b_i`` from the uniform field, Hz;
            a batch of them is an array of shape ``(..., 3)``.
    """

    f_uniform_hz: float = 0.0
    gradients_hz: tuple[float, float, float] = (0.0, 0.0, 0.0)


# Product-basis indices of the m_S = +1/2 and -1/2 sectors
SECTORS = np.array([[1, 2, 4], [3, 5, 6]])


def sector_blocks(op: np.ndarray) -> np.ndarray:
    """The m_S = +1/2 and -1/2 blocks of ``(..., 8, 8)`` operators on the
    product states :data:`SECTORS`, shape ``(..., 2, 3, 3)``."""
    return np.asarray(op)[..., SECTORS[:, :, None], SECTORS[:, None, :]]


# The sector blocks of each exchange and Zeeman term, where every term is real
_BLOCK_EXCHANGE = {p: sector_blocks(_dot_product(int(p[0]), int(p[1]))).real
                   for p in PAIR_ORDER}
_BLOCK_ZEEMAN = {dot: sector_blocks(SPIN_OPS[dot][2]).real for dot in (1, 2, 3)}


def _sector_hamiltonian(j, fields: FieldConfig | None) -> np.ndarray:
    """The m_S = +1/2 and -1/2 blocks of the three-spin Hamiltonian (rad/s),

        H = sum_pairs 2*pi*J_ij S_i.S_j + sum_i 2*pi*(f_B + b_i) S_z,i,

    on the product states :data:`SECTORS`, the exchange terms summed first
    (J12, then J23, then J13) and then the Zeeman term of each dot: real,
    shape ``batch + (2, 3, 3)``.  The couplings ``j`` (Hz) are of shape
    ``(..., 3)`` in pair order; ``fields`` None is zero field, and per-dot
    gradients of shape ``(..., 3)`` describe a batch.  The batch shape
    broadcasts the couplings' leading shape with the gradients' (``()``
    for one vector of each).

    Raises:
        NonFiniteError: if an entry is not finite.
    """

    def coefficient(x):
        # a scalar or batch of scalars, shaped to scale a stack of blocks
        return np.asarray(x, dtype=float)[..., None, None, None]

    j = np.asarray(j, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        h = 2.0 * np.pi * (coefficient(j[..., 0]) * _BLOCK_EXCHANGE["12"]
                           + coefficient(j[..., 2]) * _BLOCK_EXCHANGE["23"]
                           + coefficient(j[..., 1]) * _BLOCK_EXCHANGE["13"])
        if fields is not None:
            b = np.asarray(fields.gradients_hz, dtype=float)
            for k, dot in enumerate((1, 2, 3)):
                h = h + 2.0 * np.pi * coefficient(fields.f_uniform_hz + b[..., k]) * _BLOCK_ZEEMAN[dot]
    if not np.all(np.isfinite(h)):
        raise NonFiniteError("Hamiltonian is not finite")
    return h


def energy_levels(j, fields: FieldConfig | None) -> np.ndarray:
    """The eight energies (rad/s) of the Hamiltonian, ascending, shape
    ``batch + (8,)``: the eigenvalues of its two sector blocks, and its
    m_S = +-3/2 diagonal entries 2*pi*[(J12 + J23 + J13)/4 +- (3 f_B + b1
    + b2 + b3)/2].

    Raises:
        NonFiniteError: if a Hamiltonian entry or a level is not finite.
    """
    blocks = np.linalg.eigvalsh(_sector_hamiltonian(j, fields))
    fields = FieldConfig() if fields is None else fields
    j, b = np.asarray(j, dtype=float), np.asarray(fields.gradients_hz, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        exchange = (j[..., 0] + j[..., 2] + j[..., 1]) / 4.0
        zeeman = (3.0 * fields.f_uniform_hz + b[..., 0] + b[..., 1] + b[..., 2]) / 2.0
        stretched = 2.0 * np.pi * (exchange[..., None] + np.array([1.0, -1.0]) * zeeman[..., None])
    levels = np.concatenate([blocks.reshape(blocks.shape[:-2] + (6,)), stretched], axis=-1)
    if not np.all(np.isfinite(levels)):
        raise NonFiniteError("energy level is not finite")
    return np.sort(levels, axis=-1)


def sector_propagator(j, fields: FieldConfig | None, tau_s) -> np.ndarray:
    """Unitaries exp(-i H tau) on the m_S = +1/2 and -1/2 sectors, from one
    real ``eigh`` of the whole stack of sector blocks.

    Args:
        j, fields: couplings and fields as for :func:`_sector_hamiltonian`.
        tau_s: durations in seconds, finite and non-negative: one for the
            whole stack, or an array that broadcasts to its batch shape.

    Returns:
        The sector unitaries on the product states :data:`SECTORS`, shape
        ``batch + (2, 3, 3)``.

    Raises:
        ValueError: for a bad duration, and its NonFiniteError for a
            Hamiltonian or phase (block eigenvalue times duration) that is
            not finite.
    """
    tau = np.asarray(tau_s, dtype=float)
    valid = np.isfinite(tau) & (tau >= 0)
    if not np.all(valid):
        raise ValueError(f"evolution time must be finite and non-negative, got {tau[~valid].flat[0]}")
    vals, vecs = np.linalg.eigh(_sector_hamiltonian(j, fields))
    # each phase below is exactly -1j times one of these products
    with np.errstate(over="ignore", invalid="ignore"):
        phases = vals * tau[..., None, None]
    if not np.isfinite(phases).all():
        raise NonFiniteError("evolution phase (energy times duration) is not finite")
    angle = -1j * tau[..., None, None]
    left = vecs * np.exp(vals * angle)[..., None, :]
    # V diag(phases) V^T summed over the three eigenvectors' outer products,
    # where matmul would make one BLAS call per 3x3 matrix
    u = left[..., :, 0, None] * vecs[..., None, :, 0]
    for k in (1, 2):
        u += left[..., :, k, None] * vecs[..., None, :, k]
    return u


def _basis_vector(*indices_amplitudes: tuple[int, float]) -> np.ndarray:
    v = np.zeros(DIM, dtype=complex)
    for idx, amp in indices_amplitudes:
        v[idx] = amp
    return v


def _build_encoded_basis():
    s2 = 1.0 / np.sqrt(2.0)
    s3 = 1.0 / np.sqrt(3.0)
    s6 = 1.0 / np.sqrt(6.0)
    s23 = np.sqrt(2.0 / 3.0)
    # Product-basis indices: 4*d1 + 2*d2 + d3, 0 = up.
    zero_up = _basis_vector((0b001, s2), (0b100, -s2))
    zero_dn = _basis_vector((0b011, s2), (0b110, -s2))
    one_up = _basis_vector((0b010, s23), (0b001, -s6), (0b100, -s6))
    one_dn = _basis_vector((0b011, s6), (0b110, s6), (0b101, -s23))
    quad = [
        _basis_vector((0b000, 1.0)),
        _basis_vector((0b010, s3), (0b001, s3), (0b100, s3)),
        _basis_vector((0b011, s3), (0b110, s3), (0b101, s3)),
        _basis_vector((0b111, 1.0)),
    ]
    return zero_up, zero_dn, one_up, one_dn, quad


@dataclass(frozen=True)
class EncodedBasis:
    """Encoded qubit basis vectors and subspace projectors.

    ``zero``/``one`` hold the two gauge copies (m_S = +1/2 then -1/2) of the
    logical states; ``leakage`` the four quadruplet states.  ``p0`` and
    ``p_leak`` project onto the ``zero`` and ``leakage`` subspaces.
    """

    zero: tuple[np.ndarray, np.ndarray]
    one: tuple[np.ndarray, np.ndarray]
    leakage: tuple[np.ndarray, ...]
    p0: np.ndarray
    p_leak: np.ndarray

    def gauge_sector(self, m_index: int) -> np.ndarray:
        """(8, 2) isometry onto the qubit block of one gauge sector.

        Columns are ``|0, m>`` and ``|1, m>``; ``m_index`` 0 is m_S = +1/2.
        """
        return np.column_stack([self.zero[m_index], self.one[m_index]])


def _projector(vectors) -> np.ndarray:
    p = np.zeros((DIM, DIM), dtype=complex)
    for v in vectors:
        p += np.outer(v, v.conj())
    return p


_Z_UP, _Z_DN, _O_UP, _O_DN, _QUAD = _build_encoded_basis()

ENCODED = EncodedBasis(
    zero=(_Z_UP, _Z_DN),
    one=(_O_UP, _O_DN),
    leakage=tuple(_QUAD),
    p0=_projector([_Z_UP, _Z_DN]),
    p_leak=_projector(_QUAD),
)


def _checked_population(p):
    """Real part of a population, clipped to [0, 1], after checking that it
    lies there within 1e-9 with no imaginary part."""
    bad = (np.abs(p.imag) > 1e-9) | (p.real < -1e-9) | (p.real > 1 + 1e-9)
    if np.any(bad):
        raise ValueError(f"projector expectation out of range: {p[bad][0]}")
    p = np.clip(p.real, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


def measure_p0(rho: np.ndarray):
    """Population of the encoded ``|0>`` subspace (both gauge sectors).

    A single ``(8, 8)`` density matrix gives a float; a ``(..., 8, 8)``
    stack gives an array of its batch shape.

    Raises:
        ValueError: if ``rho`` is not ``(..., 8, 8)``, a trace differs from
            1, or a population is out of range.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected (..., 8, 8) density matrices, got {rho.shape}")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(np.abs(tr.real - 1.0) > 1e-9) or np.any(np.abs(tr.imag) > 1e-9):
        raise ValueError("density matrix trace differs from 1")
    return _checked_population(np.einsum("ij,...ji->...", ENCODED.p0, rho))


# The encoded |0> of each sector on the product states SECTORS
_ZERO_SECTORS = np.stack([ENCODED.zero[m][SECTORS[m]] for m in (0, 1)])

SINGLET_SECTORS = math.sqrt(0.5) * _ZERO_SECTORS[..., None]
"""The sector vectors of the outer-pair singlet, shape ``(2, 3, 1)``: the
preparation leaves dot 2 unpolarized, so the state is the equal mixture of
the encoded ``|0>`` over both gauge sectors, and each vector is one
sector's ``|0>`` times the square root of its weight 1/2, so their outer
products are the state's two sector blocks.  Every
propagator here is block diagonal and the encoded ``|0>`` lies within the
sectors, so :func:`sector_p0` of the propagated vectors is the ``p0`` of
the propagated state.  Read-only."""
SINGLET_SECTORS.flags.writeable = False


def sector_p0(vectors: np.ndarray):
    """Population of the encoded ``|0>`` subspace of sector vectors
    ``(..., 2, 3, k)``, ``k`` vectors per sector whose outer products sum
    to the state's sector blocks (:data:`SINGLET_SECTORS` and its images
    under sector propagators), with the range check and clip of
    :func:`measure_p0`: a float for ``(2, 3, k)``, an array of the batch
    shape otherwise."""
    amplitudes = np.einsum("mi,...mik->...mk", _ZERO_SECTORS.conj(), vectors)
    return _checked_population(
        np.sum(amplitudes.real**2 + amplitudes.imag**2, axis=(-2, -1))
    )


def embed_qubit_unitary(u2: np.ndarray) -> np.ndarray:
    """Lift a 2x2 qubit unitary to the 8-dim space.

    Acts identically on both gauge sectors and as the identity on the
    leakage quadruplet.
    """
    u2 = np.asarray(u2, dtype=complex)
    u8 = ENCODED.p_leak.copy()
    for m in (0, 1):
        iso = ENCODED.gauge_sector(m)
        u8 += iso @ u2 @ iso.conj().T
    return u8

