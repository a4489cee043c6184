"""Exact dynamics of three exchange-coupled spins-1/2, in the two S_z
sectors that hold the encoded qubit.

The product basis of three spins is ordered ``|s1 s2 s3>`` with dot 1 as
the most significant bit and spin-up before spin-down, i.e. index
``4*d1 + 2*d2 + d3`` where ``d_i = 0`` for up and ``1`` for down.
Exchange and longitudinal Zeeman terms conserve total S_z, so the
Hamiltonian is block diagonal on the product states of equal m_S: the two
sectors m_S = +1/2 (indices 1, 2, 4) and -1/2 (3, 5, 6), three states
each, and the single states 0 (m_S = +3/2) and 7 (m_S = -3/2).

Every state and operator here lives in the two sectors, as ``(2, 3, ...)``
arrays on the product states :data:`SECTORS`; the 8-dimensional space is
never built.  Each sector state has one odd spin (the down spin at m_S =
+1/2, the up spin at -1/2), so its exchange blocks follow from S_i.S_j =
P_ij/2 - 1/4, where the swap P_ij moves the odd spin between dots i and j,
and its Zeeman blocks are diagonals of +-1/2.  One function,
:func:`_sector_hamiltonian`, builds the Hamiltonian's two real 3x3 blocks.
The pulse kernel propagates in them alone (:func:`sector_propagator`),
starting from the outer-pair singlet's sector vectors
(:data:`SINGLET_SECTORS`): the singlet and the encoded qubit lie within
the sectors, so no state the kernel plays ever populates m_S = +-3/2.
:func:`energy_levels` adds the two m_S = +-3/2 energies, diagonal entries
in closed form.  :func:`measure_p0` takes 8x8 density matrices only so
that the benchmark's tracer can keep its binding ``cli.measure_p0``; no
command calls it.  The dense 8x8 spin operators, Hamiltonian, propagator
and encoded basis live in the tests (``tests/oracles.py``), built apart
from this module, as the reference the sector route is checked against.

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

# The dot of each sector state's odd spin: the down spin of |uud>, |udu>,
# |duu> and the up spin of |udd>, |dud>, |ddu>
_ODD_DOT = np.array([[3, 2, 1], [1, 2, 3]])


def _exchange_block(pair: str) -> np.ndarray:
    """S_i.S_j = P_ij/2 - 1/4 on the sectors, shape ``(2, 3, 3)``."""
    i, j = int(pair[0]), int(pair[1])
    swapped = np.where(_ODD_DOT == i, j, np.where(_ODD_DOT == j, i, _ODD_DOT))
    return 0.5 * (_ODD_DOT[:, :, None] == swapped[:, None, :]) - 0.25 * np.eye(3)


def _zeeman_block(dot: int) -> np.ndarray:
    """S_z of ``dot`` on the sectors, shape ``(2, 3, 3)``: +-1/2 on the
    diagonal as the dot is up or down.  Each zero is signed as in the
    Kronecker product of single-spin operators, negative where the dot is
    down in both states, so that ``eigh`` sees the bits of the dense
    Hamiltonian, signed zeros of negative couplings included."""
    s = np.where((_ODD_DOT == dot) == [[True], [False]], -0.5, 0.5)
    return np.maximum(s[:, :, None], s[:, None, :]) * np.eye(3)


# The sector blocks of each exchange and Zeeman term, where every term is real
_BLOCK_EXCHANGE = {p: _exchange_block(p) for p in PAIR_ORDER}
_BLOCK_ZEEMAN = {dot: _zeeman_block(dot) for dot in (1, 2, 3)}


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


_S2, _S3, _S6, _S23 = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(6.0), np.sqrt(2.0 / 3.0)

# The encoded |0> and |1> and the m_S = +-1/2 quadruplet state of each
# sector, on the product states SECTORS: |0> = (|uud> - |duu>)/sqrt(2) and
# (|udd> - |ddu>)/sqrt(2); |1> = (2|udu> - |uud> - |duu>)/sqrt(6) and
# (|udd> + |ddu> - 2|dud>)/sqrt(6); the quadruplet the equal sum
_ZERO_SECTORS = np.array([[_S2, 0.0, -_S2]] * 2, dtype=complex)
_ONE_SECTORS = np.array([[-_S6, _S23, -_S6], [_S6, -_S23, _S6]], dtype=complex)
_QUAD_SECTORS = np.full((2, 3), _S3, dtype=complex)


def _checked_population(p):
    """Real part of a population, clipped to [0, 1], after checking that it
    lies there within 1e-9 with no imaginary part."""
    bad = (np.abs(p.imag) > 1e-9) | (p.real < -1e-9) | (p.real > 1 + 1e-9)
    if np.any(bad):
        raise ValueError(f"projector expectation out of range: {p[bad][0]}")
    p = np.clip(p.real, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


# The projector onto the encoded |0> of both sectors, scattered onto the
# product space for measure_p0
_P0 = np.zeros((DIM, DIM), dtype=complex)
_P0[SECTORS[:, :, None], SECTORS[:, None, :]] = (_ZERO_SECTORS[:, :, None]
                                                 * _ZERO_SECTORS.conj()[:, None, :])


def measure_p0(rho: np.ndarray):
    """Population of the encoded ``|0>`` subspace (both gauge sectors) of
    8x8 density matrices in the product basis.  No command calls it; it
    stays for the benchmark tracer's binding ``cli.measure_p0``.

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
    return _checked_population(np.einsum("ij,...ji->...", _P0, rho))


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

# Each sector's qubit isometry, columns |0> and |1>, and the 2x2 Hadamard
_QUBIT_SECTORS = np.stack([_ZERO_SECTORS, _ONE_SECTORS], axis=-1)
_H2 = (1.0 / math.sqrt(2.0)) * np.array([[1, 1], [1, -1]], dtype=complex)
HADAMARD_SECTORS = (_QUAD_SECTORS[:, :, None] * _QUAD_SECTORS.conj()[:, None, :]
                    + _QUBIT_SECTORS @ _H2 @ _QUBIT_SECTORS.conj().swapaxes(-1, -2))
"""The ideal Hadamard on the encoded qubit, the same in both gauge sectors
and the identity on the quadruplet, as its two sector blocks, shape ``(2,
3, 3)``.  Read-only."""
HADAMARD_SECTORS.flags.writeable = False


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
