"""Reference routes that the tests check the package against, each the
plain formula: the dense 8x8 Hamiltonian and its propagator, the singlet
density matrix and the 2x2 qubit block (against the S_z-sector pulse
kernel and ``hilbert.energy_levels``), and the germ's pulse list with its
exact Clifford twirl (against the closed-form fidelity).  No command uses
them.  pytest does not collect this module: its name does not start with
``test_``.
"""

import numpy as np

from aeonsim import hilbert as hb
from aeonsim import rotations as rot

# S_i.S_j per pair, in the product basis
EXCHANGE_TERMS = {
    pair: sum(hb.SPIN_OPS[int(pair[0])][c] @ hb.SPIN_OPS[int(pair[1])][c] for c in range(3))
    for pair in ("12", "23", "13")
}


def build_hamiltonian(j, fields=None):
    """Three-spin Hamiltonian (rad/s) in the 8-dim product basis, shape
    ``batch + (8, 8)``: the terms of ``hilbert._sector_hamiltonian`` over
    the whole matrices, summed in the same order."""

    def coefficient(x):
        return np.asarray(x, dtype=float)[..., None, None]

    h = 2.0 * np.pi * (coefficient(j.j12) * EXCHANGE_TERMS["12"]
                       + coefficient(j.j23) * EXCHANGE_TERMS["23"]
                       + coefficient(j.j13) * EXCHANGE_TERMS["13"])
    if fields is not None:
        b = np.asarray(fields.gradients_hz, dtype=float)
        for k, dot in enumerate((1, 2, 3)):
            h = h + 2.0 * np.pi * coefficient(fields.f_uniform_hz + b[..., k]) * hb.SPIN_OPS[dot][2]
    return h


def propagator(h, tau_s):
    """exp(-i H tau) of a Hermitian ``(..., 8, 8)`` stack, from one eigh."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * tau_s)[..., None, :]) @ np.conj(vecs).swapaxes(-1, -2)


def initialize_singlet():
    """Density matrix of the outer-pair singlet: the equal mixture of the
    encoded ``|0>`` over both gauge sectors."""
    return 0.5 * sum(np.outer(v, v.conj()) for v in hb.ENCODED.zero)


def qubit_block(j):
    """Two-level Hamiltonian (rad/s) on the encoded qubit, -(1/2) * 2*pi *
    [sqrt(3) J_- sigma_x + (J13 - J_+) sigma_z]: :func:`build_hamiltonian`
    at zero field in either gauge sector, up to a multiple of identity."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return -np.pi * (np.sqrt(3.0) * j.j_minus * sx + (j.j13 - j.j_plus) * sz)


def to_unitary(r):
    """SU(2) matrix ``w*I - i*(v . sigma)`` of a Rotation."""
    w = r.w
    x, y, z = r.v
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]], dtype=complex)


def build_germ_sequence(cfg, probe, n_reps):
    """The germ of ``cfg`` as a time-ordered list of ``("probe", probe)``
    and ``("precal", R_eta(chi))`` entries: n_reps times (q probes, the
    helper, q probes, the helper), then n_reps times 2q probes."""
    precal = ("precal", rot.AxisAngle(cfg.eta, cfg.chi))
    ang_block = (("probe", probe),) * cfg.q + (precal,)
    return (ang_block * 2) * n_reps + (("probe", probe),) * (2 * cfg.q * n_reps)


def twirl_fidelity(u):
    """Clifford-twirled survival fidelity of a net rotation, exactly: the
    mean of ``|<0| C_i^dag U C_i |0>|^2`` over the 24 single-qubit
    Cliffords, one quaternion product pair per term."""
    survivals = []
    for el in rot.canonical_clifford_group():
        net = rot.compose(rot.compose(el.rotation.inverse(), u), el.rotation)
        survivals.append(net.w**2 + net.v[2] ** 2)
    return float(np.mean(survivals))
