"""Code that the tests use and no command runs: reference routes, each the
plain formula, and the dense basis that ``aeonsim.hilbert`` never builds.

- The 8-dim product space of three spins, built here from Kronecker
  products and apart from the src sector constants: the spin operators
  :data:`SPIN_OPS`, the encoded basis :data:`ENCODED` (``|0>``, ``|1>``
  per gauge sector, the quadruplet, and the projectors ``p0`` and
  ``p_leak``), :func:`sector_blocks` and :func:`embed_qubit_unitary`.
- On it, the dense 8x8 Hamiltonian and its propagator, and the singlet
  density matrix.
- The 2x2 qubit block, the germ's pulse list with its exact Clifford
  twirl, and the average infidelity of the device's Clifford gates under
  quasi-static noise.
- Helpers on ``(w, x, y, z)`` quaternion arrays beyond
  ``rotations.quaternion``, ``compose`` and ``so3_matrix``, and a
  pure-float product that pins the group's quaternions bit for bit.
- The 1-J Clifford compiler, c07's subject, which calls ``rot.compose``,
  ``rot.canonical_clifford_group`` and ``_dot3`` through their modules, so
  that tests can swap them.

pytest does not collect this module.
"""

import dataclasses
import math

import numpy as np

from aeonsim import benchmarking as bench
from aeonsim import hilbert as hb
from aeonsim import rotations as rot
from aeonsim.errors import ProtocolError

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]).astype(complex))


def _on_dot(op, dot):
    """A one-spin operator on ``dot`` in the product basis ``|s1 s2 s3>``:
    dot 1 the most significant factor and up before down, as in
    ``hilbert.SECTORS``."""
    factors = [np.eye(2, dtype=complex)] * 3
    factors[dot - 1] = op
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


# S_{x,y,z} of each dot on the product space
SPIN_OPS = {dot: tuple(_on_dot(0.5 * p, dot) for p in _PAULI) for dot in (1, 2, 3)}

# S_i.S_j per pair, in the product basis
EXCHANGE_TERMS = {
    pair: sum(SPIN_OPS[int(pair[0])][c] @ SPIN_OPS[int(pair[1])][c] for c in range(3))
    for pair in ("12", "23", "13")
}


def _ket(spins: str) -> np.ndarray:
    """Product state of three spins, e.g. ``_ket("udu")``, dot 1 first."""
    spin = {"u": np.array([1.0, 0.0]), "d": np.array([0.0, 1.0])}
    return np.kron(np.kron(spin[spins[0]], spin[spins[1]]), spin[spins[2]]).astype(complex)


@dataclasses.dataclass(frozen=True)
class EncodedBasis:
    """The encoded qubit on the product space: ``zero`` and ``one`` hold the
    gauge copies m_S = +1/2 then -1/2 of ``|0>`` (the outer pair in a
    singlet) and ``|1>`` (the other total-spin-1/2 doublet), ``leakage``
    the four quadruplet states; ``p0`` and ``p_leak`` project onto the
    ``zero`` and ``leakage`` spans."""

    zero: tuple
    one: tuple
    leakage: tuple

    @property
    def p0(self):
        return sum(np.outer(v, v.conj()) for v in self.zero)

    @property
    def p_leak(self):
        return sum(np.outer(v, v.conj()) for v in self.leakage)

    def gauge_sector(self, m_index: int) -> np.ndarray:
        """(8, 2) isometry onto the qubit block of one gauge sector, columns
        ``|0, m>`` and ``|1, m>``; ``m_index`` 0 is m_S = +1/2."""
        return np.column_stack([self.zero[m_index], self.one[m_index]])


ENCODED = EncodedBasis(
    zero=((_ket("uud") - _ket("duu")) / math.sqrt(2.0), (_ket("udd") - _ket("ddu")) / math.sqrt(2.0)),
    one=((2.0 * _ket("udu") - _ket("uud") - _ket("duu")) / math.sqrt(6.0),
         (_ket("udd") + _ket("ddu") - 2.0 * _ket("dud")) / math.sqrt(6.0)),
    leakage=(_ket("uuu"), (_ket("uud") + _ket("udu") + _ket("duu")) / math.sqrt(3.0),
             (_ket("udd") + _ket("dud") + _ket("ddu")) / math.sqrt(3.0), _ket("ddd")),
)


def sector_blocks(op):
    """The m_S = +1/2 and -1/2 blocks of ``(..., 8, 8)`` operators on the
    product states ``hilbert.SECTORS``, shape ``(..., 2, 3, 3)``."""
    return np.asarray(op)[..., hb.SECTORS[:, :, None], hb.SECTORS[:, None, :]]


def embed_qubit_unitary(u2):
    """A 2x2 qubit unitary on the 8-dim space: the same in both gauge
    sectors and the identity on the quadruplet."""
    u8 = ENCODED.p_leak
    for m in (0, 1):
        iso = ENCODED.gauge_sector(m)
        u8 = u8 + iso @ np.asarray(u2, dtype=complex) @ iso.conj().T
    return u8


def build_hamiltonian(j, fields=None):
    """Three-spin Hamiltonian (rad/s) in the 8-dim product basis, shape
    ``batch + (8, 8)``, for couplings ``j`` of shape ``(..., 3)`` in pair
    order: the terms of ``hilbert._sector_hamiltonian`` over the whole
    matrices, summed in the same order."""

    def coefficient(x):
        return np.asarray(x, dtype=float)[..., None, None]

    j = np.asarray(j, dtype=float)
    h = 2.0 * np.pi * (coefficient(j[..., 0]) * EXCHANGE_TERMS["12"]
                       + coefficient(j[..., 2]) * EXCHANGE_TERMS["23"]
                       + coefficient(j[..., 1]) * EXCHANGE_TERMS["13"])
    if fields is not None:
        b = np.asarray(fields.gradients_hz, dtype=float)
        for k, dot in enumerate((1, 2, 3)):
            h = h + 2.0 * np.pi * coefficient(fields.f_uniform_hz + b[..., k]) * SPIN_OPS[dot][2]
    return h


def propagator(h, tau_s):
    """exp(-i H tau) of a Hermitian ``(..., 8, 8)`` stack, from one eigh."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * tau_s)[..., None, :]) @ np.conj(vecs).swapaxes(-1, -2)


def initialize_singlet():
    """Density matrix of the outer-pair singlet: the equal mixture of the
    encoded ``|0>`` over both gauge sectors."""
    return 0.5 * ENCODED.p0


def qubit_block(j):
    """Two-level Hamiltonian (rad/s) on the encoded qubit, -(1/2) * 2*pi *
    [sqrt(3) J_- sigma_x + (J13 - J_+) sigma_z] with J_+- = (J12 +- J23) / 2,
    for couplings (J12, J13, J23): :func:`build_hamiltonian` at zero field
    in either gauge sector, up to a multiple of identity."""
    j12, j13, j23 = np.moveaxis(np.asarray(j, dtype=float), -1, 0)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return -np.pi * (np.sqrt(3.0) * (0.5 * (j12 - j23)) * sx + (j13 - 0.5 * (j12 + j23)) * sz)


def to_unitary(q):
    """SU(2) matrix ``w*I - i*((x, y, z) . sigma)`` of a rotation."""
    w, x, y, z = q
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
        net = rot.compose(rot.compose(inverse(el.rotation), u), el.rotation)
        survivals.append(net[0] ** 2 + net[3] ** 2)
    return float(np.mean(survivals))


def clifford_infidelity(device, n_draws: int, seed: int = 0) -> float:
    """Average gate infidelity ``r = 1 - F`` of the Cliffords that device
    RB plays, under ``n_draws`` quasi-static noise draws of
    ``device.noise`` (one draw held over a whole Clifford).

    Each Clifford's pulses (:func:`benchmarking.realize_pulse`) are
    composed from the kernel's sector propagators
    (``DeviceModel._propagators``), with a draw and without one.  ``V`` is
    the encoded 2x2 block of ``U0^dag Un`` in one gauge sector, and ``F =
    (|Tr V|^2 + Tr V^dag V) / 6`` its average gate fidelity, leakage out of
    the block included; ``F`` is averaged over the draws, the 24 Cliffords
    and both sectors.  The draws are standard normals from
    ``default_rng(seed)`` scaled by ``NoiseConfig.sigmas``.
    """
    iso = np.stack([ENCODED.gauge_sector(m)[hb.SECTORS[m]] for m in (0, 1)])
    z = np.random.default_rng(seed).standard_normal((n_draws, 9)) * device.noise.sigmas
    fidelity = []
    for el in rot.canonical_clifford_group():
        pulses = [bench.realize_pulse(device, aa) for aa in el.decomposition]

        def played(z):
            u = np.broadcast_to(np.eye(3), (len(z), 2, 3, 3))
            for p in pulses:
                u = device._propagators(np.add(p.v_x, z[:, 3:6]), p.duration_s, z[:, :3],
                                        z[:, 6:], False) @ u
            return u

        v = np.einsum("mia,mji,nmjk,mkb->nmab", iso.conj(), played(np.zeros((1, 9)))[0].conj(),
                      played(z), iso)
        fidelity.append((abs(np.trace(v, axis1=-2, axis2=-1)) ** 2
                         + np.sum(abs(v) ** 2, axis=(-2, -1))) / 6.0)
    return 1.0 - float(np.mean(fidelity))


IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def about(axis, theta: float):
    """Rotation by ``theta`` about an arbitrary unit 3-vector."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.array([math.cos(theta / 2.0), *(math.sin(theta / 2.0) * axis)])


def angle(q) -> float:
    """Rotation angle in [0, 2*pi)."""
    return 2.0 * math.atan2(math.sqrt(sum(c * c for c in q[1:])), q[0])


def inverse(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def overlap(a, b) -> float:
    """|<q1, q2>| in [0, 1]; equals 1 iff same rotation up to phase."""
    return abs(sum(x * y for x, y in zip(a, b)))


def approx_equal(a, b, tol: float = 1e-9) -> bool:
    return 1.0 - overlap(a, b) <= tol


def compose_sequence(pulses):
    """Compose a time-ordered iterable of AxisAngle pulses or rotations."""
    net = IDENTITY
    for p in pulses:
        q = rot.quaternion(p.phi, p.theta) if isinstance(p, rot.AxisAngle) else p
        net = rot.compose(q, net)
    return net


def float_word(pulses) -> tuple[float, float, float, float]:
    """The rotation of a time-ordered word of AxisAngle pulses in Python
    floats: each pulse as ``(cos(theta/2), sin(theta/2) cos phi, 0,
    sin(theta/2) sin phi)`` from ``math``, applied to the identity by the
    quaternion product written out component by component, in the order
    of sums that ``rot.compose`` uses."""
    w1, x1, y1, z1 = 1.0, 0.0, 0.0, 0.0
    for p in pulses:
        s = math.sin(p.theta / 2.0)
        w2, x2, y2, z2 = math.cos(p.theta / 2.0), s * math.cos(p.phi), 0.0, s * math.sin(p.phi)
        w1, x1, y1, z1 = (
            w2 * w1 - (x2 * x1 + y2 * y1 + z2 * z1),
            w2 * x1 + w1 * x2 + (y2 * z1 - z2 * y1),
            w2 * y1 + w1 * y2 + (z2 * x1 - x2 * z1),
            w2 * z1 + w1 * z2 + (x2 * y1 - y2 * x1),
        )
    return w1, x1, y1, z1


def _dot3(a, b) -> float:
    """Dot product of two 3-vectors from plain products and sums, so that
    it does not depend on how a BLAS build rounds ``a @ b``."""
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def _axis_vec(phi: float) -> np.ndarray:
    return np.array([math.cos(phi), 0.0, math.sin(phi)])


def _nontrivial(t: float) -> bool:
    return 1e-9 < t % rot._TWO_PI < rot._TWO_PI - 1e-9


def _three_word_solutions(target, a: np.ndarray, b: np.ndarray):
    """The (alpha, beta, gamma) with R_a(gamma) R_b(beta) R_a(alpha) = target
    up to phase, one per sign of cos(beta/2).  Closed form: the scalar part
    and the component of the vector part along ``a`` fix (alpha+gamma, beta);
    the remaining vector components fix the split of alpha+gamma.
    """
    c = _dot3(a, b)
    e1 = b - c * a
    n1 = np.linalg.norm(e1)
    if n1 < 1e-12:
        return []
    e1 = e1 / n1
    e2 = np.cross(a, e1)
    w, v = target[0], target[1:]
    p = _dot3(v, a)
    s2 = (1.0 - w * w - p * p) / (1.0 - c * c)
    if s2 < -1e-12 or s2 > 1.0 + 1e-12:
        return []
    s_half = math.sqrt(min(1.0, max(0.0, s2)))
    out = []
    for c_sign in (1.0, -1.0):
        c_half = c_sign * math.sqrt(max(0.0, 1.0 - s_half * s_half))
        den = complex(c_half, c * s_half)
        if abs(den) < 1e-15:
            continue
        sigma = 2.0 * np.angle(complex(w, p) / den)
        beta = 2.0 * math.atan2(s_half, c_half)
        if s_half < 1e-9:
            # beta degenerate: word collapses to a pure-a rotation
            out.append((0.0, beta, sigma))
            continue
        m = rot.compose(about(a, -sigma), target)
        b_rot = m[1:] / s_half
        alpha = math.atan2(-_dot3(b_rot, e2) / n1, _dot3(b_rot, e1) / n1)
        gamma = sigma - alpha
        out.append((alpha, beta, gamma))
    return out


def _candidate_words(target, axes_phi: tuple[float, float]):
    """Time-ordered ``(phi, theta)`` pulses of the candidate words for
    ``target``, each axis in turn as ``a`` (the caller's first axis first):
    every a-b-a solution, then every b-a-b-a word whose leading ``R_b(delta)``
    leaves the remainder ``target * R_b(-delta)`` farthest inside the a-b-a
    region.

    The remainder's (scalar, a-component) is ``cos(delta/2) u + sin(delta/2)
    t``, and an a-b-a word exists when its squared length is at least
    ``(a.b)^2``; ``delta = atan2(2 u.t, |u|^2 - |t|^2)`` maximises it.
    """
    w, v = target[0], target[1:]
    for phi_a, phi_b in (axes_phi, axes_phi[::-1]):
        a, b = _axis_vec(phi_a), _axis_vec(phi_b)
        for alpha, beta, gamma in _three_word_solutions(target, a, b):
            yield (phi_a, alpha), (phi_b, beta), (phi_a, gamma)
        # (scalar, a-component) pairs, padded to 3-vectors for _dot3
        u = (w, _dot3(v, a), 0.0)
        t = (_dot3(v, b), -w * _dot3(a, b) - _dot3(np.cross(v, b), a), 0.0)
        delta = math.atan2(2.0 * _dot3(u, t), _dot3(u, u) - _dot3(t, t))
        rest = rot.compose(target, about(b, -delta))
        for alpha, beta, gamma in _three_word_solutions(rest, a, b):
            yield (phi_b, delta), (phi_a, alpha), (phi_b, beta), (phi_a, gamma)


def decompose_rotation(target, axes_phi: tuple[float, float]):
    """Minimal pulse sequence about two fixed xz-plane axes realizing
    ``target`` up to global phase.

    Each candidate word of :func:`_candidate_words` (at most 4 pulses, angles
    in closed form) drops its trivial pulses; the shortest that composes to
    ``target`` within 1e-9 wins, the earliest on a tie.  Pulse angles lie
    in (0, 2*pi).

    Raises:
        ProtocolError: if no candidate composes to ``target``.
    """
    if approx_equal(target, IDENTITY):
        return ()
    best = None
    for pulses in _candidate_words(target, axes_phi):
        word = tuple(rot.AxisAngle(phi, t % rot._TWO_PI) for phi, t in pulses if _nontrivial(t))
        if best is None or len(word) < len(best):
            if approx_equal(compose_sequence(word), target):
                best = word
    if best is None:
        raise ProtocolError(
            f"no pulse decomposition of at most 4 pulses found for target "
            f"rotation (angle {angle(target):.6f})"
        )
    return best


def compile_clifford_group(axes_phi: tuple[float, float]):
    """The 24 Clifford rotations compiled as minimal-length pulse words
    about two single-coupling axes (continuous pulse angles).

    The rotations, their order and tables are the canonical group's; each
    element's ``decomposition`` is :func:`decompose_rotation`'s word, so the
    identity needs 0 pulses and no element more than 4.
    """
    group = rot.canonical_clifford_group()
    return dataclasses.replace(group, elements=tuple(
        dataclasses.replace(el, decomposition=decompose_rotation(el.rotation, axes_phi))
        for el in group
    ))
