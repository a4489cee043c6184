"""SU(2) rotation algebra on the encoded qubit.

Rotations are unit quaternions ``(w, v)`` identified up to global sign,
mapping to SU(2) as ``U = w*I - i*(v . sigma)``.  A pulse with axis angle
``phi`` (axis in the xz-plane of the Bloch sphere) and rotation angle
``theta`` has ``w = cos(theta/2)`` and ``v = sin(theta/2)*(cos phi, 0,
sin phi)``; composed rotations acquire y-components.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError

# Axis angles phi of the rotations driven by a single exchange coupling:
# J13 alone is +z, J12 alone is 30 degrees below +x, J23 alone its mirror.
PHI_Z = math.pi / 2.0
PHI_M = -math.pi / 6.0
PHI_N = -5.0 * math.pi / 6.0

ONE_J_AXES = {"13": PHI_Z, "12": PHI_M, "23": PHI_N}

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AxisAngle:
    """Axis angle ``phi`` (rad, xz-plane) and rotation angle ``theta`` (rad)."""

    phi: float
    theta: float


@dataclass(frozen=True)
class Rotation:
    """Unit quaternion ``w + v . (i, j, k)``; ``-q`` is the same rotation."""

    w: float
    v: tuple[float, float, float]

    def __post_init__(self):
        n = math.sqrt(self.w**2 + sum(c * c for c in self.v))
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"quaternion norm {n} is not 1")
        if abs(n - 1.0) > 1e-15:
            object.__setattr__(self, "w", self.w / n)
            object.__setattr__(self, "v", tuple(c / n for c in self.v))

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(1.0, (0.0, 0.0, 0.0))

    @staticmethod
    def from_axis_angle(aa: AxisAngle) -> "Rotation":
        s = math.sin(aa.theta / 2.0)
        return Rotation(
            math.cos(aa.theta / 2.0),
            (s * math.cos(aa.phi), 0.0, s * math.sin(aa.phi)),
        )

    @staticmethod
    def about(axis, theta: float) -> "Rotation":
        """Rotation by ``theta`` about an arbitrary unit 3-vector."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        s = math.sin(theta / 2.0)
        return Rotation(math.cos(theta / 2.0), tuple(s * axis))

    @property
    def angle(self) -> float:
        """Rotation angle in [0, 2*pi)."""
        return 2.0 * math.atan2(
            math.sqrt(sum(c * c for c in self.v)), self.w
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.w, tuple(-c for c in self.v))

    def overlap(self, other: "Rotation") -> float:
        """|<q1, q2>| in [0, 1]; equals 1 iff same rotation up to phase."""
        d = self.w * other.w + sum(a * b for a, b in zip(self.v, other.v))
        return abs(d)

    def approx_equal(self, other: "Rotation", tol: float = 1e-9) -> bool:
        return 1.0 - self.overlap(other) <= tol


def exchange_to_rotation(j, tau_s: float) -> AxisAngle:
    """Axis and angle of the rotation driven by an exchange pulse.

    Args:
        j: ExchangeVector (Hz); its couplings may be floats or arrays that
            broadcast to one batch shape.
        tau_s: pulse duration, seconds.

    Returns:
        AxisAngle with ``phi = atan2(J13 - J_+, sqrt(3) J_-)`` and
        ``theta = 2*pi * sqrt(3 J_-^2 + (J13 - J_+)^2) * tau``: floats for
        float couplings, arrays of the batch shape otherwise.  Zero total
        coupling maps to ``(0, 0)``.
    """
    x = math.sqrt(3.0) * j.j_minus
    z = j.j13 - j.j_plus
    if np.ndim(x) == 0 and np.ndim(z) == 0:
        # math.hypot/atan2 and their numpy forms differ in the last bit for
        # some inputs; floats keep the math results that reports carry
        omega_hz = math.hypot(x, z)
        if omega_hz == 0.0:
            return AxisAngle(0.0, 0.0)
        return AxisAngle(math.atan2(z, x), 2.0 * math.pi * omega_hz * tau_s)
    omega_hz = np.hypot(x, z)
    phi = np.where(omega_hz == 0.0, 0.0, np.arctan2(z, x))
    return AxisAngle(phi, 2.0 * math.pi * omega_hz * tau_s)


# Swept-pair wedge per target axis: positive couplings of these two pairs
# reach axis angles strictly between their single-coupling axes.
_WEDGES = (
    (("12", "13"), (-math.pi / 6.0, math.pi / 2.0)),
    (("13", "23"), (math.pi / 2.0, 7.0 * math.pi / 6.0)),
    (("12", "23"), (-5.0 * math.pi / 6.0, -math.pi / 6.0)),
)


def pairs_for_axis(phi: float) -> tuple[str, str]:
    """The two exchange pairs whose positive couplings realize axis ``phi``."""
    for pairs, (lo, hi) in _WEDGES:
        d = (phi - lo) % _TWO_PI
        width = (hi - lo) % _TWO_PI
        if 1e-12 < d < width - 1e-12:
            return pairs
    raise ConfigError(
        f"axis phi={phi:.6f} lies on a single-coupling axis; pick the pair "
        "explicitly"
    )


def solve_exchange_for_rotation(
    phi: float, omega_hz: float, pairs: tuple[str, str]
) -> dict[str, float]:
    """Couplings (Hz) of the two active pairs so the pulse rotates about
    ``phi`` at total rate ``omega_hz``; the third pair stays at zero.

    Raises:
        ConfigError: if the axis is not reachable with non-negative
            couplings of the given pairs.
    """
    x = omega_hz * math.cos(phi)
    z = omega_hz * math.sin(phi)
    active = set(pairs)
    if active == {"12", "23"}:
        j_minus = x / math.sqrt(3.0)
        j_plus = -z
        j = {"12": j_plus + j_minus, "23": j_plus - j_minus, "13": 0.0}
    elif active == {"12", "13"}:
        j12 = 2.0 * x / math.sqrt(3.0)
        j = {"12": j12, "13": z + 0.5 * j12, "23": 0.0}
    elif active == {"13", "23"}:
        j23 = -2.0 * x / math.sqrt(3.0)
        j = {"23": j23, "13": z + 0.5 * j23, "12": 0.0}
    else:
        raise ConfigError(f"unknown pair combination {pairs}")
    for p in pairs:
        if j[p] < -1e-9:
            raise ConfigError(
                f"axis phi={phi:.6f} needs negative J{p}; not reachable with "
                f"pairs {pairs}"
            )
        j[p] = max(0.0, j[p])
    return j


def _product(w1, x1, y1, z1, w2, x2, y2, z2):
    """Components of the quaternion product ``q1 * q2`` (``q2`` applied
    first); floats, or arrays that broadcast."""
    return (
        w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2),
        w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2),
        w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2),
        w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2),
    )


def compose(second: Rotation, first: Rotation) -> Rotation:
    """Rotation equivalent to applying ``first`` then ``second``."""
    w, x, y, z = _product(second.w, *second.v, first.w, *first.v)
    return Rotation(w, (x, y, z))


def quat_multiply(w1, v1, w2, v2):
    """Quaternion product ``q1 * q2`` (``q2`` applied first), vectorized:
    scalar parts ``w`` of shape (...) and vector parts ``v`` of (..., 3)."""
    w, *v = _product(w1, *np.moveaxis(v1, -1, 0), w2, *np.moveaxis(v2, -1, 0))
    return w, np.stack(v, axis=-1)


def compose_sequence(pulses) -> Rotation:
    """Compose a time-ordered iterable of AxisAngle or Rotation."""
    net = Rotation.identity()
    for p in pulses:
        r = Rotation.from_axis_angle(p) if isinstance(p, AxisAngle) else p
        net = compose(r, net)
    return net


def to_unitary(r: Rotation) -> np.ndarray:
    """SU(2) matrix ``w*I - i*(v . sigma)``."""
    w = r.w
    x, y, z = r.v
    return np.array(
        [[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]], dtype=complex
    )


def so3_matrix(r: Rotation) -> np.ndarray:
    """Bloch-sphere action of the rotation as a 3x3 orthogonal matrix."""
    w = r.w
    x, y, z = r.v
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def is_clifford_rotation(r: Rotation, tol: float = 1e-9) -> bool:
    """True if the rotation permutes the signed Pauli axes."""
    m = so3_matrix(r)
    return bool(np.all(np.min(np.abs(m[None, ...] - np.array([-1.0, 0.0, 1.0])[:, None, None]), axis=0) < tol))


@dataclass(frozen=True)
class CliffordElement:
    """One of the 24 single-qubit Clifford rotations.

    ``word`` indexes into the generator list that produced the group (empty
    for the identity); ``decomposition`` is the same word as concrete pulses.
    """

    index: int
    rotation: Rotation
    word: tuple[int, ...]
    decomposition: tuple[AxisAngle, ...]

    @property
    def pulse_count(self) -> int:
        return len(self.decomposition)


def _canonical_key(r: Rotation) -> tuple:
    q = np.array([r.w, *r.v])
    for c in q:
        if abs(c) > 1e-6:
            if c < 0:
                q = -q
            break
    return tuple(np.round(q, 9))


def generate_clifford_group(generators) -> list[CliffordElement]:
    """Breadth-first closure of Clifford generators, up to global phase.

    Args:
        generators: list of (AxisAngle, Rotation) or Rotation entries; each
            must itself be a Clifford rotation.

    Returns:
        The 24 Clifford elements with minimal words (lexicographic
        tie-break over generator index order).

    Raises:
        ProtocolError: if a generator is not Clifford, or the closure does
            not reach exactly 24 elements within word length 8.
    """
    gens: list[tuple[AxisAngle | None, Rotation]] = []
    for g in generators:
        if isinstance(g, Rotation):
            gens.append((None, g))
        else:
            aa, rot = g
            gens.append((aa, rot))
    for i, (_, rot) in enumerate(gens):
        if not is_clifford_rotation(rot):
            raise ProtocolError(
                f"generator {i} is not a Clifford rotation (axis/angle do not "
                f"permute the Pauli axes)"
            )

    identity = Rotation.identity()
    seen = {_canonical_key(identity): (identity, ())}
    frontier = [(identity, ())]
    depth = 0
    while len(seen) < 24 and depth < 8:
        depth += 1
        new_frontier = []
        for base, word in frontier:
            for gi, (_, rot) in enumerate(gens):
                cand = compose(rot, base)
                key = _canonical_key(cand)
                if key not in seen:
                    entry = (cand, word + (gi,))
                    seen[key] = entry
                    new_frontier.append(entry)
        frontier = new_frontier
        if not frontier:
            break
    if len(seen) != 24:
        raise ProtocolError(
            f"generator set does not close into the 24-element Clifford "
            f"group within depth 8 (reached {len(seen)} elements)"
        )

    elements = []
    for idx, (rot, word) in enumerate(seen.values()):
        decomp = []
        for gi in word:
            aa, grot = gens[gi]
            if aa is None:
                aa = _axis_angle_of(grot)
            decomp.append(aa)
        elements.append(CliffordElement(idx, rot, word, tuple(decomp)))
    return elements


def _axis_angle_of(r: Rotation) -> AxisAngle:
    """AxisAngle of an xz-plane rotation (raises if the axis has y)."""
    x, y, z = r.v
    if abs(y) > 1e-9:
        raise ValueError("rotation axis is not in the xz-plane")
    theta = r.angle
    if theta < 1e-12:
        return AxisAngle(0.0, 0.0)
    return AxisAngle(math.atan2(z, x), theta)


def clifford_generators_2j() -> list[tuple[AxisAngle, Rotation]]:
    """The nine calibrated two-coupling pulses: {pi/2, pi, 3pi/2} about
    +x, -x and -z."""
    gens = []
    for phi in (0.0, math.pi, -math.pi / 2.0):
        for theta in (math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0):
            aa = AxisAngle(phi, theta)
            gens.append((aa, Rotation.from_axis_angle(aa)))
    return gens


# ---------------------------------------------------------------------------
# Decomposition over two fixed single-coupling axes


def _dot3(a, b) -> float:
    """Dot product of two 3-vectors from plain products and sums, so that
    it does not depend on how a BLAS build rounds ``a @ b``."""
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def _axis_vec(phi: float) -> np.ndarray:
    return np.array([math.cos(phi), 0.0, math.sin(phi)])


def _norm_angle(t: float) -> float:
    return t % _TWO_PI


def _nontrivial(t: float, eps: float = 1e-9) -> bool:
    t = _norm_angle(t)
    return eps < t < _TWO_PI - eps


def _three_word_solutions(target: Rotation, a: np.ndarray, b: np.ndarray):
    """All (alpha, beta, gamma) with R_a(gamma) R_b(beta) R_a(alpha) = target
    up to phase.  Closed form: the scalar part and the component of the
    vector part along ``a`` fix (alpha+gamma, beta); the remaining vector
    components fix the split of alpha+gamma.
    """
    c = _dot3(a, b)
    e1 = b - c * a
    n1 = np.linalg.norm(e1)
    if n1 < 1e-12:
        return []
    e1 = e1 / n1
    e2 = np.cross(a, e1)
    out = []
    for sgn in (1.0, -1.0):
        w = sgn * target.w
        v = sgn * np.array(target.v)
        p = _dot3(v, a)
        s2 = (1.0 - w * w - p * p) / (1.0 - c * c)
        if s2 < -1e-12 or s2 > 1.0 + 1e-12:
            continue
        s_half = math.sqrt(min(1.0, max(0.0, s2)))
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
            m = compose(
                Rotation.about(a, -sigma), Rotation(w, tuple(v))
            )
            b_rot = np.array(m.v) / s_half
            alpha = math.atan2(-_dot3(b_rot, e2) / n1, _dot3(b_rot, e1) / n1)
            gamma = sigma - alpha
            out.append((alpha, beta, gamma))
    return out


def _try_length(target, axes_phi, length, tol):
    """Words of exactly ``length`` alternating pulses, preferring the
    caller's first axis as the starting pulse."""
    a0, a1 = _axis_vec(axes_phi[0]), _axis_vec(axes_phi[1])
    candidates = []

    def record(pulses):
        word = tuple(AxisAngle(phi, _norm_angle(t)) for phi, t in pulses)
        if all(_nontrivial(aa.theta) for aa in word):
            net = compose_sequence(word)
            if net.approx_equal(target, tol):
                candidates.append(word)

    if length == 1:
        for phi, ax in ((axes_phi[0], a0), (axes_phi[1], a1)):
            v = np.array(target.v)
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                continue
            d = _dot3(v, ax) / nv
            if abs(abs(d) - 1.0) < 1e-9:
                theta = target.angle if d > 0 else _TWO_PI - target.angle
                record([(phi, theta)])
            if candidates:
                return candidates[0]
        return None

    # Alternating solves; (pa, pb) = axis roles with pattern a.b.a
    role_orders = [
        (axes_phi[0], a0, axes_phi[1], a1),
        (axes_phi[1], a1, axes_phi[0], a0),
    ]
    if length == 2:
        for phi_a, a, phi_b, b in role_orders:
            for alpha, beta, gamma in _three_word_solutions(target, a, b):
                if not _nontrivial(alpha):
                    record([(phi_b, beta), (phi_a, gamma)])
                if not _nontrivial(gamma):
                    record([(phi_a, alpha), (phi_b, beta)])
            if candidates:
                return candidates[0]
        return None
    if length == 3:
        for phi_a, a, phi_b, b in role_orders:
            for alpha, beta, gamma in _three_word_solutions(target, a, b):
                record([(phi_a, alpha), (phi_b, beta), (phi_a, gamma)])
            if candidates:
                return candidates[0]
        return None
    if length == 4:
        # One leading pulse delta reduces to the three-word problem; the
        # family is one-parameter, so scan delta on a fixed grid.
        for phi_a, a, phi_b, b in role_orders:
            for delta in np.linspace(0.0, _TWO_PI, 1441)[1:-1]:
                lead = Rotation.about(b, delta)
                residual = compose(target, lead.inverse())
                for alpha, beta, gamma in _three_word_solutions(residual, a, b):
                    record(
                        [
                            (phi_b, delta),
                            (phi_a, alpha),
                            (phi_b, beta),
                            (phi_a, gamma),
                        ]
                    )
                if candidates:
                    return candidates[0]
        return None
    return None


def decompose_rotation(
    target: Rotation,
    axes_phi: tuple[float, float],
    max_pulses: int = 4,
    tol: float = 1e-9,
) -> tuple[AxisAngle, ...]:
    """Minimal pulse sequence about two fixed xz-plane axes realizing
    ``target`` up to global phase.

    Word lengths are searched breadth-first (0, 1, ..., ``max_pulses``) with
    alternating-axis patterns, the caller's first axis preferred as the
    starting pulse; pulse angles are solved in closed form and lie in
    (0, 2*pi).

    Raises:
        ProtocolError: if no decomposition within ``max_pulses`` pulses
            exists at the tolerance.
    """
    if target.approx_equal(Rotation.identity(), tol):
        return ()
    for length in range(1, max_pulses + 1):
        word = _try_length(target, axes_phi, length, tol)
        if word is not None:
            return word
    raise ProtocolError(
        f"no pulse decomposition of length <= {max_pulses} found for target "
        f"rotation (angle {target.angle:.6f})"
    )


def compile_clifford_group(
    axes_phi: tuple[float, float], max_pulses: int = 4
) -> list[CliffordElement]:
    """The 24 Clifford rotations compiled as minimal-length pulse words
    about two single-coupling axes (continuous pulse angles).

    The search is breadth-first over word length, so each element's
    ``decomposition`` has the fewest pulses possible; the identity needs 0.
    """
    group = canonical_clifford_group()
    out = []
    for el in group:
        decomp = decompose_rotation(el.rotation, axes_phi, max_pulses)
        out.append(CliffordElement(el.index, el.rotation, el.word, decomp))
    return out


_CANONICAL: list[CliffordElement] | None = None


def canonical_clifford_group() -> list[CliffordElement]:
    """The 24 Clifford rotations over the nine calibrated two-coupling
    pulses (deterministic indexing, identity first, minimal words)."""
    global _CANONICAL
    if _CANONICAL is None:
        _CANONICAL = generate_clifford_group(clifford_generators_2j())
    return _CANONICAL


def match_element(group, r: Rotation) -> CliffordElement:
    """Group element equal to ``r`` up to global phase.

    Raises:
        ProtocolError: if ``r`` is not in the group (within 1e-6).
    """
    key = _canonical_key(r)
    for el in group:
        if _canonical_key(el.rotation) == key:
            return el
    raise ProtocolError("rotation is not an element of the Clifford group")


FLIP = Rotation.from_axis_angle(AxisAngle(0.0, math.pi))  # pi about x


@dataclass(frozen=True)
class CayleyTables:
    """Multiplication and inversion of a 24-element Clifford group by
    list position.

    ``mul[a, b]`` is the position of ``group[a]`` applied after
    ``group[b]``; ``inv[a]`` that of the inverse of ``group[a]``;
    ``flip_inv[a]`` that of that inverse followed by :data:`FLIP`;
    ``identity`` that of the identity.  The arrays are read-only.
    """

    mul: np.ndarray
    inv: np.ndarray
    flip_inv: np.ndarray
    identity: int


def cayley_tables(group) -> CayleyTables:
    """Tables of a 24-element Clifford group, built on first use and
    cached by the group's quaternions.

    Every product is matched to the element of largest ``|<q, q'>|``.

    Raises:
        ProtocolError: if the group does not have 24 distinct elements, is
            not closed, or lacks the flip.
    """
    q = np.array([[el.rotation.w, *el.rotation.v] for el in group], dtype=float)
    if q.shape != (24, 4):
        raise ProtocolError(f"expected 24 Clifford elements, got {len(q)}")
    return _cayley_tables(q.tobytes())


@functools.lru_cache(maxsize=8)
def _cayley_tables(key: bytes) -> CayleyTables:
    q = np.frombuffer(key).reshape(24, 4)
    w, v = q[:, 0], q[:, 1:]

    def match(qw, qv):
        overlap = np.abs(qw[..., None] * w + qv @ v.T)
        if np.any(np.max(overlap, axis=-1) < 1.0 - 1e-6):
            raise ProtocolError("rotation is not an element of the Clifford group")
        return np.argmax(overlap, axis=-1)

    mul = match(*quat_multiply(w[:, None], v[:, None, :], w[None, :], v[None, :, :]))
    inv = match(w, -v)
    flip_inv = match(*quat_multiply(np.asarray(FLIP.w), np.asarray(FLIP.v), w, -v))
    if np.any(np.sort(mul, axis=-1) != np.arange(24)):
        raise ProtocolError("Clifford elements are not distinct: a table row is not a permutation")
    for table in (mul, inv, flip_inv):
        table.setflags(write=False)
    identity = match(np.array(1.0), np.zeros(3))
    return CayleyTables(mul, inv, flip_inv, int(identity))


def avg_pulse_count(group) -> float:
    """Mean decomposition length over a Clifford set (identity counts 0)."""
    els = list(group)
    return sum(el.pulse_count for el in els) / len(els)

