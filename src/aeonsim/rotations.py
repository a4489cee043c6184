"""SU(2) rotation algebra on the encoded qubit.

A rotation is a float array of shape ``(..., 4)``: the unit quaternion
``(w, x, y, z)``, identified up to global sign, mapping to SU(2) as
``U = w*I - i*((x, y, z) . sigma)``.  :func:`quaternion` builds the
rotation of a pulse with axis angle ``phi`` (axis in the xz-plane of the
Bloch sphere) and rotation angle ``theta``, ``(cos(theta/2),
sin(theta/2) cos phi, 0, sin(theta/2) sin phi)``; composed rotations
acquire y-components.  :func:`compose` is the one product and
:func:`so3_matrix` the Bloch-sphere action.  The 24 Cliffords are one
:class:`CliffordGroup`: their ``(24, 4)`` quaternion table, the pulses of
each element, their multiplication and inversion tables, and one
membership test (within 1e-9, component by component, up to sign).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
        f"axis phi={phi:.6f} lies on a single-coupling axis; pick the two "
        "swept pairs explicitly"
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


def quaternion(phi, theta) -> np.ndarray:
    """Rotation by ``theta`` about the xz-plane axis at angle ``phi``,
    shape ``(..., 4)`` over the broadcast shape of the inputs.  Floats take
    ``math``'s sin and cos, as :func:`exchange_to_rotation` does."""
    if np.ndim(phi) == 0 and np.ndim(theta) == 0:
        s = math.sin(theta / 2.0)
        return np.array([math.cos(theta / 2.0), s * math.cos(phi), 0.0, s * math.sin(phi)])
    half = 0.5 * np.asarray(theta, dtype=float)
    s = np.sin(half)
    w, x, z = np.broadcast_arrays(np.cos(half), s * np.cos(phi), s * np.sin(phi))
    return np.stack([w, x, np.zeros_like(x), z], axis=-1)


def compose(second, first) -> np.ndarray:
    """Rotation equivalent to applying ``first`` then ``second``: the
    quaternion product ``second * first`` of ``(..., 4)`` arrays that
    broadcast."""
    w1, x1, y1, z1 = np.moveaxis(second, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(first, -1, 0)
    return np.stack([
        w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2),
        w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2),
        w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2),
        w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2),
    ], axis=-1)


def so3_matrix(q) -> np.ndarray:
    """Bloch-sphere action of ``(..., 4)`` rotations as 3x3 orthogonal
    matrices, shape ``(..., 3, 3)``."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(np.shape(q)[:-1] + (3, 3))


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """One of the 24 single-qubit Clifford rotations, a row of its group's
    quaternion table, and the pulses that realize it (none for the
    identity)."""

    rotation: np.ndarray
    decomposition: tuple[AxisAngle, ...]

    @property
    def pulse_count(self) -> int:
        return len(self.decomposition)


FLIP = quaternion(0.0, math.pi)  # pi about x
FLIP.setflags(write=False)


def _nearest(q: np.ndarray, targets: np.ndarray):
    """The one matcher of rotations to group elements: for each target
    quaternion (last axis of ``targets``), the row of ``q`` of largest
    ``|<q, t>|``, and whether that row lies within 1e-9 of the target,
    component by component, up to sign."""
    k = np.argmax(np.abs(targets @ q.T), axis=-1)
    near = q[k]
    d = np.minimum(np.abs(near - targets).max(axis=-1), np.abs(near + targets).max(axis=-1))
    return k, d <= 1e-9


def _positions(q: np.ndarray, targets) -> np.ndarray:
    """Rows of ``q`` that match the quaternions ``targets``, or ProtocolError."""
    k, ok = _nearest(q, np.asarray(targets, dtype=float))
    if not ok.all():
        raise ProtocolError("rotation is not an element of the Clifford group")
    return k


@dataclass(frozen=True, eq=False)
class CliffordGroup(Sequence):
    """The 24 single-qubit Clifford rotations in a fixed order, and their
    tables by position: a read-only sequence of :class:`CliffordElement`.

    ``quaternions[a]`` is the rotation of ``self[a]``; ``mul[a, b]`` is the
    position of ``self[a]`` applied after ``self[b]``; ``inv[a]`` that of
    the inverse of ``self[a]``; ``flip_inv[a]`` that of that inverse
    followed by :data:`FLIP`; ``identity`` that of the identity.  The
    arrays are read-only.
    """

    elements: tuple[CliffordElement, ...]
    quaternions: np.ndarray
    mul: np.ndarray
    inv: np.ndarray
    flip_inv: np.ndarray
    identity: int

    def __getitem__(self, k):
        return self.elements[k]

    def __len__(self) -> int:
        return len(self.elements)

    def position(self, q) -> int:
        """Position of the element within 1e-9 of the rotation ``q``,
        component by component, up to sign; ProtocolError if there is
        none."""
        return int(_positions(self.quaternions, q))


def generate_clifford_group(generators) -> CliffordGroup:
    """Breadth-first closure of Clifford generators, up to global phase.

    Args:
        generators: AxisAngle pulses.

    Returns:
        The 24 Clifford elements with minimal words (lexicographic tie-break
        over generator index order), identity first, and their tables.

    Raises:
        ProtocolError: if the closure does not reach exactly 24 elements
            within word length 8, or these are not the Clifford group.
    """
    gens = list(generators)
    g = np.stack([quaternion(aa.phi, aa.theta) for aa in gens])
    found, words, start = np.array([[1.0, 0.0, 0.0, 0.0]]), [()], 0
    while len(found) < 24 and start < len(found) and len(words[-1]) < 8:
        # row k: the rotation found[start + k // len(gens)], then generator k % len(gens)
        cands = compose(g, found[start:, None]).reshape(-1, 4)
        _, known = _nearest(found, cands)
        fresh, keep = np.flatnonzero(~known), []
        while fresh.size:  # the first of each new rotation joins; its repeats do not
            keep.append(fresh[0])
            _, repeat = _nearest(cands[fresh[:1]], cands[fresh])
            fresh = fresh[~repeat]
        words += [words[start + k // len(gens)] + (k % len(gens),) for k in keep]
        start, found = len(found), np.concatenate([found, cands[keep]])
    if len(found) != 24:
        raise ProtocolError(
            f"generator set does not close into the 24-element Clifford "
            f"group within depth 8 (reached {len(found)} elements)"
        )

    inverse = found * np.array([1.0, -1.0, -1.0, -1.0])
    mul = _positions(found, compose(found[:, None], found))
    inv = _positions(found, inverse)
    flip_inv = _positions(found, compose(FLIP, inverse))
    for table in (found, mul, inv, flip_inv):
        table.setflags(write=False)
    elements = tuple(
        CliffordElement(q, tuple(gens[i] for i in word)) for q, word in zip(found, words)
    )
    group = CliffordGroup(elements, found, mul, inv, flip_inv, 0)
    # a closed set of 24 rotations that holds the quarter turns about x and
    # z is the Clifford group
    for phi in (0.0, PHI_Z):
        group.position(quaternion(phi, math.pi / 2.0))
    return group


def clifford_generators_2j() -> list[AxisAngle]:
    """The nine calibrated two-coupling pulses: {pi/2, pi, 3pi/2} about
    +x, -x and -z."""
    return [AxisAngle(phi, theta)
            for phi in (0.0, math.pi, -math.pi / 2.0)
            for theta in (math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)]


_CANONICAL: CliffordGroup | None = None


def canonical_clifford_group() -> CliffordGroup:
    """The 24 Clifford rotations over the nine calibrated two-coupling
    pulses (deterministic indexing, identity first, minimal words)."""
    global _CANONICAL
    if _CANONICAL is None:
        _CANONICAL = generate_clifford_group(clifford_generators_2j())
    return _CANONICAL


def match_element(group: CliffordGroup, q) -> CliffordElement:
    """Group element equal to the rotation ``q`` up to global phase;
    ProtocolError if there is none (see :meth:`CliffordGroup.position`)."""
    return group[group.position(q)]


def avg_pulse_count(group) -> float:
    """Mean decomposition length over a Clifford set (identity counts 0)."""
    return sum(el.pulse_count for el in group) / len(group)
