"""Rotation algebra, pulse-axis mapping and Clifford compilation."""

import math

import numpy as np
import pytest

from aeonsim import rotations as rot
from aeonsim.errors import ProtocolError
from aeonsim.hilbert import ExchangeVector
import oracles
from oracles import (angle, approx_equal, compile_clifford_group, compose_sequence,
                     decompose_rotation, inverse, to_unitary)


def random_rotation(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return rot.Rotation(w=float(v[0]), v=tuple(v[1:]))


def test_identity_and_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = random_rotation(rng)
        assert approx_equal(rot.compose(r, inverse(r)), rot.Rotation.identity())
        assert 0.0 <= angle(r) < 2.0 * math.pi + 1e-12


def test_compose_matches_unitary_product():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = random_rotation(rng), random_rotation(rng)
        u = to_unitary(rot.compose(a, b))
        u_ref = to_unitary(a) @ to_unitary(b)
        # unitaries agree up to global sign
        assert min(
            np.abs(u - u_ref).max(), np.abs(u + u_ref).max()
        ) < 1e-12


def test_so3_is_a_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(60):
        a, b = random_rotation(rng), random_rotation(rng)
        np.testing.assert_allclose(
            rot.so3_matrix(rot.compose(a, b)),
            rot.so3_matrix(a) @ rot.so3_matrix(b),
            atol=1e-12,
        )


def test_rotation_normalization_guard():
    with pytest.raises(ValueError):
        rot.Rotation(w=1.0, v=(0.5, 0.0, 0.0))


def test_single_coupling_axes():
    assert rot.exchange_to_rotation(ExchangeVector(40e6, 0, 0), 1e-9).phi == pytest.approx(rot.PHI_M)
    assert rot.exchange_to_rotation(ExchangeVector(0, 40e6, 0), 1e-9).phi == pytest.approx(rot.PHI_N)
    assert rot.exchange_to_rotation(ExchangeVector(0, 0, 40e6), 1e-9).phi == pytest.approx(rot.PHI_Z)


def test_balanced_pair_pulse_is_pi_about_minus_z():
    aa = rot.exchange_to_rotation(ExchangeVector(50e6, 50e6, 0.0), 10e-9)
    assert aa.phi == pytest.approx(-math.pi / 2.0, abs=1e-12)
    assert aa.theta == pytest.approx(math.pi, rel=1e-12)


def test_rotation_angle_scales_with_duration():
    j = ExchangeVector(30e6, 10e6, 5e6)
    a1 = rot.exchange_to_rotation(j, 10e-9)
    a2 = rot.exchange_to_rotation(j, 20e-9)
    assert a2.theta == pytest.approx(2 * a1.theta, rel=1e-12)
    assert a2.phi == pytest.approx(a1.phi, abs=1e-12)


def test_exchange_to_rotation_zero():
    aa = rot.exchange_to_rotation(ExchangeVector(0.0, 0.0, 0.0), 10e-9)
    assert aa.theta == 0.0


def test_two_coupling_group_statistics():
    grp = rot.canonical_clifford_group()
    assert len(grp) == 24
    assert rot.avg_pulse_count(grp) == pytest.approx(11.0 / 6.0, abs=1e-12)
    assert max(el.pulse_count for el in grp) == 3
    hist = {}
    for el in grp:
        hist[el.pulse_count] = hist.get(el.pulse_count, 0) + 1
    assert hist == {0: 1, 1: 6, 2: 13, 3: 4}


def test_group_elements_compose_to_their_words():
    for el in rot.canonical_clifford_group():
        if not el.decomposition:
            continue
        net = compose_sequence(el.decomposition)
        assert approx_equal(net, el.rotation) or approx_equal(
            net, rot.Rotation(w=-el.rotation.w, v=tuple(-x for x in el.rotation.v))
        )


def test_group_closure_under_composition():
    grp = rot.canonical_clifford_group()
    rng = np.random.default_rng(11)
    for _ in range(80):
        a, b = rng.integers(0, 24, size=2)
        prod = rot.compose(grp[a].rotation, grp[b].rotation)
        rot.match_element(grp, prod)  # raises if not in the group


def test_clifford_detection():
    grp = rot.canonical_clifford_group()
    for i, el in enumerate(grp):
        assert grp.position(el.rotation) == i
    with pytest.raises(ProtocolError):
        grp.position(rot.Rotation.from_axis_angle(rot.AxisAngle(0.3, 1.0)))


def _pulses(*axis_angles):
    return [(aa, rot.Rotation.from_axis_angle(aa)) for aa in axis_angles]


def test_single_coupling_quarter_turns_do_not_close():
    # 90-degree pulses about two tilted single-coupling axes are not
    # Clifford rotations, so breadth-first closure must refuse them
    gens = _pulses(rot.AxisAngle(rot.PHI_Z, math.pi / 2), rot.AxisAngle(rot.PHI_N, math.pi / 2))
    with pytest.raises(ProtocolError):
        rot.generate_clifford_group(gens)


@pytest.mark.parametrize(
    "axes,avg,hist",
    [
        ((rot.PHI_Z, rot.PHI_N), 8.0 / 3.0, {0: 1, 1: 3, 3: 19, 4: 1}),
        ((rot.PHI_Z, rot.PHI_M), 8.0 / 3.0, {0: 1, 1: 3, 3: 19, 4: 1}),
        ((rot.PHI_M, rot.PHI_N), 3.0, {0: 1, 3: 20, 4: 3}),
    ],
)
def test_single_coupling_compiled_groups(axes, avg, hist):
    grp = compile_clifford_group(axes)
    assert len(grp) == 24
    assert rot.avg_pulse_count(grp) == pytest.approx(avg, abs=1e-9)
    counts = {}
    for el in grp:
        counts[el.pulse_count] = counts.get(el.pulse_count, 0) + 1
    assert counts == hist
    assert max(counts) <= 4


def test_compiled_words_use_only_their_axes():
    axes = (rot.PHI_Z, rot.PHI_N)
    for el in compile_clifford_group(axes):
        for aa in el.decomposition:
            assert any(abs(aa.phi - a) < 1e-9 for a in axes)
        if el.decomposition:
            net = compose_sequence(el.decomposition)
            assert min(
                abs(net.w - el.rotation.w) + np.abs(np.subtract(net.v, el.rotation.v)).max(),
                abs(net.w + el.rotation.w) + np.abs(np.add(net.v, el.rotation.v)).max(),
            ) < 1e-8


def test_decompose_rotation_arbitrary_target():
    rng = np.random.default_rng(21)
    axes = (rot.PHI_Z, rot.PHI_M)
    for _ in range(20):
        target = random_rotation(rng)
        word = decompose_rotation(target, axes)
        net = compose_sequence(word)
        assert min(
            abs(net.w - target.w) + np.abs(np.subtract(net.v, target.v)).max(),
            abs(net.w + target.w) + np.abs(np.add(net.v, target.v)).max(),
        ) < 1e-6


def test_match_element_rejects_non_member():
    grp = rot.canonical_clifford_group()
    with pytest.raises(ProtocolError):
        rot.match_element(grp, rot.Rotation.from_axis_angle(rot.AxisAngle(0.0, 0.7)))


def test_exchange_to_rotation_arrays_match_scalar_calls():
    rng = np.random.default_rng(17)
    j12, j23, j13 = (rng.uniform(0.0, 80e6, size=(5, 7)) for _ in range(3))
    j12[0, :3] = j23[0, :3] = j13[0, :3] = 0.0  # zero total coupling
    j13[1, :] = 0.0  # two-pair cells
    j23[2, :] = 0.0
    tau = 10e-9
    aa = rot.exchange_to_rotation(ExchangeVector(j12, j23, j13), tau)
    assert aa.phi.shape == aa.theta.shape == (5, 7)
    for idx in np.ndindex(5, 7):
        one = rot.exchange_to_rotation(
            ExchangeVector(float(j12[idx]), float(j23[idx]), float(j13[idx])), tau
        )
        assert type(one.phi) is float and type(one.theta) is float
        assert aa.phi[idx] == pytest.approx(one.phi, rel=1e-15, abs=1e-15)
        assert aa.theta[idx] == pytest.approx(one.theta, rel=1e-15, abs=0.0)
    assert np.all(aa.phi[0, :3] == 0.0) and np.all(aa.theta[0, :3] == 0.0)
    # an array beside float couplings broadcasts
    mixed = rot.exchange_to_rotation(ExchangeVector(j12[1], 0.0, 0.0), tau)
    np.testing.assert_allclose(mixed.phi, rot.PHI_M, atol=1e-15)


@pytest.mark.parametrize(
    "group",
    [rot.canonical_clifford_group, lambda: compile_clifford_group((rot.PHI_Z, rot.PHI_N))],
    ids=["canonical", "compiled"],
)
def test_cayley_tables_match_compose_and_match_element(group):
    grp = group()
    pos = {id(el): i for i, el in enumerate(grp)}

    def position(r):
        assert pos[id(rot.match_element(grp, r))] == grp.position(r)
        return grp.position(r)

    for a in range(24):
        for b in range(24):
            assert grp.mul[a, b] == position(rot.compose(grp[a].rotation, grp[b].rotation))
        inv = inverse(grp[a].rotation)
        assert grp.inv[a] == position(inv)
        assert grp.flip_inv[a] == position(rot.compose(rot.FLIP, inv))
    assert grp.identity == position(rot.Rotation.identity())
    assert not grp.mul.flags.writeable
    # a compiled group keeps the canonical rotations, order and tables
    canonical = rot.canonical_clifford_group()
    assert [el.rotation for el in grp] == [el.rotation for el in canonical]
    assert grp.mul is canonical.mul and grp.flip_inv is canonical.flip_inv


def test_cayley_tables_reject_non_groups():
    z = rot.PHI_Z
    # pi turns about x and z close into the four Pauli rotations only
    with pytest.raises(ProtocolError, match="reached 4 elements"):
        rot.generate_clifford_group(_pulses(rot.AxisAngle(0.0, math.pi), rot.AxisAngle(z, math.pi)))
    # closed sets of 24 rotations that are not the Clifford group: the
    # cyclic group about z, and the dihedral group that adds the flip
    for gens in (
        _pulses(rot.AxisAngle(z, math.pi / 12), rot.AxisAngle(z, math.pi / 3)),
        _pulses(rot.AxisAngle(z, math.pi / 6), rot.AxisAngle(0.0, math.pi)),
    ):
        with pytest.raises(ProtocolError, match="not an element"):
            rot.generate_clifford_group(gens)


def _offset(q, e, d):
    """Unit quaternion at componentwise distance ~d from ``q``, moved
    along the unit quaternion ``e`` orthogonal to it."""
    a = d / np.abs(e).max()
    return math.cos(a) * q + math.sin(a) * e


@pytest.mark.parametrize("d", [1e-12, 3.5e-10, 9e-10, 1.1e-9, 1e-6])
def test_position_accepts_exactly_the_rotations_within_1e_9(d):
    grp = rot.canonical_clifford_group()
    rng = np.random.default_rng(5)
    for i, el in enumerate(grp):
        q = np.array([el.rotation.w, *el.rotation.v])
        for sign in (1.0, -1.0):
            e = rng.standard_normal(4)
            e -= (e @ q) * q
            e /= np.linalg.norm(e)
            moved = sign * _offset(q, e, d)
            dist = min(np.abs(moved - q).max(), np.abs(moved + q).max())
            assert dist == pytest.approx(d, rel=1e-3)
            r = rot.Rotation(moved[0], tuple(moved[1:]))
            if d <= 1e-9:
                assert grp.position(r) == i
            else:
                with pytest.raises(ProtocolError):
                    grp.position(r)


# The quaternion products as written before they shared one component
# product: numpy arrays and np.cross.  Kept here as the bit-exact oracles.
def _np_cross_product(second, first):
    w1, v1 = second.w, np.array(second.v)
    w2, v2 = first.w, np.array(first.v)
    return w1 * w2 - float(v1 @ v2), w1 * v2 + w2 * v1 + np.cross(v1, v2)


def _np_cross_compose(second, first):
    w, v = _np_cross_product(second, first)
    return rot.Rotation(w, tuple(v))


def _np_cross_quat_multiply(w1, v1, w2, v2):
    w = w1 * w2 - np.sum(v1 * v2, axis=-1)
    v = w1[..., None] * v2 + w2[..., None] * v1 + np.cross(v1, v2)
    return w, v


def _unit_quaternions(rng, shape):
    q = rng.normal(size=shape + (4,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q[..., 0], q[..., 1:]


@pytest.mark.parametrize("shape1,shape2", [
    ((300,), (300,)),
    ((5, 1), (1, 7)),  # an outer product, as the Cayley table builds it
    ((), (4, 6)),  # one quaternion against a grid, as the germ sweep does
])
def test_quat_multiply_equals_np_cross_oracle(shape1, shape2):
    rng = np.random.default_rng(31)
    w1, v1 = _unit_quaternions(rng, shape1)
    w2, v2 = _unit_quaternions(rng, shape2)
    w, v = rot.quat_multiply(w1, v1, w2, v2)
    w_ref, v_ref = _np_cross_quat_multiply(np.asarray(w1), v1, np.asarray(w2), v2)
    assert w.shape == w_ref.shape and v.shape == v_ref.shape
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_compose_equals_quat_multiply_and_np_cross_oracle():
    rng = np.random.default_rng(32)
    w1, v1 = _unit_quaternions(rng, (300,))
    w2, v2 = _unit_quaternions(rng, (300,))
    w, v = rot.quat_multiply(w1, v1, w2, v2)
    for k in range(300):
        # Python floats, as Rotation holds them
        a = rot.Rotation(float(w1[k]), tuple(map(float, v1[k])))
        b = rot.Rotation(float(w2[k]), tuple(map(float, v2[k])))
        got = rot._product(a.w, *a.v, b.w, *b.v)
        assert got == (w[k], *v[k])
        assert rot.compose(a, b) == rot.Rotation(got[0], got[1:])
        # the old vector part is elementwise numpy and matches bit for bit;
        # its scalar part went through a BLAS dot, which may fuse
        # multiply-adds, so it can differ in the last place
        old_w, old_v = _np_cross_product(a, b)
        assert got[1:] == tuple(old_v)
        assert abs(got[0] - old_w) <= math.ulp(1.0)


def test_clifford_groups_equal_np_cross_compose_oracle(monkeypatch):
    def quaternions(group):
        return [(el.rotation.w, *el.rotation.v) for el in group]

    def words(group):
        return [tuple((aa.phi, aa.theta) for aa in el.decomposition) for el in group]

    axes = (rot.PHI_M, rot.PHI_N)
    canonical = rot.canonical_clifford_group()
    compiled = compile_clifford_group(axes)
    monkeypatch.setattr(rot, "compose", _np_cross_compose)
    monkeypatch.setattr(rot, "_CANONICAL", None)
    canonical_ref = rot.canonical_clifford_group()
    compiled_ref = compile_clifford_group(axes)
    assert quaternions(canonical) == quaternions(canonical_ref)
    assert quaternions(compiled) == quaternions(compiled_ref)
    assert words(canonical) == words(canonical_ref)
    assert words(compiled) == words(compiled_ref)


@pytest.mark.parametrize("axes", [(rot.PHI_Z, rot.PHI_N), (rot.PHI_Z, rot.PHI_M), (rot.PHI_M, rot.PHI_N)])
def test_plain_dot_products_keep_the_compiled_words(axes, monkeypatch):
    # the solver used to take its 3-vector dots with ``@``; the words must
    # not change, and the angles only in the last bits
    plain = compile_clifford_group(axes)
    monkeypatch.setattr(oracles, "_dot3", lambda a, b: float(np.asarray(a) @ np.asarray(b)))
    blas = compile_clifford_group(axes)
    for p, b in zip(plain, blas):
        assert [aa.phi for aa in p.decomposition] == [aa.phi for aa in b.decomposition]
        for pa, ba in zip(p.decomposition, b.decomposition):
            assert abs(pa.theta - ba.theta) <= 1e-12


@pytest.mark.parametrize("axes", [(rot.PHI_Z, rot.PHI_N), (rot.PHI_Z, rot.PHI_M), (rot.PHI_M, rot.PHI_N)])
def test_word_lengths_equal_the_rotation_matrix_oracle(axes):
    # an a-b-a word exists when R moves a by at most the angle between the
    # axes, a.Ra >= 2(a.b)^2 - 1, read off R alone; the caller's first axis
    # is preferred as a, and where neither axis qualifies one leading b
    # pulse makes a four-pulse word
    a, b = (np.array([math.cos(phi), 0.0, math.sin(phi)]) for phi in axes)
    floor = 2.0 * (a @ b) ** 2 - 1.0
    rng = np.random.default_rng(23)
    for _ in range(300):
        target = random_rotation(rng)
        r = rot.so3_matrix(target)
        word = decompose_rotation(target, axes)
        want = "aba" if a @ r @ a >= floor else "bab" if b @ r @ b >= floor else "baba"
        assert "".join("ab"[axes.index(aa.phi)] for aa in word) == want
        assert approx_equal(compose_sequence(word), target)
        assert all(0.0 < aa.theta < 2.0 * math.pi for aa in word)
