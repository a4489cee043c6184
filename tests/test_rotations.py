"""Rotation algebra, pulse-axis mapping and Clifford compilation."""

import math

import numpy as np
import pytest

from aeonsim import calibration as cal
from aeonsim import rotations as rot
from aeonsim.errors import ProtocolError
import oracles
from oracles import (IDENTITY, angle, approx_equal, compile_clifford_group, compose_sequence,
                     decompose_rotation, float_word, inverse, to_unitary)


def random_rotation(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def test_identity_and_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = random_rotation(rng)
        assert approx_equal(rot.compose(r, inverse(r)), IDENTITY)
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
    # a quaternion that is not of unit norm is no rotation, so no element
    grp = rot.canonical_clifford_group()
    with pytest.raises(ProtocolError):
        grp.position(np.array([1.0, 0.5, 0.0, 0.0]))
    with pytest.raises(ProtocolError):
        rot.match_element(grp, np.array([1.0, 0.5, 0.0, 0.0]))


def test_single_coupling_axes():
    assert rot.exchange_to_rotation([40e6, 0, 0], 1e-9).phi == pytest.approx(rot.PHI_M)
    assert rot.exchange_to_rotation([0, 0, 40e6], 1e-9).phi == pytest.approx(rot.PHI_N)
    assert rot.exchange_to_rotation([0, 40e6, 0], 1e-9).phi == pytest.approx(rot.PHI_Z)


def test_balanced_pair_pulse_is_pi_about_minus_z():
    aa = rot.exchange_to_rotation([50e6, 0.0, 50e6], 10e-9)
    assert aa.phi == pytest.approx(-math.pi / 2.0, abs=1e-12)
    assert aa.theta == pytest.approx(math.pi, rel=1e-12)


def test_rotation_angle_scales_with_duration():
    j = [30e6, 5e6, 10e6]
    a1 = rot.exchange_to_rotation(j, 10e-9)
    a2 = rot.exchange_to_rotation(j, 20e-9)
    assert a2.theta == pytest.approx(2 * a1.theta, rel=1e-12)
    assert a2.phi == pytest.approx(a1.phi, abs=1e-12)


def test_exchange_to_rotation_zero():
    aa = rot.exchange_to_rotation(np.zeros(3), 10e-9)
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
        assert approx_equal(net, el.rotation) or approx_equal(net, -el.rotation)


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
        grp.position(rot.quaternion(0.3, 1.0))


def test_single_coupling_quarter_turns_do_not_close():
    # 90-degree pulses about two tilted single-coupling axes are not
    # Clifford rotations, so breadth-first closure must refuse them
    gens = [rot.AxisAngle(rot.PHI_Z, math.pi / 2), rot.AxisAngle(rot.PHI_N, math.pi / 2)]
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
                abs(net[0] - el.rotation[0]) + np.abs(net[1:] - el.rotation[1:]).max(),
                abs(net[0] + el.rotation[0]) + np.abs(net[1:] + el.rotation[1:]).max(),
            ) < 1e-8


def test_decompose_rotation_arbitrary_target():
    rng = np.random.default_rng(21)
    axes = (rot.PHI_Z, rot.PHI_M)
    for _ in range(20):
        target = random_rotation(rng)
        word = decompose_rotation(target, axes)
        net = compose_sequence(word)
        assert min(
            abs(net[0] - target[0]) + np.abs(net[1:] - target[1:]).max(),
            abs(net[0] + target[0]) + np.abs(net[1:] + target[1:]).max(),
        ) < 1e-6


def test_match_element_rejects_non_member():
    grp = rot.canonical_clifford_group()
    with pytest.raises(ProtocolError):
        rot.match_element(grp, rot.quaternion(0.0, 0.7))


def test_exchange_to_rotation_arrays_match_scalar_calls():
    rng = np.random.default_rng(17)
    j12, j23, j13 = (rng.uniform(0.0, 80e6, size=(5, 7)) for _ in range(3))
    j12[0, :3] = j23[0, :3] = j13[0, :3] = 0.0  # zero total coupling
    j13[1, :] = 0.0  # two-pair cells
    j23[2, :] = 0.0
    tau = 10e-9
    j = np.stack([j12, j13, j23], axis=-1)
    aa = rot.exchange_to_rotation(j, tau)
    assert aa.phi.shape == aa.theta.shape == (5, 7)
    for idx in np.ndindex(5, 7):
        one = rot.exchange_to_rotation(j[idx], tau)  # one numpy vector gives Python floats
        assert type(one.phi) is float and type(one.theta) is float
        assert aa.phi[idx] == pytest.approx(one.phi, rel=1e-15, abs=1e-15)
        assert aa.theta[idx] == pytest.approx(one.theta, rel=1e-15, abs=0.0)
    assert np.all(aa.phi[0, :3] == 0.0) and np.all(aa.theta[0, :3] == 0.0)
    # a batch of J12-only rows
    mixed = rot.exchange_to_rotation(j12[1][:, None] * [1.0, 0.0, 0.0], tau)
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
    assert grp.identity == position(IDENTITY)
    assert not grp.mul.flags.writeable and not grp.quaternions.flags.writeable
    assert not rot.FLIP.flags.writeable
    # each element's rotation is its row of the quaternion table
    assert all(el.rotation.base is grp.quaternions for el in grp)
    assert np.array_equal([el.rotation for el in grp], grp.quaternions)
    # a compiled group keeps the canonical rotations, order and tables
    canonical = rot.canonical_clifford_group()
    assert grp.quaternions is canonical.quaternions
    assert grp.mul is canonical.mul and grp.flip_inv is canonical.flip_inv


def test_cayley_tables_reject_non_groups():
    z = rot.PHI_Z
    # pi turns about x and z close into the four Pauli rotations only
    with pytest.raises(ProtocolError, match="reached 4 elements"):
        rot.generate_clifford_group([rot.AxisAngle(0.0, math.pi), rot.AxisAngle(z, math.pi)])
    # closed sets of 24 rotations that are not the Clifford group: the
    # cyclic group about z, and the dihedral group that adds the flip
    for gens in (
        [rot.AxisAngle(z, math.pi / 12), rot.AxisAngle(z, math.pi / 3)],
        [rot.AxisAngle(z, math.pi / 6), rot.AxisAngle(0.0, math.pi)],
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
        q = el.rotation
        for sign in (1.0, -1.0):
            e = rng.standard_normal(4)
            e -= (e @ q) * q
            e /= np.linalg.norm(e)
            moved = sign * _offset(q, e, d)
            dist = min(np.abs(moved - q).max(), np.abs(moved + q).max())
            assert dist == pytest.approx(d, rel=1e-3)
            if d <= 1e-9:
                assert grp.position(moved) == i
            else:
                with pytest.raises(ProtocolError):
                    grp.position(moved)


# The quaternion product as written before it became one component
# product: numpy arrays and np.cross.  Kept here as the bit-exact oracle.
def _np_cross_compose(second, first):
    w1, v1 = second[..., 0], second[..., 1:]
    w2, v2 = first[..., 0], first[..., 1:]
    w = w1 * w2 - np.sum(v1 * v2, axis=-1)
    v = w1[..., None] * v2 + w2[..., None] * v1 + np.cross(v1, v2)
    return np.concatenate([w[..., None], v], axis=-1)


def _unit_quaternions(rng, shape):
    q = rng.normal(size=shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


@pytest.mark.parametrize("shape1,shape2", [
    ((300,), (300,)),
    ((5, 1), (1, 7)),  # an outer product, as the Cayley table builds it
    ((), (4, 6)),  # one quaternion against a grid, as the germ sweep does
    ((), ()),  # one quaternion against one, as the group's search and the tests do
])
def test_quat_multiply_equals_np_cross_oracle(shape1, shape2):
    rng = np.random.default_rng(31)
    q1 = _unit_quaternions(rng, shape1)
    q2 = _unit_quaternions(rng, shape2)
    got = rot.compose(q1, q2)
    want = _np_cross_compose(q1, q2)
    assert got.shape == want.shape == np.broadcast_shapes(shape1, shape2) + (4,)
    assert np.array_equal(got, want)
    # a row of a batched product equals the product of its rows, also
    # when those rows are Python floats
    flat1, flat2 = np.broadcast_arrays(q1, q2)
    for k in np.ndindex(got.shape[:-1]):
        one = rot.compose(np.array(flat1[k].tolist()), np.array(flat2[k].tolist()))
        assert np.array_equal(one, got[k])


def test_group_quaternions_equal_float_words():
    # every element, FLIP and the default helper pulse are, bit for bit,
    # the pure-float product of their pulses
    grp = rot.canonical_clifford_group()
    for el in grp:
        assert tuple(el.rotation) == float_word(el.decomposition)
    assert tuple(rot.FLIP) == float_word([rot.AxisAngle(0.0, math.pi)])
    rng = np.random.default_rng(33)
    for phi_star in [-math.pi / 2, 0.0, *rng.uniform(-math.pi, math.pi, 20)]:
        cfg = cal.GermConfig.for_target(float(phi_star), math.pi)
        helper = rot.AxisAngle(cfg.eta, cfg.chi)
        assert tuple(rot.quaternion(helper.phi, helper.theta)) == float_word([helper])


def test_clifford_z_columns_equal_so3_matrix_columns():
    z = cal._clifford_z_columns()
    want = np.stack([rot.so3_matrix(el.rotation)[:, 2] for el in rot.canonical_clifford_group()])
    assert z.flags.c_contiguous and np.array_equal(z, want)


def test_clifford_groups_equal_np_cross_compose_oracle(monkeypatch):
    def words(group):
        return [tuple((aa.phi, aa.theta) for aa in el.decomposition) for el in group]

    axes = (rot.PHI_M, rot.PHI_N)
    canonical = rot.canonical_clifford_group()
    compiled = compile_clifford_group(axes)
    monkeypatch.setattr(rot, "compose", _np_cross_compose)
    monkeypatch.setattr(rot, "_CANONICAL", None)
    canonical_ref = rot.canonical_clifford_group()
    compiled_ref = compile_clifford_group(axes)
    assert np.array_equal(canonical.quaternions, canonical_ref.quaternions)
    assert np.array_equal(compiled.quaternions, compiled_ref.quaternions)
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
