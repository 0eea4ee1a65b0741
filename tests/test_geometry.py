import math

import numpy as np
import pytest

from rolljoint.geometry import (
    Pose2,
    Twist2,
    Wrench2,
    adjoint,
    coadjoint,
    coadjoint_small,
    compose,
    cross2,
    exp_twist,
    inverse,
    skew1,
    skew2,
)


def random_pose(rng):
    return Pose2(rng.uniform(-np.pi, np.pi), rng.uniform(-50, 50, 2))


def test_pose_rotation_is_stored_read_only(rng):
    for _ in range(20):
        pose = random_pose(rng)
        c, s = math.cos(pose.angle), math.sin(pose.angle)
        assert np.array_equal(pose.rotation, [[c, -s], [s, c]])
        assert pose.rotation is pose.rotation
        assert not pose.rotation.flags.writeable


def test_pose_rotation_built_on_first_read(rng):
    import dataclasses

    from rolljoint.geometry import rot2

    for _ in range(20):
        pose = random_pose(rng)
        twin = Pose2(pose.angle, pose.translation)
        assert "rotation" not in vars(pose)
        rotation = pose.rotation
        assert "rotation" in vars(pose) and pose.rotation is rotation
        assert np.array_equal(rotation, rot2(pose.angle))
        assert not rotation.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            pose.rotation = np.eye(2)
        # the matrix is no field: equality and repr ignore whether it was read
        assert [f.name for f in dataclasses.fields(pose)] == ["angle", "translation"]
        assert repr(pose) == repr(twin) and "rotation" not in vars(twin)


def test_compose_identity():
    eye = Pose2.identity()
    out = compose(eye, eye)
    assert out.angle == 0.0
    assert np.all(out.translation == 0.0)


def test_compose_quarter_turns():
    quarter = Pose2(math.pi / 2, (0.0, 0.0))
    half = compose(quarter, quarter)
    assert half.angle == math.pi
    np.testing.assert_allclose(half.translation, 0.0, atol=1e-15)


def test_compose_matches_homogeneous_product(rng):
    for _ in range(200):
        a, b = random_pose(rng), random_pose(rng)
        np.testing.assert_allclose(
            compose(a, b).matrix, a.matrix @ b.matrix, atol=1e-12
        )


def test_inverse_trivials():
    assert inverse(Pose2.identity()).angle == 0.0
    shifted = inverse(Pose2(0.0, (1.0, 0.0)))
    np.testing.assert_allclose(shifted.translation, [-1.0, 0.0], atol=1e-15)


def test_inverse_round_trip(rng):
    for _ in range(200):
        a = random_pose(rng)
        round_trip = compose(inverse(a), a)
        assert abs(round_trip.angle) < 1e-12
        np.testing.assert_allclose(round_trip.translation, 0.0, atol=1e-12)


def test_adjoint_identity():
    np.testing.assert_array_equal(adjoint(Pose2.identity()), np.eye(3))


def test_adjoint_pure_translation():
    out = adjoint(Pose2(0.0, (1.0, 0.0)))
    np.testing.assert_allclose(
        out, [[1, 0, 0], [0, 1, 0], [-1, 0, 1]], atol=1e-15
    )


def test_adjoint_homomorphism(rng):
    worst = 0.0
    for _ in range(1000):
        a, b = random_pose(rng), random_pose(rng)
        err = np.abs(adjoint(compose(a, b)) - adjoint(a) @ adjoint(b)).max()
        worst = max(worst, err)
    assert worst < 1e-10


def test_coadjoint_identity():
    np.testing.assert_array_equal(coadjoint(Pose2.identity()), np.eye(3))


def test_coadjoint_duality(rng):
    worst = 0.0
    for _ in range(1000):
        a = random_pose(rng)
        err = np.abs(coadjoint(a) - adjoint(inverse(a)).T).max()
        worst = max(worst, err)
    assert worst < 1e-10


def test_coadjoint_unit_lever():
    moved = coadjoint(Pose2(0.0, (1.0, 0.0))) @ Wrench2(0.0, (0.0, 1.0)).as_array()
    np.testing.assert_allclose(moved, [1.0, 0.0, 1.0], atol=1e-15)


def test_coadjoint_small_zero_twist():
    np.testing.assert_array_equal(
        coadjoint_small(Twist2(0.0, (0.0, 0.0))), np.zeros((3, 3))
    )


def test_coadjoint_small_rotates_force():
    out = coadjoint_small(Twist2(1.0, (0.0, 0.0))) @ np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-15)


def test_coadjoint_derivative_matches_finite_difference(rng):
    h = 1e-6
    worst = 0.0
    for _ in range(300):
        pose = random_pose(rng)
        xi = Twist2(rng.uniform(-0.5, 0.5), rng.uniform(-2, 2, 2))
        upper = coadjoint(compose(pose, exp_twist(xi, h)))
        lower = coadjoint(compose(pose, exp_twist(xi, -h)))
        fd = (upper - lower) / (2 * h)
        closed = coadjoint(pose) @ coadjoint_small(xi)
        denom = max(np.abs(closed).max(), 1.0)
        worst = max(worst, np.abs(fd - closed).max() / denom)
    assert worst < 1e-6


def test_cross_product_anticommutativity(rng):
    for _ in range(500):
        w = rng.uniform(-3, 3)
        t = rng.uniform(-20, 20, 2)
        np.testing.assert_allclose(skew1(w) @ t, -skew2(t) * w, atol=1e-12)


def test_coadjoint_matches_lever_arm_formula(rng):
    # the force rotates into the parent frame and adds its moment about the
    # parent origin: m' = m + t x (R f)
    for _ in range(200):
        pose = random_pose(rng)
        wrench = Wrench2(rng.uniform(-5, 5), rng.uniform(-5, 5, 2))
        force = pose.rotation @ wrench.f
        moment = wrench.m + cross2(pose.translation, force)
        np.testing.assert_allclose(
            coadjoint(pose) @ wrench.as_array(), [moment, *force], atol=1e-12,
        )
