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
    exp_twist,
    inverse,
    skew1,
    skew2,
    transform_wrench,
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
    moved = transform_wrench(Pose2(0.0, (1.0, 0.0)), Wrench2(0.0, (0.0, 1.0)))
    assert abs(moved.m - 1.0) < 1e-15
    np.testing.assert_allclose(moved.f, [0.0, 1.0], atol=1e-15)


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


def test_transform_wrench_matches_coadjoint(rng):
    for _ in range(200):
        pose = random_pose(rng)
        wrench = Wrench2(rng.uniform(-5, 5), rng.uniform(-5, 5, 2))
        np.testing.assert_allclose(
            transform_wrench(pose, wrench).as_array(),
            coadjoint(pose) @ wrench.as_array(),
            atol=1e-12,
        )
