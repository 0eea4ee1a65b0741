import numpy as np
import pytest

from rolljoint.geometry import Pose2, Twist2, Wrench2, compose, exp_twist
from rolljoint.loads import (
    ConstantBody,
    ConstantWorkspace,
    LinearSpring,
    net_derivative,
    net_wrench,
)
from rolljoint.oracle import dense_solve, energy
from rolljoint.solver_tension import solve_tension


def random_pose(rng):
    return Pose2(rng.uniform(-np.pi, np.pi), rng.uniform(-40, 40, 2))


def fd_derivative(load, pose, h=1e-6):
    out = np.zeros((3, 3))
    for col in range(3):
        delta = np.zeros(3)
        delta[col] = h
        plus = load.body_wrench(compose(pose, exp_twist(Twist2(delta[0], delta[1:])))).as_array()
        minus = load.body_wrench(compose(pose, exp_twist(Twist2(-delta[0], -delta[1:])))).as_array()
        out[:, col] = (plus - minus) / (2 * h)
    return out


def test_zero_body_load_stays_zero(rng):
    load = ConstantBody(target_link=1)
    for _ in range(10):
        assert np.all(load.body_wrench(random_pose(rng)).as_array() == 0.0)


def test_body_load_is_pose_independent(rng):
    load = ConstantBody(target_link=1, wrench=Wrench2(2.0, (-1.0, 0.5)))
    for _ in range(10):
        np.testing.assert_array_equal(
            load.body_wrench(random_pose(rng)).as_array(), [2.0, -1.0, 0.5]
        )
        np.testing.assert_array_equal(load.body_wrench_derivative(random_pose(rng)), np.zeros((3, 3)))


def test_workspace_load_unit_lever():
    load = ConstantWorkspace(
        target_link=1, wrench=Wrench2(0.0, (0.0, -1.0)), attach=(1.0, 0.0)
    )
    out = load.body_wrench(Pose2.identity()).as_array()
    np.testing.assert_allclose(out, [-1.0, 0.0, -1.0], atol=1e-15)


def test_spring_at_anchor_is_slack():
    load = LinearSpring(target_link=1, stiffness=1.0, anchor=(3.0, -2.0))
    out = load.body_wrench(Pose2(0.4, (3.0, -2.0))).as_array()
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_spring_derivative_at_anchor():
    k = 0.7
    load = LinearSpring(target_link=1, stiffness=k, anchor=(3.0, -2.0))
    out = load.body_wrench_derivative(Pose2(0.0, (3.0, -2.0)))
    expected = np.zeros((3, 3))
    expected[1:, 1:] = -k * np.eye(2)
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("make", [
    lambda rng: ConstantBody(target_link=1, wrench=Wrench2(rng.uniform(-5, 5), rng.uniform(-5, 5, 2))),
    lambda rng: ConstantWorkspace(target_link=1, wrench=Wrench2(rng.uniform(-5, 5), rng.uniform(-5, 5, 2)), attach=rng.uniform(-10, 10, 2)),
    lambda rng: LinearSpring(target_link=1, stiffness=rng.uniform(0.01, 2.0), anchor=rng.uniform(-30, 30, 2)),
], ids=["constant_body", "constant_workspace", "linear_spring"])
def test_derivatives_match_finite_differences(make, rng):
    worst = 0.0
    for _ in range(100):
        load = make(rng)
        pose = random_pose(rng)
        closed = load.body_wrench_derivative(pose)
        denom = max(np.abs(closed).max(), 1.0)
        worst = max(worst, np.abs(fd_derivative(load, pose) - closed).max() / denom)
    assert worst < 1e-5


def test_pure_moment_workspace_load_has_zero_derivative(rng):
    load = ConstantWorkspace(target_link=1, wrench=Wrench2(4.2, (0.0, 0.0)), attach=(2.0, 1.0))
    for _ in range(20):
        pose = random_pose(rng)
        np.testing.assert_array_equal(load.body_wrench_derivative(pose), np.zeros((3, 3)))
        assert np.abs(fd_derivative(load, pose)).max() < 1e-8


def test_loads_superpose(rng):
    pose = random_pose(rng)
    a = ConstantBody(target_link=2, wrench=Wrench2(1.0, (0.5, 0.0)))
    b = LinearSpring(target_link=2, stiffness=0.3, anchor=(5.0, 5.0))
    c = ConstantWorkspace(target_link=1, wrench=Wrench2(0.0, (1.0, 0.0)))  # other link
    total = net_wrench([a, b, c], 2, pose)
    np.testing.assert_allclose(
        total, a.body_wrench(pose).as_array() + b.body_wrench(pose).as_array(), atol=1e-14
    )
    np.testing.assert_allclose(
        net_derivative([a, b, c], 2, pose),
        a.body_wrench_derivative(pose) + b.body_wrench_derivative(pose),
        atol=1e-14,
    )


def test_negative_stiffness_rejected():
    with pytest.raises(ValueError):
        LinearSpring(target_link=1, stiffness=-0.1, anchor=(0.0, 0.0))


@pytest.mark.parametrize("load", [
    ConstantBody(target_link=5, wrench=Wrench2(np.nan, (0.0, 0.0))),
    ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (np.nan, 0.0))),
    ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.0, 0.0)), attach=(np.inf, 0.0)),
    LinearSpring(target_link=5, stiffness=np.nan, anchor=(60.0, 90.0)),
    LinearSpring(target_link=5, stiffness=0.2, anchor=(60.0, -np.inf)),
], ids=["body_moment", "workspace_force", "workspace_attach", "spring_stiffness",
        "spring_anchor"])
def test_non_finite_load_rejected_at_library_entry(paper5, load):
    # without the check a NaN force reached the block recursion and ended in
    # SingularBlockError after RuntimeWarnings, and the energy oracle returned NaN
    with pytest.raises(ValueError, match="non-finite"):
        solve_tension(paper5, (3.0, 1.0), (load,))
    with pytest.raises(ValueError, match="non-finite"):
        dense_solve(paper5, (3.0, 1.0), (load,))
    if not isinstance(load, ConstantBody):   # the energy refuses body loads first
        with pytest.raises(ValueError, match="non-finite"):
            energy(paper5, paper5.joint_midpoints(), (3.0, 1.0), (load,))
