from types import SimpleNamespace

import numpy as np
import pytest

from rolljoint import solver_displacement, solver_tension
from rolljoint.catalog import demo_five_link, standard_link_chain
from rolljoint.errors import InvalidLoadError
from rolljoint.geometry import Pose2, Twist2, Wrench2, compose, exp_twist
from rolljoint.loads import (
    ConstantBody,
    ConstantWorkspace,
    LinearSpring,
    check_targets,
    net_derivative,
    net_wrench,
)
from rolljoint.mechanism import evaluate, tendon_lengths
from rolljoint.oracle import dense_solve, energy
from rolljoint.solver_displacement import solve_displacement
from rolljoint.solver_tension import solve_tension
from rolljoint.statics import assemble_blocks, residual

from conftest import count_calls


def random_pose(rng):
    return Pose2(rng.uniform(-np.pi, np.pi), rng.uniform(-40, 40, 2))


def at(pose):
    """A pose as the (rotation, translation) the per-load calls take."""
    return pose.rotation, pose.translation


def link_arrays(poses):
    """Link poses as the link-pose arrays `net_wrench` reads from a
    configuration."""
    return SimpleNamespace(link_angles=np.array([pose.angle for pose in poses]),
                           link_translations=np.array([pose.translation for pose in poses]))


def fd_derivative(load, pose, h=1e-6):
    out = np.zeros((3, 3))
    for col in range(3):
        delta = np.zeros(3)
        delta[col] = h
        plus = load.body_wrench(*at(compose(pose, exp_twist(Twist2(delta[0], delta[1:])))))
        minus = load.body_wrench(*at(compose(pose, exp_twist(Twist2(-delta[0], -delta[1:])))))
        out[:, col] = (plus - minus) / (2 * h)
    return out


def test_zero_body_load_stays_zero(rng):
    load = ConstantBody(target_link=1)
    for _ in range(10):
        assert np.all(load.body_wrench(*at(random_pose(rng))) == 0.0)


def test_body_load_is_pose_independent(rng):
    load = ConstantBody(target_link=1, wrench=Wrench2(2.0, (-1.0, 0.5)))
    for _ in range(10):
        np.testing.assert_array_equal(
            load.body_wrench(*at(random_pose(rng))), [2.0, -1.0, 0.5]
        )
        np.testing.assert_array_equal(load.body_wrench_derivative(*at(random_pose(rng))),
                                      np.zeros((3, 3)))


def test_workspace_load_unit_lever():
    load = ConstantWorkspace(
        target_link=1, wrench=Wrench2(0.0, (0.0, -1.0)), attach=(1.0, 0.0)
    )
    out = load.body_wrench(*at(Pose2.identity()))
    np.testing.assert_allclose(out, [-1.0, 0.0, -1.0], atol=1e-15)


def test_spring_at_anchor_is_slack():
    load = LinearSpring(target_link=1, stiffness=1.0, anchor=(3.0, -2.0))
    out = load.body_wrench(*at(Pose2(0.4, (3.0, -2.0))))
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_spring_derivative_at_anchor():
    k = 0.7
    load = LinearSpring(target_link=1, stiffness=k, anchor=(3.0, -2.0))
    out = load.body_wrench_derivative(*at(Pose2(0.0, (3.0, -2.0))))
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
        closed = load.body_wrench_derivative(*at(pose))
        denom = max(np.abs(closed).max(), 1.0)
        worst = max(worst, np.abs(fd_derivative(load, pose) - closed).max() / denom)
    assert worst < 1e-5


def test_pure_moment_workspace_load_has_zero_derivative(rng):
    load = ConstantWorkspace(target_link=1, wrench=Wrench2(4.2, (0.0, 0.0)), attach=(2.0, 1.0))
    for _ in range(20):
        pose = random_pose(rng)
        np.testing.assert_array_equal(load.body_wrench_derivative(*at(pose)), np.zeros((3, 3)))
        assert np.abs(fd_derivative(load, pose)).max() < 1e-8


def test_loads_superpose(rng):
    poses = [random_pose(rng) for _ in range(3)]
    a = ConstantBody(target_link=2, wrench=Wrench2(1.0, (0.5, 0.0)))
    b = LinearSpring(target_link=2, stiffness=0.3, anchor=(5.0, 5.0))
    c = ConstantWorkspace(target_link=1, wrench=Wrench2(0.0, (1.0, 0.0)))  # the base
    total = net_wrench([a, b, c], link_arrays(poses))
    assert total.shape == (2, 3)
    np.testing.assert_allclose(
        total[0], a.body_wrench(*at(poses[1])) + b.body_wrench(*at(poses[1])),
        atol=1e-14,
    )
    np.testing.assert_array_equal(total[1], np.zeros(3))
    derivative = net_derivative([a, b, c], link_arrays(poses))
    assert derivative.shape == (2, 3, 3)
    np.testing.assert_allclose(
        derivative[0],
        a.body_wrench_derivative(*at(poses[1])) + b.body_wrench_derivative(*at(poses[1])),
        atol=1e-14,
    )
    np.testing.assert_array_equal(derivative[1], np.zeros((3, 3)))


def per_link_reference(loads, poses):
    """Link-by-link sums of `body_wrench` / `body_wrench_derivative` over
    the loads whose target is that link, for links 2..n."""
    links = range(2, len(poses) + 1)
    wrench = np.array([sum((load.body_wrench(*at(poses[k - 1]))
                            for load in loads if load.target_link == k), np.zeros(3))
                       for k in links])
    derivative = np.array([sum((load.body_wrench_derivative(*at(poses[k - 1]))
                                for load in loads if load.target_link == k), np.zeros((3, 3)))
                           for k in links])
    return wrench, derivative


def _pull(link, fx=0.3, fy=-0.2):
    return ConstantWorkspace(target_link=link, wrench=Wrench2(0.1, (fx, fy)), attach=(1.0, 2.0))


@pytest.mark.parametrize("make_loads", [
    lambda n: (_pull(1),),
    lambda n: (_pull(3), LinearSpring(target_link=3, stiffness=0.2, anchor=(10.0, 60.0))),
    lambda n: tuple(_pull(k, 0.05 * k) for k in range(1, n + 1)),
    # a target off the chain or between links acts on no link
    lambda n: (_pull(n + 1), _pull(0), _pull(4.5), _pull(n)),
], ids=["base_link", "two_on_one_link", "every_link", "off_chain_and_fractional"])
def test_stacked_loads_match_per_link_reference(paper5, make_loads):
    config, _ = solve_tension(paper5, (3.0, 1.0))
    loads = make_loads(paper5.n)
    wrench, derivative = per_link_reference(loads, config.poses)
    assert wrench.shape == (paper5.n - 1, 3)
    np.testing.assert_array_equal(net_wrench(loads, config), wrench)
    np.testing.assert_array_equal(net_derivative(loads, config), derivative)


def test_loads_evaluated_once_per_residual_and_block_assembly(monkeypatch):
    # the loads of the whole chain are one call, not one call per link
    design = standard_link_chain(50)
    config = evaluate(design, design.joint_midpoints(), np.zeros((design.joint_count, 2)))
    loads = (_pull(design.n),)
    wrench_calls = count_calls(monkeypatch, net_wrench)
    derivative_calls = count_calls(monkeypatch, net_derivative)
    residual(design, config, (3.0, 2.0), loads)
    assert (wrench_calls[0], derivative_calls[0]) == (1, 0)
    assemble_blocks(design, config, (3.0, 2.0), loads)
    assert (wrench_calls[0], derivative_calls[0]) == (2, 1)


@pytest.mark.parametrize("target", [4.5, True, "5"], ids=["fractional", "bool", "string"])
def test_load_target_that_is_no_link_number_rejected(paper5, target):
    # none of these names a link: the balance would ignore a fractional
    # target and read True as link 1, so the load is refused up front
    load = ConstantWorkspace(target_link=target, wrench=Wrench2(0.0, (1.0, 0.0)))
    with pytest.raises(InvalidLoadError, match=rf"ConstantWorkspace load target_link {target!r}"):
        check_targets((load,), paper5.n)
    with pytest.raises(InvalidLoadError):
        solve_tension(paper5, (3.0, 1.0), (load,))
    with pytest.raises(InvalidLoadError):
        energy(paper5, paper5.joint_midpoints(), (3.0, 1.0), (load,))


@pytest.mark.parametrize("target", [5.0, np.int64(5)], ids=["whole_float", "numpy_int"])
def test_whole_load_target_accepted(paper5, target):
    pull = Wrench2(0.0, (1.0, 0.0))
    whole = (ConstantWorkspace(target_link=target, wrench=pull),)
    integer = (ConstantWorkspace(target_link=5, wrench=pull),)
    config, _ = solve_tension(paper5, (3.0, 1.0), whole)
    expected, _ = solve_tension(paper5, (3.0, 1.0), integer)
    np.testing.assert_array_equal(config.s, expected.s)
    s = paper5.joint_midpoints()
    assert energy(paper5, s, (3.0, 1.0), whole) == energy(paper5, s, (3.0, 1.0), integer)


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


def test_loaded_solves_build_no_pose_tuple(monkeypatch):
    # the balances read the link-pose arrays, so neither a loaded tension
    # solve nor a loaded displacement solve builds `Configuration.poses` on
    # any configuration it evaluates or returns
    evaluated = []

    def recorded(design, s, f):
        evaluated.append(evaluate(design, s, f))
        return evaluated[-1]

    for module in (solver_tension, solver_displacement):
        monkeypatch.setattr(module, "evaluate", recorded)
    design = demo_five_link()
    pull = (ConstantWorkspace(target_link=design.n, wrench=Wrench2(0.0, (0.2, 0.0))),)
    generator, _ = solve_tension(design, (2.0, 1.2), pull)
    _, returned, _ = solve_displacement(design, tendon_lengths(design, generator), pull)
    assert len(evaluated) > 2
    assert all("poses" not in vars(c) for c in (generator, returned, *evaluated))
