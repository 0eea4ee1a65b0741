import numpy as np
import pytest

from rolljoint.errors import NoConvergenceError, TensionFloorError
from rolljoint.geometry import Wrench2
from rolljoint.loads import ConstantWorkspace, LinearSpring
from rolljoint.mechanism import joint_geometry, tendon_lengths
from rolljoint.solver_displacement import (
    DisplacementOptions,
    damped_step,
    solve_displacement,
    tendon_jacobian,
)
from rolljoint.solver_tension import SolverOptions, solve_tension
from rolljoint.statics import residual, residual_norm

from conftest import count_calls, max_pose_error

TIGHT = SolverOptions(tol_residual=1e-12)
DISP = DisplacementOptions(grad_tol=1e-8, max_outer_iters=4000, inner=TIGHT)


def fd_jacobian_by_resolve(design, tau, loads, config, rel_step=1e-4):
    h = rel_step * float(np.linalg.norm(tau))
    out = np.zeros((2, 2))
    for col in range(2):
        bump = np.zeros(2)
        bump[col] = h
        upper, _ = solve_tension(design, np.asarray(tau) + bump, loads, init=config, opts=TIGHT)
        lower, _ = solve_tension(design, np.asarray(tau) - bump, loads, init=config, opts=TIGHT)
        out[:, col] = (tendon_lengths(design, upper) - tendon_lengths(design, lower)) / (2 * h)
    return out


def test_jacobian_matches_resolve_differences(paper5):
    for tau in [(4.0, 2.5), (2.0, 5.0)]:
        config, _ = solve_tension(paper5, tau, opts=TIGHT)
        jac = tendon_jacobian(paper5, config, tau)
        fd = fd_jacobian_by_resolve(paper5, tau, (), config)
        assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-4


def test_jacobian_matches_resolve_differences_loaded(paper5):
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.0, -0.2))),)
    tau = (6.0, 3.0)
    config, _ = solve_tension(paper5, tau, loads, opts=TIGHT)
    jac = tendon_jacobian(paper5, config, tau, loads)
    fd = fd_jacobian_by_resolve(paper5, tau, loads, config)
    assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-4


def test_unloaded_jacobian_annihilates_tension_direction(paper5):
    for tau in [(3.0, 1.0), (1.5, 2.5)]:
        config, _ = solve_tension(paper5, tau, opts=TIGHT)
        jac = tendon_jacobian(paper5, config, tau)
        bound = 1e-8 * np.linalg.norm(jac) * np.linalg.norm(tau)
        assert np.linalg.norm(jac @ np.asarray(tau)) <= bound


def test_jacobian_mirror_symmetry_at_straight_pose(paper5):
    config, _ = solve_tension(paper5, (2.0, 2.0), opts=TIGHT)
    jac = tendon_jacobian(paper5, config, (2.0, 2.0))
    assert jac[0, 0] == pytest.approx(jac[1, 1], rel=1e-8)
    assert jac[0, 1] == pytest.approx(jac[1, 0], rel=1e-8)


def test_jacobian_requires_equilibrium(paper5):
    config, _ = solve_tension(paper5, (3.0, 1.0), opts=TIGHT)
    with pytest.raises(ValueError):
        tendon_jacobian(paper5, config, (3.0, 1.2))


def test_round_trip_unloaded(paper5):
    generator, _ = solve_tension(paper5, (6.0, 3.0), opts=TIGHT)
    l_des = tendon_lengths(paper5, generator)
    tau, config, report = solve_displacement(paper5, l_des, tau_init=(1.0, 1.0), opts=DISP)
    assert report.converged
    assert np.abs(np.asarray(report.achieved_lengths) - l_des).max() < 1e-6
    assert max_pose_error(generator.poses, config.poses) < 1e-6
    # unloaded: only the tension ratio is observable
    assert tau[0] / tau[1] == pytest.approx(2.0, abs=1e-6)


def test_round_trip_loaded_recovers_tensions(paper5):
    loads = (LinearSpring(target_link=5, stiffness=0.2, anchor=(60.0, 90.0)),)
    generator, _ = solve_tension(paper5, (3.0, 2.0), loads, opts=TIGHT)
    l_des = tendon_lengths(paper5, generator)
    tau, config, report = solve_displacement(
        paper5, l_des, loads, tau_init=(2.0, 2.5), opts=DISP
    )
    assert report.converged
    assert np.abs(tau - np.array([3.0, 2.0])).max() < 1e-4
    assert np.abs(np.asarray(report.achieved_lengths) - l_des).max() < 1e-6
    assert max_pose_error(generator.poses, config.poses) < 1e-6


def test_infeasible_target_reaches_stationarity(paper5):
    base, _ = solve_tension(paper5, (2.0, 2.0), opts=TIGHT)
    l_des = tendon_lengths(paper5, base) - 5.0  # both tendons shorter: unreachable
    tau, config, report = solve_displacement(paper5, l_des, tau_init=(2.0, 2.0), opts=DISP)
    assert report.converged
    error = np.asarray(report.achieved_lengths) - l_des
    assert np.linalg.norm(error) > 1.0
    jac = tendon_jacobian(paper5, config, tau)
    grad = error @ jac
    scale = max(1.0, np.linalg.norm(error) * np.linalg.norm(jac))
    assert np.linalg.norm(grad) <= DISP.grad_tol * scale


def test_objective_history_is_monotone(paper5):
    generator, _ = solve_tension(paper5, (5.0, 2.0), opts=TIGHT)
    l_des = tendon_lengths(paper5, generator)
    _, _, report = solve_displacement(paper5, l_des, tau_init=(1.0, 1.0), opts=DISP)
    history = np.array(report.objective_history)
    assert np.all(np.diff(history) <= 1e-14 * np.maximum(1.0, history[:-1]))


def test_solution_is_consistent_equilibrium(paper5):
    generator, _ = solve_tension(paper5, (6.0, 3.0), opts=TIGHT)
    l_des = tendon_lengths(paper5, generator)
    tau, config, _ = solve_displacement(paper5, l_des, tau_init=(1.0, 1.0), opts=DISP)
    rows = residual(paper5, config, tau)
    assert residual_norm(rows) <= 1e-9
    resolved, report = solve_tension(paper5, tau, init=config, opts=TIGHT)
    assert report.iterations <= 1
    assert np.abs(resolved.s - config.s).max() < 1e-9


def test_paper_pose_one_target_bends_slightly_left(paper5):
    tau, config, report = solve_displacement(
        paper5, (90.52, 100.88), tau_init=(1.0, 1.0),
        opts=DisplacementOptions(grad_tol=1e-9, inner=TIGHT),
    )
    assert report.converged
    tip = config.poses[-1]
    assert tip.translation[0] < 0.0          # leans toward the shorter left tendon
    assert abs(tip.angle) < 0.6              # but stays near straight
    assert tau[0] > tau[1]


def test_tension_floor_detected(paper5):
    # start at the floor with a target whose descent direction points below
    # it on both tendons: e = J (1,1) makes the gradient e^T J positive
    floor = 1.2
    spring = (LinearSpring(target_link=5, stiffness=0.05, anchor=(30.0, 75.0)),)
    inner = SolverOptions(tol_residual=1e-10)
    base, _ = solve_tension(paper5, (floor, floor), spring, opts=inner)
    jac = tendon_jacobian(paper5, base, (floor, floor), spring)
    # error direction solved from J^T e = (1,1): the gradient e^T J is then
    # exactly (1,1), pushing both tensions below the floor
    err = np.linalg.solve(jac.T, np.ones(2))
    l_des = tendon_lengths(paper5, base) - 0.5 * err / np.linalg.norm(err)
    floor_opts = DisplacementOptions(
        grad_tol=1e-12, max_outer_iters=50, tension_floor=floor, inner=inner)
    with pytest.raises(TensionFloorError):
        solve_displacement(paper5, l_des, spring, tau_init=(floor, floor), opts=floor_opts)


def test_unreachable_stretch_target_stalls_or_pins(paper5):
    # a spring-loaded chain asked to lengthen both tendons beyond reach ends
    # either pinned at the floor or honestly unconverged, never "converged"
    spring = (LinearSpring(target_link=5, stiffness=0.05, anchor=(30.0, 75.0)),)
    inner = SolverOptions(tol_residual=1e-10)
    gen, _ = solve_tension(paper5, (0.8, 0.55), spring, opts=inner)
    l_des = tendon_lengths(paper5, gen)
    floor_opts = DisplacementOptions(
        grad_tol=1e-10, max_outer_iters=600, tension_floor=1.2, inner=inner)
    with pytest.raises((TensionFloorError, NoConvergenceError)):
        solve_displacement(paper5, l_des, spring, tau_init=(1.75, 1.21), opts=floor_opts)


def test_floor_stall_ends_early(paper5):
    # the target above: once one tension is pinned at the floor the other
    # still takes Gauss-Newton steps, so the stall shows within a few steps
    # (gradient descent needed 291 outer iterations and 100 backtracks)
    spring = (LinearSpring(target_link=5, stiffness=0.05, anchor=(30.0, 75.0)),)
    inner = SolverOptions(tol_residual=1e-10)
    gen, _ = solve_tension(paper5, (0.8, 0.55), spring, opts=inner)
    floor_opts = DisplacementOptions(
        grad_tol=1e-10, max_outer_iters=600, tension_floor=1.2, inner=inner)
    with pytest.raises(NoConvergenceError) as info:
        solve_displacement(paper5, tendon_lengths(paper5, gen), spring,
                           tau_init=(1.75, 1.21), opts=floor_opts)
    assert info.value.report.outer_iterations <= 30
    assert info.value.report.backtrack_count <= floor_opts.max_backtracks + 30


def test_option_validation():
    with pytest.raises(ValueError):
        DisplacementOptions(alpha=-1.0)
    with pytest.raises(ValueError):
        DisplacementOptions(tension_floor=0.0)
    with pytest.raises(ValueError):
        DisplacementOptions(max_outer_iters=-1)
    with pytest.raises(ValueError):
        DisplacementOptions(max_backtracks=-1)


def test_initial_tension_below_floor_rejected(paper5):
    with pytest.raises(ValueError):
        solve_displacement(paper5, (90.0, 90.0), tau_init=(1e-5, 1.0))
    for tau_init in ((1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="two"):
            solve_displacement(paper5, (90.0, 90.0), tau_init=tau_init)
    with pytest.raises(ValueError, match="two"):
        solve_displacement(paper5, (90.0, 90.0, 90.0))


def test_non_finite_inputs_rejected(paper5):
    with pytest.raises(ValueError):
        solve_displacement(paper5, (90.0, 90.0), tau_init=(np.nan, 1.0))
    with pytest.raises(ValueError):
        solve_displacement(paper5, (np.nan, 90.0))
    with pytest.raises(ValueError):
        solve_displacement(paper5, (90.0, np.inf))


def test_damped_step_limits(paper5):
    # heavily damped: the paper's gradient step; undamped: Gauss-Newton
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.0, -0.2))),)
    config, _ = solve_tension(paper5, (6.0, 3.0), loads, opts=TIGHT)
    jac = tendon_jacobian(paper5, config, (6.0, 3.0), loads)
    error = np.array([0.3, -1.7])
    grad = error @ jac
    alpha = 1e-12 / np.linalg.norm(jac) ** 2
    step = damped_step(jac.T @ jac, grad, alpha)
    assert np.linalg.norm(step - alpha * grad) <= 1e-9 * np.linalg.norm(alpha * grad)
    step = damped_step(jac.T @ jac, grad, 1e12)
    np.testing.assert_allclose(step, np.linalg.solve(jac, error), rtol=1e-9)


@pytest.mark.parametrize("load", [
    ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.0, -0.2))),
    LinearSpring(target_link=5, stiffness=0.2, anchor=(60.0, 90.0)),
], ids=["tip_pull", "spring"])
def test_loaded_round_trip_with_default_options(paper5, load):
    tau_gen = np.array([6.0, 3.0])
    generator, _ = solve_tension(paper5, tau_gen, (load,), opts=TIGHT)
    l_des = tendon_lengths(paper5, generator)
    tau, _, report = solve_displacement(paper5, l_des, (load,), tau_init=(5.0, 4.0))
    assert report.converged
    assert np.abs(tau - tau_gen).max() < 1e-4


def test_length_error_reports_unreached_target(paper5):
    _, _, report = solve_displacement(paper5, (90.52, 100.88))
    gap = np.abs(np.asarray(report.achieved_lengths) - np.asarray(report.target_lengths))
    assert report.converged                       # a stationary point ...
    assert report.length_error_mm == gap.max()    # ... that misses the target
    assert report.length_error_mm > 1.0


def test_geometry_built_only_for_evaluated_inner_iterates(paper5, monkeypatch):
    # every joint geometry belongs to an iterate some inner solve evaluated
    # (one residual each) or to the cold start's force fit; the lengths and
    # the Jacobian of each equilibrium read the geometry its solve returned
    generator, _ = solve_tension(paper5, (2.5, 1.0))
    target = tendon_lengths(paper5, generator)
    geometry_calls = count_calls(monkeypatch, joint_geometry)
    residual_calls = count_calls(monkeypatch, residual)
    tau, config, report = solve_displacement(paper5, target)
    assert report.converged and report.outer_iterations >= 2
    assert residual_calls[0] > report.outer_iterations
    assert geometry_calls[0] == paper5.joint_count * (residual_calls[0] + 1)

    # started from its own solution, the search evaluates that equilibrium
    # once (no force fit, no Newton step) and stops
    geometry_calls[0] = residual_calls[0] = 0
    again, _, report = solve_displacement(paper5, target, tau_init=tau, init=config)
    assert report.converged and report.outer_iterations == report.inner_iterations == 0
    assert residual_calls[0] == 1
    assert geometry_calls[0] == paper5.joint_count
    np.testing.assert_array_equal(again, tau)
