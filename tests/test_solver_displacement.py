import gc
import weakref

import numpy as np
import pytest

from rolljoint import mechanism, solver_displacement, solver_tension
from rolljoint.catalog import demo_five_link, standard_link_chain
from rolljoint.errors import DegenerateTendonError, NoConvergenceError, TensionFloorError
from rolljoint.geometry import Pose2, Wrench2
from rolljoint.loads import ConstantWorkspace, LinearSpring
from rolljoint.mechanism import forward_poses, joint_geometry, tendon_lengths
from rolljoint.solver_displacement import (
    MAX_BACKTRACKS,
    DisplacementOptions,
    damped_step,
    solve_displacement,
    tendon_jacobian,
)
from rolljoint.solver_tension import SolverOptions, solve_tension
from rolljoint.statics import assemble_blocks, residual, residual_norm
from rolljoint.surface import CircularArc

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
    assert info.value.report.backtrack_count <= MAX_BACKTRACKS + 30


def test_option_validation():
    with pytest.raises(ValueError):
        DisplacementOptions(tension_floor=0.0)
    with pytest.raises(ValueError):
        DisplacementOptions(max_outer_iters=-1)
    for limit in (2.5, True):
        with pytest.raises(TypeError, match="max_outer_iters"):
            DisplacementOptions(max_outer_iters=limit)


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


def _spy_start_solves(monkeypatch):
    """Record the report of every `solve_tension` the displacement solver
    calls."""
    reports = []

    def spy(*args, **kwargs):
        config, report = solve_tension(*args, **kwargs)
        reports.append(report)
        return config, report

    monkeypatch.setattr(solver_displacement, "solve_tension", spy)
    return reports


def test_geometry_built_only_for_evaluated_inner_iterates(monkeypatch):
    # every joint geometry belongs to an evaluated iterate: the start solve's
    # iterates (the cold start's force fit reads its start iterate's), and
    # one trial per accepted or rejected step; each iterate's blocks are
    # assembled once and give its residual rows and, once accepted, the next
    # step's elimination (the descent starts from the start solve's last
    # blocks); the lengths and the blocks read the geometry it carries.  A
    # new design has no kept cold start, so its first request solves one
    paper5 = demo_five_link()
    generator, _ = solve_tension(paper5, (2.5, 1.0))
    target = tendon_lengths(paper5, generator)
    starts = _spy_start_solves(monkeypatch)
    geometry_calls = count_calls(monkeypatch, joint_geometry)
    residual_calls = count_calls(monkeypatch, residual)
    block_calls = count_calls(monkeypatch, assemble_blocks)
    tau, config, report = solve_displacement(paper5, target)
    assert report.converged and report.outer_iterations >= 2
    [start] = starts
    start_iterates = 1 + start.iterations + start.backtrack_count
    trials = report.outer_iterations + report.backtrack_count
    assert residual_calls[0] == 0
    assert geometry_calls[0] == start_iterates + trials
    # one per evaluated iterate; the force fit reads the contact co-adjoints
    # and the tendon pulls, not the blocks
    assert block_calls[0] == start_iterates + trials

    # started from its own solution, the search reads that equilibrium's
    # geometry once (no force fit, no Newton step, no new build) and stops
    geometry_calls[0] = residual_calls[0] = block_calls[0] = 0
    again, _, report = solve_displacement(paper5, target, tau_init=tau, init=config)
    assert report.converged and report.outer_iterations == report.inner_iterations == 0
    assert residual_calls[0] == 0 and block_calls[0] == 1
    assert geometry_calls[0] == 0
    np.testing.assert_array_equal(again, tau)



def test_collapsed_tendon_trial_is_a_rejected_trial(monkeypatch):
    # a trial whose gap segment collapses is backtracked like one whose
    # merit does not decrease, and the descent goes on to converge
    design = demo_five_link()
    target = tendon_lengths(design, solve_tension(design, (2.5, 1.0))[0])
    _, _, plain = solve_displacement(design, target)
    evaluate = solver_displacement.evaluate
    raised = []

    def collapsing(*args):
        if not raised:
            raised.append(True)
            raise DegenerateTendonError("gap segment collapsed")
        return evaluate(*args)

    monkeypatch.setattr(solver_displacement, "evaluate", collapsing)
    _, _, report = solve_displacement(demo_five_link(), target)
    assert raised and report.converged
    assert report.backtrack_count == plain.backtrack_count + 1
    assert report.length_error_mm <= 1e-6

def test_reached_target_whose_step_rounds_to_zero_is_stationary(poly3):
    # a benchmark request (seed 116, request 195): after 4 steps the lengths
    # are 1e-11 mm from the target and the balance is within tolerance, but
    # the gradient is above grad_tol and the next damped step rounds to no
    # tension change; no representable step is left, so the descent converged
    generator, _ = solve_tension(poly3, (2.0212139499897717, 1.4666997748943178))
    _, config, report = solve_displacement(poly3, tendon_lengths(poly3, generator))
    assert report.converged and report.outer_iterations == 4
    assert report.gradient_norm > DisplacementOptions().grad_tol
    assert report.length_error_mm < 1e-10
    assert max_pose_error(generator.poses, config.poses) < 1e-9


@pytest.mark.parametrize("balanced", [True, False])
def test_zero_first_step_is_stationary_only_where_balanced(monkeypatch, balanced):
    # with every damped step rounding to no tension change, the balanced
    # start is stationary; a start off balance is stuck
    design = demo_five_link()
    target = tendon_lengths(design, solve_tension(design, (2.5, 1.0))[0])
    monkeypatch.setattr(solver_displacement, "damped_step", lambda *args: (0.0, 0.0))
    if not balanced:
        rows = solver_displacement.block_residual
        monkeypatch.setattr(solver_displacement, "block_residual", lambda *args: rows(*args) + 1.0)
        with pytest.raises(NoConvergenceError):
            solve_displacement(design, target)
        return
    tau, _, report = solve_displacement(design, target)
    assert report.converged and report.outer_iterations == 1
    np.testing.assert_array_equal(tau, (1.0, 1.0))


def test_zero_step_after_a_rejection_stays_unconverged(monkeypatch):
    # the first trial collapses a tendon and is rejected, and its damped
    # retry rounds to no tension change: the step is stuck, not stationary
    design = demo_five_link()
    target = tendon_lengths(design, solve_tension(design, (2.5, 1.0))[0])
    damped = solver_displacement.damped_step
    steps = []

    def collapsing(*args):
        raise DegenerateTendonError("gap segment collapsed")

    def vanishing_after_the_first(normal, grad, alpha):
        steps.append(alpha)
        return damped(normal, grad, alpha) if len(steps) == 1 else (0.0, 0.0)

    monkeypatch.setattr(solver_displacement, "evaluate", collapsing)
    monkeypatch.setattr(solver_displacement, "damped_step", vanishing_after_the_first)
    with pytest.raises(NoConvergenceError) as info:
        solve_displacement(design, target)
    assert len(steps) == 2 and info.value.report.backtrack_count == 1


def test_unloaded_iterates_build_no_per_object_values(paper5, monkeypatch):
    # each evaluated iterate is one array pass: the surfaces are looked up
    # as a stack, not through frame_at, and no Pose2 is built, since an
    # unloaded balance never reads the link poses
    generator, _ = solve_tension(paper5, (2.5, 1.0))
    target = tendon_lengths(paper5, generator)
    frame_calls, pose_calls = [], []
    frame_at, post_init = CircularArc.frame_at, Pose2.__post_init__
    monkeypatch.setattr(CircularArc, "frame_at",
                        lambda self, s: frame_calls.append(s) or frame_at(self, s))
    monkeypatch.setattr(Pose2, "__post_init__",
                        lambda self: pose_calls.append(self) or post_init(self))
    tau, config, report = solve_displacement(paper5, target)
    assert report.converged and report.outer_iterations >= 2
    assert frame_calls == [] and pose_calls == []
    # the returned configuration builds its poses on first read
    assert len(config.poses) == paper5.n and len(pose_calls) == paper5.n
    assert config.poses is config.poses


@pytest.mark.parametrize("pull", [0.0, 0.5], ids=["unloaded", "tip_pull"])
def test_each_outer_step_is_one_elimination(paper5, monkeypatch, pull):
    # one solve_tension (the start); one elimination per outer step, one for
    # the final test and one per Newton step of the start, each with n-2
    # interior 3x3 inversions and one 6x6 boundary solve
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (pull, 0.0))),)
    generator, _ = solve_tension(paper5, (4.0, 2.0), loads)
    target = tendon_lengths(paper5, generator)
    starts = _spy_start_solves(monkeypatch)
    eliminations = count_calls(monkeypatch, solver_tension.block_solve)
    boundary_sizes = []
    interior_inversions = [0]

    def boundary_solve(matrix, rhs, what):
        boundary_sizes.append(matrix.shape)
        return equilibrated_solve(matrix, rhs, what)

    def inverses(stack, what):
        interior_inversions[0] += len(stack)
        return checked_inverses(stack, what)

    equilibrated_solve = solver_tension._equilibrated_solve
    checked_inverses = solver_tension._checked_inverses
    monkeypatch.setattr(solver_tension, "_equilibrated_solve", boundary_solve)
    monkeypatch.setattr(solver_tension, "_checked_inverses", inverses)
    _, _, report = solve_displacement(paper5, target, loads)
    assert report.converged
    assert len(starts) == 1 and report.inner_iterations == starts[0].iterations
    expected = report.outer_iterations + 1 + report.inner_iterations
    assert eliminations[0] == expected
    assert boundary_sizes == [(6, 6)] * expected
    assert interior_inversions[0] == expected * (paper5.n - 2)
    if pull:
        assert report.inner_iterations >= 1


def test_rounding_sensitive_loaded_descent_converges(paper5):
    # loaded paper5 under a 0.239 N tip pull, a case whose descent once
    # amplified rounding about threefold per step (41 outer steps when each
    # trial re-solved the equilibrium); one elimination per step converges
    # in a few
    tau_gen = np.array([4.153896484486077, 1.9280142466445205])
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.23924418621865262, 0.0))),)
    generator, _ = solve_tension(paper5, tau_gen, loads)
    tau, _, report = solve_displacement(paper5, tendon_lengths(paper5, generator), loads)
    assert report.converged
    assert report.outer_iterations <= 15
    assert np.abs(tau - tau_gen).max() < 1e-4


def _benchmark_range_round_trips(design) -> list:
    """Reports of unloaded round trips from generator tensions in the
    displacement benchmark's range."""
    rng = np.random.default_rng(15)
    reports = []
    for _ in range(4):
        small = rng.uniform(1.0, 2.0)
        tau_gen = np.array([small, small * rng.uniform(1.0, 3.0)])
        if rng.random() < 0.5:
            tau_gen = tau_gen[::-1]
        generator, _ = solve_tension(design, tau_gen)
        reports.append(solve_displacement(design, tendon_lengths(design, generator))[2])
    return reports


@pytest.mark.parametrize("key", ["paper5", "poly3"])
def test_unloaded_round_trips_take_few_outer_steps(request, key):
    # a first step near Gauss-Newton (alpha = 100 / ||J||_F^2) leaves no
    # step to climbing the damping ramp
    for report in _benchmark_range_round_trips(request.getfixturevalue(key)):
        assert report.converged
        assert report.outer_iterations <= 5


@pytest.mark.parametrize("key", ["paper5", "poly3"])
def test_unloaded_round_trips_take_at_most_four_outer_steps(request, key):
    # where the trial's decrease matches the model's, the damping is
    # released by ALPHA_GROWTH**2, so the length error is not held to the
    # factor 1 / (1 + alpha ||J||^2) of a fixed ramp
    for report in _benchmark_range_round_trips(request.getfixturevalue(key)):
        assert report.converged
        assert report.outer_iterations <= 4


def test_weak_pull_descent_passes_its_rejected_newton_part(paper5):
    # paper5 under a 0.071 N tip pull: with alpha grown only by
    # ALPHA_GROWTH, step 3 kept a Newton part ds0 that raised the length
    # error more than it lowered the balance rows, and all 41 retries of
    # that step failed; the faster release reaches the answer before it
    tau_gen = np.array([1.2759800658716185, 3.7402645227778684])
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.07110778993662004, 0.0))),)
    generator, _ = solve_tension(paper5, tau_gen, loads)
    tau, config, report = solve_displacement(paper5, tendon_lengths(paper5, generator), loads)
    assert report.converged and report.backtrack_count == 0
    assert np.abs(tau - tau_gen).max() < 1e-4
    assert max_pose_error(generator.poses, config.poses) < 1e-6


def test_unloaded_descent_chains_no_link_poses(paper5, monkeypatch):
    # an unloaded balance never reads the link poses, so no iterate of the
    # descent chains them; the returned configuration chains them once, on
    # its first read, to the bits of forward_poses
    generator, _ = solve_tension(paper5, (2.5, 1.0))
    target = tendon_lengths(paper5, generator)
    chains = count_calls(monkeypatch, mechanism._pose_chain)
    _, config, report = solve_displacement(paper5, target)
    assert report.converged and report.outer_iterations >= 2
    assert chains[0] == 0
    angles, translations = config.link_angles, config.link_translations
    assert len(config.poses) == paper5.n
    assert chains[0] == 1
    reference = forward_poses(paper5, config.s)
    assert angles.tobytes() == np.array([pose.angle for pose in reference]).tobytes()
    assert translations.tobytes() == np.array([pose.translation for pose in reference]).tobytes()


def test_warm_loaded_long_chain_converges():
    # a 20-link chain under a weak tip pull, warm-started at the equilibrium
    # of (3, 2) N for the lengths of (2.4, 2.4) N; a first step of half the
    # Gauss-Newton step along J's strong direction led to an iterate whose
    # Newton part alone raised the length error, so that every retry of
    # the next step was rejected
    design = standard_link_chain(20)
    loads = (ConstantWorkspace(target_link=20, wrench=Wrench2(0.0, (0.0125, 0.0))),)
    generator, _ = solve_tension(design, (2.4, 2.4), loads)
    start, _ = solve_tension(design, (3.0, 2.0), loads)
    tau, _, report = solve_displacement(design, tendon_lengths(design, generator), loads,
                                        tau_init=(3.0, 2.0), init=start)
    assert report.converged
    assert report.backtrack_count == 0
    assert np.abs(tau - 2.4).max() < 1e-4


def _round_trip_target(design, tau_gen=(2.5, 1.0), loads=()):
    generator, _ = solve_tension(design, tau_gen, loads)
    return tendon_lengths(design, generator)


def _same_bits(first, again):
    (tau_a, config_a, report_a), (tau_b, config_b, report_b) = first, again
    assert tau_a.tobytes() == tau_b.tobytes()
    assert config_a.s.tobytes() == config_b.s.tobytes()
    assert config_a.f.tobytes() == config_b.f.tobytes()
    assert report_a == report_b


def test_repeated_cold_request_reuses_the_start(monkeypatch):
    # the second cold request on a design with the same tau_init, loads and
    # options solves no start (neither its Newton steps nor its first
    # elimination), and returns the same bits
    design = demo_five_link()
    target = _round_trip_target(design)
    starts = _spy_start_solves(monkeypatch)
    eliminations = count_calls(monkeypatch, solver_tension.block_solve)
    first = solve_displacement(design, target, tau_init=(1.5, 1.0))
    cold_eliminations, eliminations[0] = eliminations[0], 0
    [start] = starts
    assert start.iterations >= 1
    again = solve_displacement(design, target, tau_init=(1.5, 1.0))
    assert len(starts) == 1
    assert eliminations[0] == cold_eliminations - 1 - start.iterations
    _same_bits(first, again)
    assert again[2].inner_iterations == start.iterations
    # another target on the same design reads the same start
    solve_displacement(design, _round_trip_target(design, (1.0, 2.0)), tau_init=(1.5, 1.0))
    assert len(starts) == 1
    # the kept arrays are read-only
    *_, (config, report, lengths, rows, columns) = solver_displacement._COLD_STARTS[design]
    geometry = config.geometry
    arrays = [config.s, config.f, lengths, rows, *columns,
              *vars(report.blocks).values(), *vars(geometry.segments).values(),
              *(value for value in vars(geometry).values() if isinstance(value, np.ndarray))]
    assert not any(array.flags.writeable for array in arrays)


def test_cold_start_key_misses(monkeypatch):
    # the start is kept for one (tau_init, load objects, inner options) per
    # design; a warm start neither reads nor replaces it
    design = demo_five_link()
    pull = ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.0, -0.2)))
    target = _round_trip_target(design, (6.0, 3.0), (pull,))
    solves = []

    def spy(*args, **kwargs):
        solves.append(kwargs.get("init"))
        return solve_tension(*args, **kwargs)

    def solved(loads, tau_init=(5.0, 4.0), inner=SolverOptions(), init=None):
        before = len(solves)
        solve_displacement(design, target, loads, tau_init=tau_init,
                           opts=DisplacementOptions(inner=inner), init=init)
        return len(solves) - before

    monkeypatch.setattr(solver_displacement, "solve_tension", spy)
    assert solved((pull,)) == 1
    assert solved((pull,)) == 0
    _, config, _ = solve_displacement(design, target, (pull,), tau_init=(5.0, 4.0))
    assert solved((pull,), init=config) == 1 and solves[-1] is config
    assert solved((pull,)) == 0
    assert solved((pull,), tau_init=(5.0, 4.5)) == 1
    same_values = ConstantWorkspace(target_link=5, wrench=pull.wrench)
    assert solved((same_values,), tau_init=(5.0, 4.5)) == 1
    tighter = SolverOptions(tol_residual=1e-10)
    assert solved((same_values,), tau_init=(5.0, 4.5), inner=tighter) == 1
    assert solved((same_values,), tau_init=(5.0, 4.5), inner=tighter) == 0
    # equal options built anew still match
    assert solved((same_values,), tau_init=(5.0, 4.5),
                  inner=SolverOptions(tol_residual=1e-10)) == 0


class UnhashablePull(ConstantWorkspace):
    """A user load type whose instances cannot be hashed."""

    __hash__ = None


def test_list_and_unhashable_loads_solve():
    # the key holds the loads element by element, compared by identity, so
    # neither a list nor an unhashable load type needs hashing
    design = demo_five_link()
    pull = UnhashablePull(target_link=5, wrench=Wrench2(0.0, (1.0, -0.2)))
    with pytest.raises(TypeError):
        hash(pull)
    target = _round_trip_target(design, (6.0, 3.0), (pull,))
    first = solve_displacement(design, target, [pull], tau_init=(5.0, 4.0))
    assert first[2].converged
    _same_bits(first, solve_displacement(design, target, [pull], tau_init=(5.0, 4.0)))
    _same_bits(first, solve_displacement(design, target, (pull,), tau_init=(5.0, 4.0)))


def test_failed_start_is_not_kept(monkeypatch):
    # a start whose equilibrium solve raises is solved, and raises, again
    design = demo_five_link()
    pull = ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.0, -0.2)))
    target = _round_trip_target(design, (6.0, 3.0), (pull,))
    short = DisplacementOptions(inner=SolverOptions(max_iters=1))
    starts = []

    def spy(*args, **kwargs):
        starts.append(kwargs.get("init"))
        return solve_tension(*args, **kwargs)

    monkeypatch.setattr(solver_displacement, "solve_tension", spy)
    for attempt in (1, 2):
        with pytest.raises(NoConvergenceError):
            solve_displacement(design, target, (pull,), tau_init=(5.0, 4.0), opts=short)
        assert len(starts) == attempt
    assert design not in solver_displacement._COLD_STARTS


def test_kept_start_does_not_keep_its_design():
    design = demo_five_link()
    solve_displacement(design, _round_trip_target(design))
    assert design in solver_displacement._COLD_STARTS
    alive = weakref.ref(design)
    del design
    gc.collect()
    assert alive() is None
