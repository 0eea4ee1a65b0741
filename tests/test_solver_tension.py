import numpy as np
import pytest

from rolljoint.errors import (
    ContactRolloffError,
    NoConvergenceError,
    RolljointError,
    SingularBlockError,
)
from rolljoint.geometry import Wrench2
from rolljoint.loads import ConstantWorkspace, LinearSpring
from rolljoint.mechanism import Configuration, tendon_lengths
from rolljoint import solver_tension
from rolljoint.solver_tension import (
    CONDITION_LIMIT,
    SolverOptions,
    _checked_inverse,
    _clamp_s,
    _equilibrate,
    _equilibrated_solve,
    _pinned_joints,
    newton_step,
    solve_tension,
)
from rolljoint.statics import residual, residual_norm

from conftest import max_pose_error
from helpers import dense_newton_step

TIGHT = SolverOptions(tol_residual=1e-12)


def test_requires_positive_tensions(paper5):
    with pytest.raises(ValueError):
        solve_tension(paper5, (0.0, 1.0))
    with pytest.raises(ValueError):
        solve_tension(paper5, (1.0, -2.0))
    with pytest.raises(ValueError):
        solve_tension(paper5, (np.nan, 1.0))
    with pytest.raises(ValueError):
        solve_tension(paper5, (1.0, np.inf))
    for tau in ((1.0,), (1.0, 1.0, 1.0), [[1.0, 1.0]]):
        with pytest.raises(ValueError, match="two"):
            solve_tension(paper5, tau)


def test_nan_residual_never_converges(paper5):
    # a NaN load makes every residual NaN; the loop must not read that as
    # within tolerance
    nan_pull = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (np.nan, 0.0))),)
    with pytest.raises(RolljointError):
        solve_tension(paper5, (1.0, 1.0), nan_pull)


def test_equal_tensions_give_straight_stack(paper5):
    config, report = solve_tension(paper5, (1.0, 1.0))
    assert report.converged
    np.testing.assert_allclose(config.s, 0.0, atol=1e-10)
    assert abs(config.poses[-1].angle) < 1e-10
    np.testing.assert_allclose(config.poses[-1].translation, [0.0, 80.0], atol=1e-9)


def test_converged_report_satisfies_tolerance(paper5):
    opts = SolverOptions(tol_residual=1e-10)
    config, report = solve_tension(paper5, (3.0, 1.0), opts=opts)
    assert report.converged
    assert report.final_residual_norm <= opts.tol_residual
    rows = residual(paper5, config, (3.0, 1.0))
    assert residual_norm(rows) <= opts.tol_residual


def test_fixed_point_restart(paper5):
    config, _ = solve_tension(paper5, (3.0, 1.0), opts=TIGHT)
    again, report = solve_tension(paper5, (3.0, 1.0), init=config, opts=TIGHT)
    assert report.iterations <= 1
    assert np.abs(again.s - config.s).max() < 1e-12


def test_newton_step_vanishes_at_equilibrium(paper5):
    config, _ = solve_tension(paper5, (3.0, 1.0), opts=TIGHT)
    step = newton_step(paper5, config, (3.0, 1.0))
    assert np.abs(step.ds).max() < 1e-9
    assert np.abs(step.df).max() < 1e-9


@pytest.mark.parametrize("fixture_name", ["chain2", "paper5"])
def test_recursive_step_equals_dense_block_step(fixture_name, request, rng):
    design = request.getfixturevalue(fixture_name)
    joints = design.joint_count
    s = rng.uniform(-3, 3, joints)
    f = rng.uniform(-1, 1, (joints, 2))
    config = Configuration.from_unknowns(design, s, f)
    tau = (2.5, 1.0)
    step = newton_step(design, config, tau)
    ds_dense, df_dense = dense_newton_step(design, config, tau)
    scale = max(np.abs(ds_dense).max(), np.abs(df_dense).max(), 1.0)
    assert np.abs(step.ds - ds_dense).max() / scale < 1e-8
    assert np.abs(step.df - df_dense).max() / scale < 1e-8


def test_doubled_tensions_reproduce_configuration(paper5):
    for pair in [((3, 1), (6, 2)), ((1, 3), (2, 6))]:
        c_base, _ = solve_tension(paper5, pair[0])
        c_doubled, _ = solve_tension(paper5, pair[1])
        assert np.abs(c_base.s - c_doubled.s).max() < 1e-8
        assert max_pose_error(c_base.poses, c_doubled.poses) < 1e-8
        rel = np.abs(c_doubled.f - 2.0 * c_base.f).max() / np.abs(c_doubled.f).max()
        assert rel < 1e-8


def test_tension_ratio_invariance(paper5):
    base, _ = solve_tension(paper5, (3.0, 1.0), opts=TIGHT)
    for lam in (0.5, 2.0, 10.0):
        scaled, _ = solve_tension(paper5, (3.0 * lam, 1.0 * lam), opts=TIGHT)
        assert np.abs(scaled.s - base.s).max() < 1e-8
        assert max_pose_error(scaled.poses, base.poses) < 1e-8
        rel = np.abs(scaled.f - lam * base.f).max() / np.abs(scaled.f).max()
        assert rel < 1e-8


def test_load_scaling_covariance(paper5):
    def loads(lam):
        return (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.8 * lam, -0.1 * lam))),
                LinearSpring(target_link=3, stiffness=0.05 * lam, anchor=(25.0, 40.0)))
    base, _ = solve_tension(paper5, (6.0, 3.0), loads(1.0), opts=TIGHT)
    for lam in (0.5, 3.0):
        scaled, _ = solve_tension(paper5, (6.0 * lam, 3.0 * lam), loads(lam), opts=TIGHT)
        assert np.abs(scaled.s - base.s).max() < 1e-8
        assert max_pose_error(scaled.poses, base.poses) < 1e-8
        rel = np.abs(scaled.f - lam * base.f).max() / np.abs(scaled.f).max()
        assert rel < 1e-8


def test_loaded_pull_bends_rightward(paper5):
    tips = []
    for pull in (0.0, 0.75, 1.5):
        loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (pull, 0.0))),) if pull else ()
        config, report = solve_tension(paper5, (6.0, 3.0), loads)
        assert report.converged and report.iterations <= 50
        tips.append(config.poses[-1].translation[0])
    assert tips[0] < tips[1] < tips[2]


def test_quadratic_convergence_tail(paper5):
    _, report = solve_tension(paper5, (3.0, 1.0), opts=SolverOptions(tol_residual=1e-13))
    history = np.array(report.residual_history)
    checked = 0
    for prev, nxt in zip(history, history[1:]):
        if 1e-12 < nxt and prev < 1e-3:
            slope = np.log(nxt) / np.log(prev)
            assert slope >= 1.8
            checked += 1
    assert checked >= 1
    assert report.backtrack_count == 0  # pure Newton near the solution


def test_iteration_cost_structure(paper5):
    _, report = solve_tension(paper5, (3.0, 1.0))
    n = paper5.n
    assert report.inversions_3x3 == report.iterations * (n - 2)
    assert report.solves_6x6 == report.iterations


def test_no_convergence_carries_report(paper5):
    with pytest.raises(NoConvergenceError) as excinfo:
        solve_tension(paper5, (3.0, 1.0), opts=SolverOptions(max_iters=1))
    report = excinfo.value.report
    assert report is not None and not report.converged
    assert excinfo.value.configuration is not None


def test_contact_rolloff_detected():
    # domains too narrow for this tension ratio: the contact hits the wall
    from rolljoint.catalog import standard_link_chain
    narrow = standard_link_chain(5, half_domain=4.0)
    with pytest.raises(ContactRolloffError) as excinfo:
        solve_tension(narrow, (3.0, 1.0))
    assert excinfo.value.configuration is not None


def test_singular_matrix_guards():
    with pytest.raises(SingularBlockError):
        _checked_inverse(np.zeros((3, 3)), "test block")
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularBlockError):
        _checked_inverse(singular, "test block")
    with pytest.raises(SingularBlockError):
        _equilibrated_solve(singular, np.eye(3), "test system")


def nearly_singular(size, delta):
    """Identity with a leading [[1, 1], [1, 1 + delta]] block, which the
    row/column equilibration cannot improve (2-norm condition ~ 4 / delta)."""
    matrix = np.eye(size)
    matrix[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + delta]]
    return matrix


@pytest.mark.parametrize("size", [3, 6])
def test_condition_check_rejects_just_above_limit(size):
    rhs = np.ones((size, 1))
    above = nearly_singular(size, 3.9e-12)
    kappa_2 = np.linalg.cond(_equilibrate(above, "test")[0])
    assert CONDITION_LIMIT < kappa_2 < 1.05 * CONDITION_LIMIT
    with pytest.raises(SingularBlockError):
        _checked_inverse(above, "test block")
    with pytest.raises(SingularBlockError):
        _equilibrated_solve(above, rhs, "test system")
    # a well-posed but ill-conditioned matrix still passes
    fine = nearly_singular(size, 4e-6)
    np.testing.assert_allclose(_checked_inverse(fine, "test block") @ fine, np.eye(size), atol=1e-9)
    np.testing.assert_allclose(fine @ _equilibrated_solve(fine, rhs, "test system"), rhs, atol=1e-9)


def test_equilibrated_solve_matches_dense_solve_on_paper5(paper5, monkeypatch):
    systems = []

    def recorded(matrix, rhs, what):
        solution = _equilibrated_solve(matrix, rhs, what)
        systems.append((matrix, rhs, solution))
        return solution

    monkeypatch.setattr(solver_tension, "_equilibrated_solve", recorded)
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.0, 0.0))),)
    _, report = solve_tension(paper5, (6.0, 3.0), loads)
    assert len(systems) == report.iterations >= 3
    for matrix, rhs, solution in systems:
        dense = np.linalg.solve(matrix, rhs)
        assert np.abs(solution - dense).max() <= 1e-12 * np.abs(dense).max()


def test_clamp_and_pin_match_per_joint_loop(paper5):
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.uniform(-12.0, 12.0, paper5.joint_count)
        s[rng.integers(paper5.joint_count)] = 9.0 - 1e-12   # within the pin slack
        clamped, pinned, expected = [], [], s.copy()
        for j in range(paper5.joint_count):
            lo, hi = paper5.joint_domain(j)
            if s[j] < lo or s[j] > hi:
                clamped.append(j)
                expected[j] = min(max(s[j], lo), hi)
            slack = 1e-9 * (hi - lo)
            if s[j] <= lo + slack or s[j] >= hi - slack:
                pinned.append(j)
        out, out_clamped = _clamp_s(paper5, s)
        assert np.array_equal(out, expected) and out_clamped == clamped
        assert _pinned_joints(paper5, s) == pinned


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(max_backtracks=-1)


def test_warm_start_tracks_small_load_changes(paper5):
    base, _ = solve_tension(paper5, (6.0, 3.0), opts=TIGHT)
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.05, 0.0))),)
    moved, report = solve_tension(paper5, (6.0, 3.0), loads, init=base, opts=TIGHT)
    assert report.converged and report.iterations <= 3
    lengths = tendon_lengths(paper5, moved)
    assert np.all(np.isfinite(lengths))


def test_load_target_out_of_range_rejected(chain2):
    from rolljoint.loads import ConstantBody
    with pytest.raises(ValueError):
        solve_tension(chain2, (1.0, 1.0), (ConstantBody(target_link=5),))


def test_nan_initial_forces_never_converge(paper5):
    # a NaN warm start makes every residual NaN; the loop must not read that
    # as within tolerance
    config, _ = solve_tension(paper5, (3.0, 1.0))
    nan_init = Configuration.from_unknowns(paper5, config.s, np.full_like(config.f, np.nan))
    with pytest.raises(RolljointError):
        solve_tension(paper5, (3.0, 1.0), init=nan_init)


def test_joint_geometry_built_once_per_evaluated_iterate(paper5, joint_geometry_calls):
    # one geometry per evaluated iterate (the start and every line-search
    # trial), shared by its residual and its Newton blocks
    joints = paper5.joint_count
    start, _ = solve_tension(paper5, (3.0, 1.0))
    joint_geometry_calls[0] = 0
    _, report = solve_tension(paper5, (3.3, 1.1), init=start)
    assert report.iterations >= 1
    assert joint_geometry_calls[0] == joints * (1 + report.iterations + report.backtrack_count)

    # a cold start adds the contact-force fit of initial_forces
    joint_geometry_calls[0] = 0
    _, report = solve_tension(paper5, (6.0, 3.0))
    assert joint_geometry_calls[0] == joints * (2 + report.iterations + report.backtrack_count)
