from dataclasses import replace

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
from rolljoint.mechanism import Configuration, evaluate, tendon_lengths
from rolljoint.oracle import dense_solve
from rolljoint import mechanism, solver_tension
from rolljoint.solver_tension import (
    CONDITION_LIMIT,
    SolverOptions,
    _checked_inverses,
    _clamp_s,
    _equilibrate,
    _equilibrated_solve,
    _balance_change,
    _outside_joints,
    _pinned_joints,
    block_solve,
    initial_forces,
    newton_step,
    solve_tension,
    tangent_start,
)
from rolljoint.statics import assemble_blocks, residual, residual_norm

from conftest import count_calls, max_pose_error
from helpers import dense_block_solve, dense_newton_step

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


@pytest.mark.parametrize("fixture_name, spread",
                         [("paper5", 0.3), ("poly3", 0.3), ("chain20", 0.05)])
def test_bordered_columns_equal_dense_block_solve(fixture_name, spread, request, rng):
    # the displacement solver's three columns [-h, -F] at seeded iterates
    # near a cold start: contact points about the domain midpoints (within
    # `spread` of the half-width), the fitted forces scaled by up to 20%,
    # unloaded and with a tip pull
    design = request.getfixturevalue(fixture_name)
    joints = design.joint_count
    mid, half = design.joint_midpoints(), np.diff(design.domains, axis=1)[:, 0] / 2
    tau = (3.0, 2.0)
    pull = (ConstantWorkspace(target_link=design.n, wrench=Wrench2(0.0, (0.2, -0.1))),)
    for loads in ((), pull):
        for _ in range(4):
            s = mid + rng.uniform(-spread, spread, joints) * half
            config = evaluate(design, s, np.zeros((joints, 2)))
            f = initial_forces(design, config, tau, loads) * rng.uniform(0.8, 1.2, (joints, 2))
            blocks = assemble_blocks(design, config.with_forces(f), tau, loads)
            columns = -np.concatenate((blocks.h[:, :, None], blocks.F), axis=2)
            etas, _ = block_solve(blocks, columns)
            dense = dense_block_solve(blocks, columns)
            # per column, relative to max(|dense|, 1)
            scale = np.maximum(np.abs(dense).max(axis=(0, 1)), 1.0)
            assert (np.abs(etas - dense).max(axis=(0, 1)) / scale).max() < 1e-9


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


def checked_inverse(matrix):
    """The stacked D-block inverse applied to a stack of one block."""
    return _checked_inverses(matrix[None], lambda i: "test block")[0]


def test_singular_matrix_guards():
    with pytest.raises(SingularBlockError):
        checked_inverse(np.zeros((3, 3)))
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularBlockError):
        checked_inverse(singular)
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
    kappa_2 = np.linalg.cond(_equilibrate(above)[0])
    assert CONDITION_LIMIT < kappa_2 < 1.05 * CONDITION_LIMIT
    with pytest.raises(SingularBlockError):
        checked_inverse(above)
    with pytest.raises(SingularBlockError):
        _equilibrated_solve(above, rhs, "test system")
    # a well-posed but ill-conditioned matrix still passes
    fine = nearly_singular(size, 4e-6)
    np.testing.assert_allclose(checked_inverse(fine) @ fine, np.eye(size), atol=1e-9)
    np.testing.assert_allclose(fine @ _equilibrated_solve(fine, rhs, "test system"), rhs, atol=1e-9)


@pytest.mark.parametrize("size", [3, 6])
def test_condition_check_verdict_does_not_depend_on_scale(size):
    # the bound tried first grows with max|M| as ||M^-1||_1 shrinks, so a
    # nearly singular matrix is refused at any overall scale, and a
    # well-posed one passes
    rhs = np.ones((size, 1))
    for scale in 10.0 ** np.arange(-8.0, 9.0, 2.0):
        above = scale * nearly_singular(size, 3.9e-12)
        with pytest.raises(SingularBlockError, match="ill-conditioned"):
            checked_inverse(above)
        with pytest.raises(SingularBlockError, match="ill-conditioned"):
            _equilibrated_solve(above, rhs, "test system")
        fine = scale * nearly_singular(size, 4e-6)
        np.testing.assert_allclose(checked_inverse(fine) @ fine, np.eye(size), atol=1e-9)
        np.testing.assert_allclose(fine @ _equilibrated_solve(fine, rhs, "test system"), rhs,
                                   atol=1e-9)



def test_exact_check_accepts_what_the_bound_refuses(monkeypatch):
    # a badly scaled but well-posed D block and a boundary-sized system just
    # inside the limit are above the cheap bound; the exact test runs on the
    # inverses already at hand, returns, and the result is what the
    # unchecked inverse or balanced solve gives, bit for bit
    checks = []

    def recorded(*args):
        checks.append(args[-1] is not None)
        return check(*args)

    check = solver_tension._check_conditions
    monkeypatch.setattr(solver_tension, "_check_conditions", recorded)
    stack = np.stack([2.0 * np.eye(3), np.diag([1e-8, 1.0, 1e8]), nearly_singular(3, 0.5)])
    inverses = _checked_inverses(stack, lambda i: f"D block at link {i + 1}")
    assert checks == [True]
    assert inverses.tobytes() == np.linalg.inv(stack).tobytes()

    matrix = nearly_singular(6, 5e-11)
    rhs = np.linspace(-1.0, 1.0, 18).reshape(6, 3)
    solution = _equilibrated_solve(matrix, rhs, "boundary system")
    assert checks == [True, True]
    balanced, row_scale, col_scale = _equilibrate(matrix)
    both = np.linalg.solve(balanced, np.concatenate((np.eye(6), rhs / row_scale[:, None]), axis=1))
    assert solution.tobytes() == (both[:, 6:] / col_scale[:, None]).tobytes()

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
        assert np.array_equal(_clamp_s(paper5, s), expected)
        assert _outside_joints(paper5, s) == clamped
        assert _pinned_joints(paper5, s) == pinned


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    # an iteration limit is a whole number: neither a fraction nor a bool
    for limit in (2.5, True):
        with pytest.raises(TypeError, match="max_iters"):
            SolverOptions(max_iters=limit)
    assert SolverOptions(max_iters=np.int64(3)).max_iters == 3


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
    # one whole-chain geometry per evaluated iterate (every line-search
    # trial), shared by its residual and its Newton blocks; an evaluated
    # in-domain start is used as it is and builds none
    start, _ = solve_tension(paper5, (3.0, 1.0))
    joint_geometry_calls[0] = 0
    _, report = solve_tension(paper5, (3.3, 1.1), init=start)
    assert report.iterations >= 1
    assert joint_geometry_calls[0] == report.iterations + report.backtrack_count

    # a cold start fits its contact forces on the geometry of its start
    # iterate, so the fit builds none of its own
    joint_geometry_calls[0] = 0
    _, report = solve_tension(paper5, (6.0, 3.0))
    assert joint_geometry_calls[0] == 1 + report.iterations + report.backtrack_count


def test_each_iterate_is_balanced_once(monkeypatch):
    # each evaluated iterate's blocks are assembled once: their balance rows
    # are its line-search residual and, once it is accepted, the next Newton
    # step eliminates them, so no residual is computed on its own; the
    # report carries the blocks of the iterate it ends on, errors included
    from rolljoint.catalog import standard_link_chain

    design, tau = standard_link_chain(20), (6.0, 1.0)
    residual_calls = count_calls(monkeypatch, residual)
    block_calls = count_calls(monkeypatch, assemble_blocks)
    config, report = solve_tension(design, tau)
    assert report.iterations >= 1 and report.backtrack_count >= 1
    assert residual_calls[0] == 0
    assert block_calls[0] == 1 + report.iterations + report.backtrack_count
    np.testing.assert_array_equal(report.blocks.rows, residual(design, config, tau))

    with pytest.raises(NoConvergenceError) as info:
        solve_tension(design, tau, opts=SolverOptions(max_iters=2))
    blocks = assemble_blocks(design, info.value.configuration, tau)
    for name in ("A", "B", "C", "D", "E", "F", "h"):
        np.testing.assert_array_equal(getattr(info.value.report.blocks, name),
                                      getattr(blocks, name))


def test_rejected_interior_d_block_names_its_link(paper5):
    # the interior D blocks are inverted and checked as one stack; the first
    # rejected block is reported with its link number
    config, _ = solve_tension(paper5, (3.0, 1.0))
    blocks = assemble_blocks(paper5, config, (3.0, 1.0))
    columns = -blocks.h[:, :, None]

    def with_d(index, block, d=None):
        d = blocks.D.copy() if d is None else d
        d[index] = block
        return d

    rank_deficient = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    cases = [
        (with_d(1, np.zeros((3, 3))), r"singular D block at link 2\b"),
        (with_d(2, rank_deficient), r"singular D block at link 3\b"),
        (with_d(0, nearly_singular(3, 1e-13)), r"ill-conditioned D block at link 1\b"),
        # two rejected blocks: the first one along the chain is named
        (with_d(0, nearly_singular(3, 1e-13), with_d(2, np.zeros((3, 3)))),
         r"ill-conditioned D block at link 1\b"),
    ]
    for d_blocks, message in cases:
        with pytest.raises(SingularBlockError, match=message):
            block_solve(replace(blocks, D=d_blocks), columns)
    # the tip block is the identity by convention and never inverted
    etas, inversions = block_solve(replace(blocks, D=with_d(3, np.zeros((3, 3)))), columns)
    assert inversions == paper5.n - 2 and np.all(np.isfinite(etas))


def test_start_past_a_domain_bound_is_evaluated_clamped(paper5, joint_geometry_calls):
    # a surface accepts arc lengths up to 1e-9 of its width past its domain,
    # so an evaluated start can lie just outside a joint domain; the solve
    # re-evaluates it once, clamped onto the domain
    equilibrium, _ = solve_tension(paper5, (3.0, 1.0))
    lo, hi = paper5.domains[0]
    s = equilibrium.s.copy()
    s[0] = lo - 0.5e-9 * (hi - lo)
    outside = Configuration.from_unknowns(paper5, s, np.zeros((paper5.joint_count, 2)))
    outside = replace(outside, f=initial_forces(paper5, outside, (3.0, 1.0)))
    assert outside.s[0] < lo
    joint_geometry_calls[0] = 0
    config, report = solve_tension(paper5, (3.0, 1.0), init=outside)
    assert report.converged and report.iterations >= 1
    assert joint_geometry_calls[0] == 1 + report.iterations + report.backtrack_count
    lo_all, hi_all = paper5.domains.T
    assert np.all((lo_all <= config.s) & (config.s <= hi_all))


def tip_pull(force_x):
    return (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (force_x, 0.0))),)


def test_balance_change_is_the_difference_of_two_balances(paper5):
    # the balance is affine in the tensions and the load wrenches, so at a
    # fixed (s, f) its change is exact, loads included; any iterate will do
    rng = np.random.default_rng(19)
    lo, hi = paper5.domains.T
    config = evaluate(paper5, rng.uniform(lo, hi), rng.uniform(-1.0, 1.0, (paper5.joint_count, 2)))
    spring = LinearSpring(target_link=3, stiffness=0.05, anchor=(10.0, 80.0))
    cases = [
        ((3.0, 1.0), (), (3.4, 0.8), ()),
        ((4.0, 1.9), tip_pull(0.15), (4.0, 1.9), tip_pull(0.6)),
        ((4.0, 1.9), tip_pull(0.15) + (spring,), (2.5, 2.0), (spring,)),
        ((2.0, 2.0), (), (2.0, 2.5), tip_pull(-0.3)),
    ]
    for tau, loads, new_tau, new_loads in cases:
        blocks = assemble_blocks(paper5, config, tau, loads)
        change = _balance_change(config, blocks, tau, loads, new_tau, new_loads)
        expected = (residual(paper5, config, new_tau, new_loads, scaled=False)
                    - residual(paper5, config, tau, loads, scaled=False))
        np.testing.assert_allclose(change, expected, rtol=0, atol=1e-12 * np.abs(blocks.h).max())


def test_tangent_start_converges_where_the_refit_start_stalls(paper5):
    # a tip pull raised from 0.15 to 0.6 N at tau = (4, 1.9) N: the old
    # contact points with refitted forces stall the line search (22
    # iterations, 263 backtracks); the tangent-predicted start converges
    tau = (4.0, 1.9)
    previous, found = solve_tension(paper5, tau, tip_pull(0.15))
    refit = evaluate(paper5, previous.s, initial_forces(paper5, previous, tau, tip_pull(0.6)))
    with pytest.raises(NoConvergenceError):
        solve_tension(paper5, tau, tip_pull(0.6), init=refit)
    start = tangent_start(paper5, previous, found.blocks, tau, tip_pull(0.15),
                          tau, tip_pull(0.6))
    config, report = solve_tension(paper5, tau, tip_pull(0.6), init=start)
    assert report.converged and report.iterations <= 5
    cold, _ = solve_tension(paper5, tau, tip_pull(0.6))
    assert max_pose_error(config.poses, cold.poses) < 1e-6


def test_tangent_start_mends_a_stale_long_chain_warm_start():
    # the equilibrium at (3, 2) N kept as the start at (3.3, 2) N sits near a
    # singular Jacobian on a 50-link chain; its tangent prediction does not
    from rolljoint.catalog import standard_link_chain

    chain = standard_link_chain(50)
    previous, found = solve_tension(chain, (3.0, 2.0))
    with pytest.raises(SingularBlockError):
        solve_tension(chain, (3.3, 2.0), init=previous)
    start = tangent_start(chain, previous, found.blocks, (3.0, 2.0), (), (3.3, 2.0))
    _, report = solve_tension(chain, (3.3, 2.0), init=start)
    assert report.converged and report.iterations <= 3


def test_tangent_start_follows_the_branch_of_a_fine_continuation(paper5):
    # a tip pull raised in one step from 0.533 to 1.519 N on a chain curled
    # past 90 degrees: the tangent start reaches the equilibrium a cold
    # solve and a 20-step continuation reach (the tip bent back to the
    # right), not the more curled one on the far side of the chain
    tau = (6.769133716400182, 2.739917364292364)
    low, high = 0.533125598385, 1.51938361136
    previous, found = solve_tension(paper5, tau, tip_pull(low))
    assert previous.link_translations[-1, 0] < -50.0
    start = tangent_start(paper5, previous, found.blocks, tau, tip_pull(low),
                          tau, tip_pull(high))
    config, _ = solve_tension(paper5, tau, tip_pull(high), init=start)
    cold, _ = solve_tension(paper5, tau, tip_pull(high))
    followed, blocks, force = previous, found.blocks, low
    for step in np.linspace(low, high, 21)[1:]:
        start = tangent_start(paper5, followed, blocks, tau, tip_pull(force),
                              tau, tip_pull(step))
        followed, report = solve_tension(paper5, tau, tip_pull(step), init=start)
        blocks = report.blocks
        force = step
    assert config.link_translations[-1, 0] > 40.0
    assert max_pose_error(config.poses, cold.poses) < 1e-6
    assert max_pose_error(config.poses, followed.poses) < 1e-6


def test_tangent_start_from_the_unloaded_equilibrium_reaches_a_loaded_one(paper5):
    # a 0.5 N tip pull at tau = (5.5, 2) N, whose cold solve stalls: the
    # unloaded equilibrium's tangent start converges, to the root the dense
    # oracle polishes from there
    tau = (5.5, 2.0)
    unloaded, found = solve_tension(paper5, tau)
    start = tangent_start(paper5, unloaded, found.blocks, tau, (), tau, tip_pull(0.5))
    config, report = solve_tension(paper5, tau, tip_pull(0.5), init=start)
    assert report.converged
    reference = dense_solve(paper5, tau, tip_pull(0.5), init=config, tol=1e-13)
    assert np.abs(config.s - reference.s).max() < 1e-8


def test_tangent_start_keeps_an_equilibrium_at_unchanged_inputs(paper5):
    # no change of the inputs predicts no move: the start is the same
    # contact points with the forces fitted on them
    tau = (6.0, 3.0)
    previous, found = solve_tension(paper5, tau, tip_pull(1.0))
    start = tangent_start(paper5, previous, found.blocks, tau, tip_pull(1.0),
                          tau, tip_pull(1.0))
    np.testing.assert_array_equal(start.s, previous.s)
    np.testing.assert_array_equal(start.f, initial_forces(paper5, previous, tau, tip_pull(1.0)))


def test_loaded_solve_chains_each_iterate_once(paper5, monkeypatch):
    # the link poses are chained on first read: once per evaluated iterate
    # of a loaded solve (the cold start's force fit and its first balance
    # read the same evaluation), and to the same results as a solve whose
    # every iterate chains them when it is built
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.5, 0.0))),)
    chains = count_calls(monkeypatch, mechanism._pose_chain)
    lazy, lazy_report = solve_tension(paper5, (6.0, 3.0), loads)
    assert chains[0] == 1 + lazy_report.iterations + lazy_report.backtrack_count

    def eager(design, s, f):
        config = evaluate(design, s, f)
        assert config.link_angles.shape == (design.n,)
        return config

    monkeypatch.setattr(solver_tension, "evaluate", eager)
    config, report = solve_tension(paper5, (6.0, 3.0), loads)
    assert lazy.s.tobytes() == config.s.tobytes() and lazy.f.tobytes() == config.f.tobytes()
    assert lazy_report == report
