"""Property tests over drawn inputs.

Hypothesis runs derandomized with a bounded number of examples and no
example database, so every run draws the same inputs and Tier-1 stays
deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolljoint import solver_tension
from rolljoint.catalog import demo_five_link, polynomial_link_chain
from rolljoint.errors import RolljointError, SingularBlockError
from rolljoint.geometry import Wrench2
from rolljoint.loads import ConstantWorkspace
from rolljoint.mechanism import Configuration, evaluate, tendon_lengths
from rolljoint.oracle import dense_solve
from rolljoint.solver_displacement import solve_displacement
from rolljoint.solver_tension import SolverOptions, initial_forces, solve_tension
from rolljoint.statics import residual, residual_norm

DESIGNS = {"paper5": demo_five_link(), "poly3": polynomial_link_chain(3)}
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

tensions = st.tuples(st.floats(1.0, 6.0), st.floats(1.0, 6.0))
tip_pulls = st.floats(-0.5, 0.5)
# generator tensions of displacement targets: the smaller in [1, 2] N, the
# larger up to 3 times it (the largest ratio of the shipped scenarios)
target_tensions = st.builds(
    lambda small, ratio, left: (small * ratio, small) if left else (small, small * ratio),
    st.floats(1.0, 2.0), st.floats(1.0, 3.0), st.booleans())


def tip_pull(design, pull: float) -> tuple:
    return (ConstantWorkspace(target_link=design.n, wrench=Wrench2(0.0, (pull, 0.0))),)


@pytest.mark.parametrize("key", DESIGNS)
@PROPERTY
@given(data=st.data(), tau=tensions, pull=tip_pulls)
def test_force_fit_reads_carried_geometry_bit_for_bit(key, data, tau, pull):
    # the fit on an evaluated configuration (its carried geometry, any
    # forces) equals the fit on a bare one whose geometry is built anew
    design = DESIGNS[key]
    joints = design.joint_count
    lo, hi = design.domains.T
    s = lo + (hi - lo) * np.array(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=joints, max_size=joints), label="s fractions"))
    f = np.array(data.draw(st.lists(
        st.floats(-10.0, 10.0), min_size=2 * joints, max_size=2 * joints),
        label="forces")).reshape(joints, 2)
    loads = tip_pull(design, pull)
    carried = initial_forces(design, evaluate(design, s, f), tau, loads)
    rebuilt = initial_forces(design, Configuration.from_unknowns(design, s, np.zeros((joints, 2))),
                             tau, loads)
    assert carried.tobytes() == rebuilt.tobytes()


@pytest.mark.parametrize("key", DESIGNS)
@PROPERTY
@given(tau=tensions, pull=tip_pulls)
def test_cold_tension_solve_converges_or_raises_typed_error(key, tau, pull):
    design = DESIGNS[key]
    loads = tip_pull(design, pull)
    try:
        config, report = solve_tension(design, tau, loads)
    except RolljointError:
        return
    assert report.converged
    rows = residual(design, Configuration.from_unknowns(design, config.s, config.f), tau, loads)
    assert residual_norm(rows, np.inf) <= SolverOptions().tol_residual


@pytest.mark.parametrize("key", DESIGNS)
@PROPERTY
@given(tau_gen=target_tensions, loaded=st.booleans(), pull=tip_pulls)
def test_displacement_target_solves_or_raises_typed_error(key, tau_gen, loaded, pull):
    # targets are the lengths of an equilibrium, so every one is reachable
    design = DESIGNS[key]
    loads = tip_pull(design, pull) if loaded else ()
    try:
        generator, _ = solve_tension(design, tau_gen, loads)
    except RolljointError:
        return
    target = tendon_lengths(design, generator)
    try:
        tau, config, report = solve_displacement(design, target, loads)
    except RolljointError:
        return
    assert report.converged
    assert np.abs(tendon_lengths(design, config) - target).max() <= 1e-6
    rows = residual(design, config, tau, loads)
    assert residual_norm(rows, np.inf) <= SolverOptions().tol_residual


@pytest.mark.parametrize("key", DESIGNS)
@PROPERTY
@given(tau=tensions, pull=tip_pulls)
def test_recursive_solve_agrees_with_dense_oracle(key, tau, pull):
    # the block recursion and the oracle's damped Newton on the full unknown
    # vector (FD Jacobian, dense solve) share no code past the residual;
    # where both converge from their cold starts they land on the same
    # contact points
    design = DESIGNS[key]
    loads = tip_pull(design, pull)
    try:
        config, _ = solve_tension(design, tau, loads, opts=SolverOptions(tol_residual=1e-11))
        dense = dense_solve(design, tau, loads, tol=1e-11)
    except RolljointError:
        return
    np.testing.assert_allclose(config.s, dense.s, rtol=0, atol=1e-8)


def _exact_inverses(stack, what):
    """The D-block check with the exact balanced 1-norm condition number of
    every block, as it was before the bound: the inverse, or the error text."""
    size = stack.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        balanced, row_scale, col_scale = solver_tension._equilibrate(stack)

        def balanced_inverse(inv):
            return col_scale[..., :, None] * inv * row_scale[..., None, :]

        try:
            inv = np.linalg.inv(stack)
            cond = solver_tension._conditions(balanced, balanced_inverse(inv))
        except np.linalg.LinAlgError:
            inv, cond = None, np.nan
        # NaN is refused
        if not np.all(cond <= solver_tension.CONDITION_LIMIT / size):
            solver_tension._check_conditions(stack, balanced, balanced_inverse, what)
    return inv


def _exact_solve(matrix, rhs, what):
    """The boundary solve with the exact balanced condition number, as it was
    before the bound."""
    size = len(matrix)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        balanced, row_scale, col_scale = solver_tension._equilibrate(matrix)
        try:
            both = np.linalg.solve(
                balanced, np.concatenate((np.eye(size), rhs / row_scale[:, None]), axis=1))
            cond = solver_tension._conditions(balanced, both[:, :size])
        except np.linalg.LinAlgError:
            both, cond = None, np.nan
        if not np.all(cond <= solver_tension.CONDITION_LIMIT / size):
            solver_tension._check_conditions(balanced[None], balanced[None], lambda inv: inv,
                                             lambda i: what)
    return both[:, size:] / col_scale[:, None]


def _outcome(check, *args):
    """The returned array's bytes, or the SingularBlockError text."""
    try:
        return check(*args).tobytes()
    except SingularBlockError as exc:
        return str(exc)


@st.composite
def scaled_matrices(draw, size=3):
    """scale diag(rows) U diag(sigma) V^T diag(cols), drawn from a seed:
    orthogonal U, V, singular values from 1 down to sigma_min in [1e-14, 1],
    an overall scale and row and column scalings in [1e-8, 1e8] (all
    log-uniform, the row and column scalings within a drawn spread), and in
    a sixth of the draws one row of NaN, inf or zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    u, _ = np.linalg.qr(rng.standard_normal((size, size)))
    v, _ = np.linalg.qr(rng.standard_normal((size, size)))
    sigma = np.logspace(0.0, rng.uniform(-14.0, 0.0), size)
    scale = 10.0 ** rng.uniform(-8.0, 8.0)
    spread = rng.uniform(0.0, 8.0)
    rows, cols = 10.0 ** rng.uniform(-spread, spread, (2, size))
    matrix = scale * rows[:, None] * (u * sigma) @ v.T * cols
    if rng.random() < 1.0 / 6.0:
        matrix[rng.integers(size)] = rng.choice([np.nan, np.inf, 0.0])
    return matrix


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(stack=st.lists(scaled_matrices(), min_size=1, max_size=4),
       upper=scaled_matrices(), lower=scaled_matrices())
def test_condition_bound_decides_as_the_exact_check(stack, upper, lower):
    # the bound accepts only what the exact balanced kappa_1 test accepts,
    # and every other matrix takes that test: the same inverse or solution
    # bits, or the same SingularBlockError text
    stack = np.array(stack)
    what = lambda i: f"D block at link {i + 1}"
    assert (_outcome(solver_tension._checked_inverses, stack, what)
            == _outcome(_exact_inverses, stack, what))
    # the boundary system's shape: identity d_xi_tip columns above zeros,
    # then the drawn d_eta_base columns
    boundary = np.zeros((6, 6))
    boundary[:3, :3] = np.eye(3)
    boundary[:3, 3:], boundary[3:, 3:] = upper, lower
    rhs = np.linspace(-1.0, 1.0, 18).reshape(6, 3)
    assert (_outcome(solver_tension._equilibrated_solve, boundary, rhs, "boundary system")
            == _outcome(_exact_solve, boundary, rhs, "boundary system"))
