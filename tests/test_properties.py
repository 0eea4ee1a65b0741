"""Property tests over drawn inputs.

Hypothesis runs derandomized with a bounded number of examples and no
example database, so every run draws the same inputs and Tier-1 stays
deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolljoint.catalog import demo_five_link, polynomial_link_chain
from rolljoint.errors import RolljointError
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
