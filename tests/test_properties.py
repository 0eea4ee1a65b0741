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
from rolljoint.mechanism import Configuration, evaluate
from rolljoint.solver_tension import SolverOptions, initial_forces, solve_tension
from rolljoint.statics import residual, residual_norm

DESIGNS = {"paper5": demo_five_link(), "poly3": polynomial_link_chain(3)}
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

tensions = st.tuples(st.floats(1.0, 6.0), st.floats(1.0, 6.0))
tip_pulls = st.floats(-0.5, 0.5)


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
