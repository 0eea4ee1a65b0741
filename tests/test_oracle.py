import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rolljoint
from rolljoint.catalog import polynomial_link_chain, standard_link_chain
from rolljoint.errors import UnsupportedLoadError
from rolljoint.geometry import Wrench2
from rolljoint.loads import ConstantBody, ConstantWorkspace, LinearSpring
from rolljoint.mechanism import Configuration
from rolljoint.oracle import (
    dense_solve,
    energy,
    energy_gradient_fd,
    energy_minimize,
)
from rolljoint.solver_tension import SolverOptions, solve_tension

from conftest import max_pose_error

TIGHT = SolverOptions(tol_residual=1e-11)


def test_dense_matches_analytic_symmetric_two_link(chain2):
    config = dense_solve(chain2, (1.5, 1.5), tol=1e-11)
    np.testing.assert_allclose(config.s, 0.0, atol=1e-9)
    np.testing.assert_allclose(config.f, [[0.0, 3.0]], atol=1e-9)


def test_dense_agrees_with_recursive_unloaded(paper5):
    fast, _ = solve_tension(paper5, (3.0, 1.0), opts=TIGHT)
    ref = dense_solve(paper5, (3.0, 1.0), tol=1e-11)
    assert np.abs(fast.s - ref.s).max() < 1e-8
    assert max_pose_error(fast.poses, ref.poses) < 1e-6


def test_dense_agrees_with_recursive_loaded(paper5):
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (1.5, 0.0))),)
    fast, _ = solve_tension(paper5, (6.0, 3.0), loads, opts=TIGHT)
    ref = dense_solve(paper5, (6.0, 3.0), loads, tol=1e-11)
    assert np.abs(fast.s - ref.s).max() < 1e-8
    assert max_pose_error(fast.poses, ref.poses) < 1e-6


def test_energy_stationary_at_symmetric_point(paper5):
    grad = energy_gradient_fd(paper5, np.zeros(4), (1.0, 1.0))
    assert np.abs(grad).max() < 1e-10


def test_energy_gradient_vanishes_at_solutions(paper5):
    spring = LinearSpring(target_link=5, stiffness=0.05, anchor=(40.0, 60.0))
    pull = ConstantWorkspace(target_link=4, wrench=Wrench2(0.0, (0.6, -0.2)))
    for tau, loads in [((3.0, 1.0), ()), ((2.0, 2.5), (spring,)), ((6.0, 3.0), (pull,))]:
        config, _ = solve_tension(paper5, tau, loads, opts=SolverOptions(tol_residual=1e-12))
        grad = energy_gradient_fd(paper5, config.s, tau, loads)
        assert np.abs(grad).max() < 1e-6 * sum(tau)


def test_energy_grid_scan_two_link(chain2):
    tau = (2.5, 1.0)
    config, _ = solve_tension(chain2, tau, opts=TIGHT)
    lo, hi = chain2.joint_domain(0)
    grid = np.linspace(lo, hi, 200)
    values = [energy(chain2, [s], tau) for s in grid]
    best = grid[int(np.argmin(values))]
    assert abs(best - config.s[0]) <= (hi - lo) / 199 + 1e-12


def test_import_leaves_scipy_unloaded():
    # scipy serves only energy_minimize, which imports it when first called
    src = str(Path(rolljoint.__file__).resolve().parents[1])
    code = "import sys, rolljoint; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_energy_minimize_cross_check(chain2):
    tau = (2.5, 1.0)
    config, _ = solve_tension(chain2, tau, opts=TIGHT)
    s_min = energy_minimize(chain2, tau, init_s=[1.0])
    assert np.abs(s_min - config.s).max() < 1e-6


def test_energy_minimize_with_spring(chain2):
    spring = (LinearSpring(target_link=2, stiffness=0.1, anchor=(15.0, 25.0)),)
    tau = (2.0, 2.0)
    config, _ = solve_tension(chain2, tau, spring, opts=TIGHT)
    s_min = energy_minimize(chain2, tau, spring, init_s=[0.5])
    assert np.abs(s_min - config.s).max() < 1e-6


def test_energy_rejects_nonconservative_loads(paper5):
    s = np.zeros(4)
    with pytest.raises(UnsupportedLoadError):
        energy(paper5, s, (1.0, 1.0),
               (ConstantBody(target_link=3, wrench=Wrench2(2.0, (0.0, 0.0))),))
    with pytest.raises(UnsupportedLoadError):
        energy(paper5, s, (1.0, 1.0),
               (ConstantBody(target_link=3, wrench=Wrench2(0.0, (1.0, 0.0))),))
    with pytest.raises(UnsupportedLoadError):
        energy(paper5, s, (1.0, 1.0),
               (ConstantWorkspace(target_link=3, wrench=Wrench2(1.0, (0.0, -1.0))),))


def test_energy_allows_zero_body_load(paper5):
    value = energy(paper5, np.zeros(4), (1.0, 1.0),
                   (ConstantBody(target_link=3),))
    assert np.isfinite(value)


def test_dense_solve_accepts_warm_start(paper5):
    fast, _ = solve_tension(paper5, (4.0, 1.5), opts=TIGHT)
    near = Configuration.from_unknowns(paper5, fast.s + 0.01, fast.f)
    ref = dense_solve(paper5, (4.0, 1.5), init=near, tol=1e-11)
    assert np.abs(fast.s - ref.s).max() < 1e-8


@pytest.mark.parametrize("make, sizes", [
    (standard_link_chain, (10, 50, 200)),
    (polynomial_link_chain, (10, 50)),
], ids=["arc", "profile"])
@pytest.mark.parametrize("couple", [0.0, 5.0], ids=["unloaded", "tip_couple"])
def test_uniform_chains_take_the_one_joint_equilibrium(make, sizes, couple):
    # every joint of a chain of identical joints carries the same two tendon
    # pulls and, unloaded or under a pure couple on the tip, the same
    # moment, so each takes the equilibrium of the 2-link chain's one joint
    def loads(n):
        return (ConstantBody(target_link=n, wrench=Wrench2(couple, (0.0, 0.0))),) if couple else ()

    tau = (3.0, 2.0)
    joint = dense_solve(make(2), tau, loads(2), tol=1e-13)
    for n in sizes:
        config, _ = solve_tension(make(n), tau, loads(n), opts=SolverOptions(tol_residual=1e-13))
        assert np.abs(config.s - joint.s[0]).max() < 1e-10
        assert np.abs(config.f - joint.f[0]).max() < 1e-12
