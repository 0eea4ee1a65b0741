"""Acceptance suite: every criterion is exercised at its stated tolerance and
prints one summary line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from rolljoint.catalog import demo_five_link, polynomial_link_chain, standard_link_chain
from rolljoint.geometry import Wrench2
from rolljoint.loads import ConstantBody, ConstantWorkspace, LinearSpring
from rolljoint.mechanism import tendon_lengths
from rolljoint.oracle import dense_solve, energy_gradient_fd
from rolljoint.solver_displacement import DisplacementOptions, solve_displacement, tendon_jacobian
from rolljoint.solver_tension import SolverOptions, solve_tension
from rolljoint.statics import assemble_blocks, residual
from rolljoint.mechanism import Configuration
from rolljoint.verification import _predicted_change, check_load_derivatives

from conftest import max_pose_error

TIGHT = SolverOptions(tol_residual=1e-12)


def report_line(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


# --- criterion 1: tension-ratio invariance ---------------------------------

def test_criterion_1_tension_ratio_invariance(paper5):
    start = time.perf_counter()
    worst_pose = worst_angle = worst_force = 0.0
    for base_tau, doubled_tau in (((3, 1), (6, 2)), ((1, 3), (2, 6))):
        base, _ = solve_tension(paper5, base_tau)
        doubled, _ = solve_tension(paper5, doubled_tau)
        for a, b in zip(base.poses, doubled.poses):
            worst_pose = max(worst_pose, float(np.abs(a.translation - b.translation).max()))
            worst_angle = max(worst_angle, abs(a.angle - b.angle))
        worst_force = max(
            worst_force,
            float(np.abs(doubled.f - 2.0 * base.f).max() / np.abs(doubled.f).max()),
        )
    elapsed = time.perf_counter() - start
    assert worst_pose < 1e-8
    assert worst_angle < 1e-10
    assert worst_force < 1e-8
    assert elapsed < 1.0
    report_line(1, f"pose {worst_pose:.1e} mm, angle {worst_angle:.1e} rad, "
                   f"force-doubling {worst_force:.1e} rel, {elapsed * 1e3:.0f} ms")


# --- criterion 2: loaded sweep monotonicity ---------------------------------

def test_criterion_2_loaded_sweep_monotone(paper5):
    tips = []
    prev = None
    worst_iters = 0
    worst_res = 0.0
    for pull in np.arange(0.0, 1.501, 0.25):
        loads = ()
        if pull > 0.0:
            loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (pull, 0.0))),)
        config, rep = solve_tension(paper5, (6.0, 3.0), loads, init=prev)
        assert rep.converged and rep.final_residual_norm <= 1e-9
        worst_iters = max(worst_iters, rep.iterations)
        worst_res = max(worst_res, rep.final_residual_norm)
        assert rep.iterations <= 50
        prev = config
        tips.append(config.poses[-1].translation[0])
    assert all(b > a for a, b in zip(tips, tips[1:]))
    report_line(2, f"tip x {tips[0]:.1f} -> {tips[-1]:.1f} mm strictly increasing, "
                   f"max {worst_iters} iters, residual {worst_res:.1e}")


# --- criterion 3: oracle equivalence ----------------------------------------

def oracle_scenarios():
    chain2 = standard_link_chain(2)
    poly2 = polynomial_link_chain(2)
    chain3 = standard_link_chain(3)
    poly3 = polynomial_link_chain(3)
    paper5 = demo_five_link()
    pull = lambda link, fx, fy=0.0, m=0.0: ConstantWorkspace(
        target_link=link, wrench=Wrench2(m, (fx, fy)))
    return [
        (chain2, (1.0, 1.0), ()),
        (chain2, (2.5, 1.0), ()),
        (chain2, (3.0, 2.0), (LinearSpring(target_link=2, stiffness=0.1, anchor=(30.0, 25.0)),)),
        (poly2, (2.0, 1.2), ()),
        (poly2, (2.0, 1.5), (pull(2, 0.5, 0.1),)),
        (chain3, (2.5, 1.0), ()),
        (chain3, (3.0, 2.0), (pull(3, 0.6, -0.1),)),
        (poly3, (4.0, 2.0), (pull(3, 1.0, 0.1),)),
        (poly3, (2.0, 3.0), (ConstantBody(target_link=2, wrench=Wrench2(3.0, (0.2, 0.0))),)),
        (paper5, (3.0, 1.0), ()),
        (paper5, (6.0, 3.0), (pull(5, 1.2),)),
        (paper5, (2.0, 2.5), (LinearSpring(target_link=5, stiffness=0.05, anchor=(40.0, 60.0)),)),
    ]


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    scenarios = oracle_scenarios()
    assert len(scenarios) >= 10
    worst_s = worst_pose = 0.0
    for design, tau, loads in scenarios:
        fast, _ = solve_tension(design, tau, loads, opts=SolverOptions(tol_residual=1e-11))
        ref = dense_solve(design, tau, loads, tol=1e-11)
        worst_s = max(worst_s, float(np.abs(fast.s - ref.s).max()))
        worst_pose = max(worst_pose, max_pose_error(fast.poses, ref.poses))
    elapsed = time.perf_counter() - start
    assert worst_s < 1e-8
    assert worst_pose < 1e-6
    assert elapsed < 60.0
    report_line(3, f"{len(scenarios)} scenarios, s {worst_s:.1e} mm, "
                   f"pose {worst_pose:.1e}, {elapsed:.1f} s")


# --- criterion 4: energy stationarity ---------------------------------------

def test_criterion_4_energy_stationarity():
    worst_ratio = 0.0
    count = 0
    for design, tau, loads in oracle_scenarios():
        if any(isinstance(l, ConstantBody) for l in loads):
            continue  # not conservative
        config, _ = solve_tension(design, tau, loads, opts=TIGHT)
        grad = energy_gradient_fd(design, config.s, tau, loads)
        bound = 1e-6 * float(sum(tau))
        worst_ratio = max(worst_ratio, float(np.abs(grad).max()) / bound)
        count += 1
    assert worst_ratio < 1.0
    report_line(4, f"{count} conservative scenarios, worst |grad|/bound {worst_ratio:.2f}")


# --- criterion 5: tendon-length Jacobian ------------------------------------

def test_criterion_5_jacobian_correctness(paper5, poly3):
    rng = np.random.default_rng(42)
    worst_fd = 0.0
    worst_null = 0.0
    checked = 0
    opts = TIGHT
    for trial in range(20):
        design = paper5 if trial % 2 == 0 else poly3
        tau = rng.uniform(1.5, 7.0, 2)
        loads = ()
        if trial % 4 == 3:
            loads = (ConstantWorkspace(
                target_link=design.n, wrench=Wrench2(0.0, (0.2 * tau.sum() / 2, 0.05))),)
        config, _ = solve_tension(design, tau, loads, opts=opts)
        jac = tendon_jacobian(design, config, tau, loads)
        h = 1e-4 * float(np.linalg.norm(tau))
        fd = np.zeros((2, 2))
        for col in range(2):
            bump = np.zeros(2)
            bump[col] = h
            up, _ = solve_tension(design, tau + bump, loads, init=config, opts=opts)
            dn, _ = solve_tension(design, tau - bump, loads, init=config, opts=opts)
            fd[:, col] = (tendon_lengths(design, up) - tendon_lengths(design, dn)) / (2 * h)
        worst_fd = max(worst_fd, float(np.abs(jac - fd).max() / np.abs(fd).max()))
        if not loads:
            null = float(np.linalg.norm(jac @ tau))
            bound = 1e-8 * float(np.linalg.norm(jac) * np.linalg.norm(tau))
            worst_null = max(worst_null, null / bound)
        checked += 1
    assert checked >= 20
    assert worst_fd < 1e-4
    assert worst_null <= 1.0
    report_line(5, f"{checked} equilibria, FD rel err {worst_fd:.1e}, "
                   f"null-direction ratio {worst_null:.2f}")


# --- criterion 6: displacement round trips ----------------------------------

def round_trip_cases():
    paper5 = demo_five_link()
    poly3 = polynomial_link_chain(3)
    chain3 = standard_link_chain(3)
    pull = lambda link, fx, fy: ConstantWorkspace(target_link=link, wrench=Wrench2(0.0, (fx, fy)))
    unloaded = [
        (paper5, (6.0, 3.0), (), (1.0, 1.0)),
        (paper5, (2.0, 5.0), (), (1.0, 1.0)),
        (paper5, (4.0, 4.0), (), (2.0, 1.0)),
        (poly3, (3.0, 1.5), (), (1.0, 1.0)),
        (chain3, (1.0, 2.2), (), (1.0, 1.0)),
        (standard_link_chain(2), (2.5, 1.0), (), (1.0, 1.0)),
    ]
    loaded = [
        (paper5, (6.0, 3.0), (pull(5, 1.0, -0.2),), (5.0, 4.0)),
        (paper5, (3.0, 2.0), (LinearSpring(target_link=5, stiffness=0.2, anchor=(60.0, 90.0)),), (2.0, 2.5)),
        (paper5, (6.0, 3.0), (pull(3, 0.0, -1.0), pull(5, 1.2, 0.0)), (5.0, 4.0)),
        (poly3, (4.0, 2.0), (pull(3, 1.5, 0.1),), (3.0, 2.0)),
    ]
    return unloaded, loaded


def test_criterion_6_displacement_round_trips():
    unloaded, loaded = round_trip_cases()
    assert len(unloaded) + len(loaded) >= 10
    opts = DisplacementOptions(grad_tol=1e-8, max_outer_iters=4000, inner=TIGHT)
    worst_len = worst_pose = worst_tau = 0.0
    for cases, check_tau in ((unloaded, False), (loaded, True)):
        for design, tau_gen, loads, tau_init in cases:
            generator, _ = solve_tension(design, tau_gen, loads, opts=TIGHT)
            l_des = tendon_lengths(design, generator)
            tau, config, rep = solve_displacement(
                design, l_des, loads, tau_init=tau_init, opts=opts)
            assert rep.converged
            worst_len = max(worst_len, float(np.abs(np.asarray(rep.achieved_lengths) - l_des).max()))
            worst_pose = max(worst_pose, max_pose_error(generator.poses, config.poses))
            if check_tau:
                worst_tau = max(worst_tau, float(np.abs(tau - np.asarray(tau_gen, float)).max()))
    assert worst_len < 1e-6
    assert worst_pose < 1e-6
    assert worst_tau < 1e-4
    report_line(6, f"10 targets: lengths {worst_len:.1e} mm, poses {worst_pose:.1e}, "
                   f"loaded tensions {worst_tau:.1e} N")


def test_criterion_6_cases_converge_within_30_outer_iterations():
    unloaded, loaded = round_trip_cases()
    opts = DisplacementOptions(grad_tol=1e-8, max_outer_iters=4000, inner=TIGHT)
    worst = 0
    for design, tau_gen, loads, tau_init in unloaded + loaded:
        generator, _ = solve_tension(design, tau_gen, loads, opts=TIGHT)
        l_des = tendon_lengths(design, generator)
        _, _, rep = solve_displacement(design, l_des, loads, tau_init=tau_init, opts=opts)
        assert rep.converged
        worst = max(worst, rep.outer_iterations)
    assert worst <= 30
    report_line(6, f"worst case {worst} outer iterations")


# --- criterion 7: linearization and load derivatives -------------------------

def test_criterion_7_linearization_and_load_derivatives(paper5):
    rng = np.random.default_rng(7)
    # second-order ratio test of the block linearization
    tau = (4.0, 1.5)
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.4, -0.2))),)
    ratios = []
    for _ in range(5):
        s = rng.uniform(-4, 4, 4)
        f = rng.uniform(-2, 2, (4, 2))
        config = Configuration.from_unknowns(paper5, s, f)
        blocks = assemble_blocks(paper5, config, tau, loads)
        base = residual(paper5, config, tau, loads, scaled=False)
        direction = rng.uniform(-1, 1, 12)
        direction /= np.linalg.norm(direction)
        defects = []
        for h in (1e-4, 5e-5):
            ds = h * direction[:4]
            df = h * direction[4:].reshape(4, 2)
            moved = Configuration.from_unknowns(paper5, s + ds, f + df)
            actual = residual(paper5, moved, tau, loads, scaled=False)
            predicted = base + _predicted_change(paper5, blocks, config, ds, df)
            defects.append(float(np.abs(actual - predicted).max()))
        ratio = defects[0] / defects[1]
        assert 3.0 <= ratio <= 5.0
        ratios.append(ratio)

    # load-derivative FD agreement, 100 random poses per variant
    load_rows = check_load_derivatives(rng, samples=100)
    assert len(load_rows) == 3 and all(row.passed for row in load_rows)
    report_line(7, f"block FD ratios {['%.2f' % r for r in ratios]}, "
                   f"load-derivative FD {'; '.join(row.detail for row in load_rows)}")


# --- criterion 8: cost structure ---------------------------------------------

def test_criterion_8_cost_structure():
    design = standard_link_chain(50)
    start = time.perf_counter()
    config, report = solve_tension(design, (3.0, 2.0))
    elapsed = time.perf_counter() - start
    n = design.n
    assert report.converged
    assert report.inversions_3x3 == report.iterations * (n - 2)
    assert report.solves_6x6 == report.iterations
    per_iteration = elapsed / report.iterations
    assert per_iteration < 0.050
    report_line(8, f"n=50: {report.iterations} iterations, exactly {n - 2} interior "
                   f"3x3 inversions + one 6x6 solve each, {per_iteration * 1e3:.1f} ms/iter")
