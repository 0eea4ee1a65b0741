"""Self-contained verification suites for a mechanism design.

Each suite returns CheckResult rows; the CLI `verify` command prints them as
a table and fails if any row fails.  The suites are the independent checks:
finite differences against the closed-form derivatives, a dense Newton
oracle against the recursive solver, and potential-energy stationarity at
solved equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import loads as loads_mod
from . import oracle, statics
from .mechanism import (
    Configuration,
    MechanismDesign,
    pose_difference,
    tendon_lengths,
    validate,
)
from .solver_displacement import tendon_jacobian
from .solver_tension import SolverOptions, solve_tension


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _random_pose(rng: np.random.Generator) -> geo.Pose2:
    return geo.Pose2(rng.uniform(-np.pi, np.pi), rng.uniform(-50.0, 50.0, 2))


def _random_twist(rng: np.random.Generator) -> geo.Twist2:
    return geo.Twist2(rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0, 2))


def check_geometry_identities(rng: np.random.Generator):
    rows = []
    worst_hom = worst_dual = worst_anti = worst_fd = 0.0
    for _ in range(300):
        a, b = _random_pose(rng), _random_pose(rng)
        err = np.abs(
            geo.adjoint(geo.compose(a, b)) - geo.adjoint(a) @ geo.adjoint(b)
        ).max()
        worst_hom = max(worst_hom, err)
        err = np.abs(geo.coadjoint(a) - geo.adjoint(geo.inverse(a)).T).max()
        worst_dual = max(worst_dual, err)
        w = rng.uniform(-2.0, 2.0)
        t = rng.uniform(-10.0, 10.0, 2)
        err = np.abs(geo.skew1(w) @ t + geo.skew2(t) * w).max()
        worst_anti = max(worst_anti, err)

        pose, xi = a, _random_twist(rng)
        h = 1e-6
        upper = geo.coadjoint(geo.compose(pose, geo.exp_twist(xi, h)))
        lower = geo.coadjoint(geo.compose(pose, geo.exp_twist(xi, -h)))
        fd = (upper - lower) / (2.0 * h)
        closed = geo.coadjoint(pose) @ geo.coadjoint_small(xi)
        denom = max(np.abs(closed).max(), 1.0)
        worst_fd = max(worst_fd, np.abs(fd - closed).max() / denom)
    rows.append(CheckResult("geometry", "adjoint homomorphism", worst_hom < 1e-10,
                            f"max err {worst_hom:.2e}"))
    rows.append(CheckResult("geometry", "coadjoint duality", worst_dual < 1e-10,
                            f"max err {worst_dual:.2e}"))
    rows.append(CheckResult("geometry", "cross anticommutativity", worst_anti < 1e-12,
                            f"max err {worst_anti:.2e}"))
    rows.append(CheckResult("geometry", "coadjoint derivative vs FD", worst_fd < 1e-5,
                            f"max rel err {worst_fd:.2e}"))
    return rows


def check_surface_ode(design: MechanismDesign):
    rows = []
    worst_ratio_err = worst_speed = 0.0
    # each distinct surface of the design's stack, shared ones once
    for surf in dict.fromkeys(design.surface_stack.surfaces):
        margin = 0.05 * surf.width
        grid = np.linspace(surf.s_min + margin, surf.s_max - margin, 20)
        for s in grid:
            frame = surf.frame_at(s)
            twist = geo.Twist2(surf.curvature_at(s), (1.0, 0.0))
            errs = []
            for h in (1e-3, 1e-4):
                stepped = surf.frame_at(s + h)
                predicted = geo.compose(frame, geo.exp_twist(twist, h))
                dt, da = pose_difference(stepped, predicted)
                errs.append(max(dt, da))
            if errs[0] > 1e-14:
                ratio = errs[0] / max(errs[1], 1e-300)
                # exact arcs are better than second order; only flag too-low ratios
                if ratio < 80.0:
                    worst_ratio_err = max(worst_ratio_err, 80.0 - ratio)
            h = 1e-6
            upper = surf.frame_at(s + h).translation
            lower = surf.frame_at(s - h).translation
            speed = float(np.linalg.norm((upper - lower) / (2.0 * h)))
            worst_speed = max(worst_speed, abs(speed - 1.0))
    rows.append(CheckResult("surface", "arc-length ODE order", worst_ratio_err == 0.0,
                            f"worst ratio shortfall {worst_ratio_err:.2e}"))
    rows.append(CheckResult("surface", "unit tangent speed", worst_speed < 1e-6,
                            f"max |speed-1| {worst_speed:.2e}"))
    return rows


def check_load_derivatives(rng: np.random.Generator):
    rows = []
    variants = {
        "constant_body": lambda: loads_mod.ConstantBody(
            target_link=1, wrench=geo.Wrench2(rng.uniform(-5, 5), rng.uniform(-5, 5, 2))
        ),
        "constant_workspace": lambda: loads_mod.ConstantWorkspace(
            target_link=1,
            wrench=geo.Wrench2(rng.uniform(-5, 5), rng.uniform(-5, 5, 2)),
            attach=rng.uniform(-10, 10, 2),
        ),
        "linear_spring": lambda: loads_mod.LinearSpring(
            target_link=1, stiffness=rng.uniform(0.01, 2.0), anchor=rng.uniform(-30, 30, 2)
        ),
    }
    h = 1e-6
    for name, make in variants.items():
        worst = 0.0
        for _ in range(100):
            load = make()
            pose = _random_pose(rng)
            closed = load.body_wrench_derivative(pose.rotation, pose.translation)
            fd = np.zeros((3, 3))
            for col in range(3):
                delta = np.zeros(3)
                delta[col] = h
                upper = geo.compose(pose, geo.exp_twist(geo.Twist2(delta[0], delta[1:])))
                lower = geo.compose(pose, geo.exp_twist(geo.Twist2(-delta[0], -delta[1:])))
                fd[:, col] = (load.body_wrench(upper.rotation, upper.translation)
                              - load.body_wrench(lower.rotation, lower.translation)) / (2.0 * h)
            denom = max(np.abs(closed).max(), 1.0)
            worst = max(worst, np.abs(fd - closed).max() / denom)
        rows.append(CheckResult("loads", f"{name} derivative vs FD", worst < 1e-5,
                                f"max rel err {worst:.2e}"))
    return rows


def _random_feasible_config(design: MechanismDesign, rng: np.random.Generator) -> Configuration:
    s = np.array([
        rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
        for lo, hi in design.domains
    ])
    f = rng.uniform(-2.0, 2.0, (design.joint_count, 2))
    return Configuration.from_unknowns(design, s, f)


def check_block_linearization(design: MechanismDesign, rng: np.random.Generator):
    """Stacked blocks must predict residual changes to second order."""
    tau = np.array([2.0, 1.0])
    loads = (loads_mod.ConstantWorkspace(
        target_link=design.n, wrench=geo.Wrench2(0.0, (0.4, -0.2))),)
    worst = 0.0
    detail = []
    for _ in range(5):
        config = _random_feasible_config(design, rng)
        blocks = statics.assemble_blocks(design, config, tau, loads)
        direction = rng.uniform(-1.0, 1.0, 3 * design.joint_count)
        direction /= np.linalg.norm(direction)
        errs = []
        for h in (1e-4, 5e-5):
            ds = h * direction[: design.joint_count]
            df = h * direction[design.joint_count:].reshape(-1, 2)
            moved = Configuration.from_unknowns(design, config.s + ds, config.f + df)
            actual = statics.residual(design, moved, tau, loads, scaled=False)
            base = statics.residual(design, config, tau, loads, scaled=False)
            predicted = base + _predicted_change(design, blocks, config, ds, df)
            errs.append(float(np.abs(actual - predicted).max()))
        if errs[0] < 1e-12:
            continue
        ratio = errs[0] / max(errs[1], 1e-300)
        detail.append(ratio)
        # halving the step must shrink the defect ~4x
        if not 3.0 <= ratio <= 5.0:
            worst = max(worst, abs(ratio - 4.0))
    passed = worst == 0.0
    return [CheckResult("statics", "block linearization order", passed,
                        f"step ratios {['%.2f' % r for r in detail]}")]


def _predicted_change(design, blocks, config, ds, df):
    """First-order residual change implied by the block rows."""
    deltas = np.zeros((design.joint_count, 3))
    deltas[:, 0] = ds
    deltas[:, 1:] = df
    d_xi_prev = np.zeros(3)
    out = np.zeros((design.n - 1, 3))
    for k in range(1, design.n):
        blk = blocks[k - 1]
        d_xi = -(blk.A @ d_xi_prev) - blk.B @ deltas[k - 1]
        d_eta = deltas[k] if k <= design.n - 2 else np.zeros(3)
        d_here = blk.D @ d_eta if k <= design.n - 2 else np.zeros(3)
        out[k - 1] = blk.C @ d_xi + d_here + blk.E @ deltas[k - 1]
        d_xi_prev = d_xi
    return out


def _verify_scenarios(design: MechanismDesign):
    pull = loads_mod.ConstantWorkspace(
        target_link=design.n, wrench=geo.Wrench2(0.0, (0.6, 0.0)))
    spring = loads_mod.LinearSpring(
        target_link=design.n, stiffness=0.02,
        anchor=(30.0, 10.0 * design.n))
    return [
        (np.array([1.0, 1.0]), ()),
        (np.array([3.0, 1.0]), ()),
        (np.array([6.0, 3.0]), (pull,)),
        (np.array([2.0, 2.5]), (spring,)),
    ]


def check_jacobian_fd(design: MechanismDesign, rng: np.random.Generator):
    opts = SolverOptions(tol_residual=1e-12)
    worst = 0.0
    worst_null = 0.0
    for _ in range(3):
        tau = rng.uniform(1.0, 6.0, 2)
        config, _ = solve_tension(design, tau, opts=opts)
        jac = tendon_jacobian(design, config, tau)
        h = 1e-4 * float(np.linalg.norm(tau))
        fd = np.zeros((2, 2))
        for col in range(2):
            bump = np.zeros(2)
            bump[col] = h
            up, _ = solve_tension(design, tau + bump, init=config, opts=opts)
            dn, _ = solve_tension(design, tau - bump, init=config, opts=opts)
            fd[:, col] = (tendon_lengths(design, up) - tendon_lengths(design, dn)) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-12)
        worst = max(worst, float(np.abs(jac - fd).max() / denom))
        null = float(np.linalg.norm(jac @ tau))
        bound = 1e-8 * np.linalg.norm(jac) * np.linalg.norm(tau)
        worst_null = max(worst_null, null / max(bound, 1e-300))
    return [
        CheckResult("jacobian", "impulse test vs re-solve FD", worst < 1e-4,
                    f"max rel err {worst:.2e}"),
        CheckResult("jacobian", "unloaded tension null direction", worst_null <= 1.0,
                    f"|J tau| / bound {worst_null:.2e}"),
    ]


def check_dense_oracle(design: MechanismDesign):
    rows = []
    opts = SolverOptions(tol_residual=1e-11)
    for idx, (tau, loads) in enumerate(_verify_scenarios(design)):
        config, _ = solve_tension(design, tau, loads, opts=opts)
        ref = oracle.dense_solve(design, tau, loads, init=None, tol=1e-11)
        s_err = float(np.abs(config.s - ref.s).max())
        pose_err = max(
            max(pose_difference(a, b)) for a, b in zip(config.poses, ref.poses)
        )
        ok = s_err < 1e-8 and pose_err < 1e-6
        rows.append(CheckResult("oracle", f"dense agreement case {idx}", ok,
                                f"s err {s_err:.2e}, pose err {pose_err:.2e}"))
    return rows


def check_energy_stationarity(design: MechanismDesign):
    rows = []
    opts = SolverOptions(tol_residual=1e-12)
    for idx, (tau, loads) in enumerate(_verify_scenarios(design)):
        config, _ = solve_tension(design, tau, loads, opts=opts)
        grad = oracle.energy_gradient_fd(design, config.s, tau, loads)
        bound = 1e-6 * float(np.sum(tau))
        worst = float(np.abs(grad).max())
        rows.append(CheckResult("energy", f"stationarity case {idx}", worst < bound,
                                f"|grad|_inf {worst:.2e} (bound {bound:.2e})"))
    return rows


def run_verification(design: MechanismDesign, seed: int = 0) -> list[CheckResult]:
    problems = validate(design)
    if problems:
        raise ValueError("design invalid: " + "; ".join(problems))
    rng = np.random.default_rng(seed)
    rows: list[CheckResult] = []
    rows += check_geometry_identities(rng)
    rows += check_surface_ode(design)
    rows += check_load_derivatives(rng)
    rows += check_block_linearization(design, rng)
    rows += check_jacobian_fd(design, rng)
    rows += check_dense_oracle(design)
    rows += check_energy_stationarity(design)
    return rows
