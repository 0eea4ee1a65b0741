"""Displacement-actuation solver.

Desired tendon lengths are generally not exactly reachable (pulling one
tendon releases the other), so the tensions are found by least squares on
the length error e = l(tau) - l_des, with the equilibrium re-established
after every tension update.  The length-vs-tension Jacobian J comes from an
impulse test: unit tension perturbations are pushed through the same block
recursion the equilibrium solver uses, and the resulting contact-point
shifts are contracted with the tendon-segment derivatives.

Each outer step is a damped Gauss-Newton (Levenberg-Marquardt) step on the
2x2 normal equations, (J^T J + lambda I) dtau = J^T e, written in step-size
form alpha = 1/lambda:

    dtau = alpha (I + alpha J^T J)^-1 J^T e.

As alpha -> 0 this is the gradient step alpha J^T e of plain gradient
descent, so that method is the heavily damped limit of the same iteration.
alpha grows by `alpha_growth` after an accepted step (towards Gauss-Newton)
and shrinks by `backtrack_factor` after a rejected one (towards gradient
descent).  It is capped so that lambda stays above DAMPING_FLOOR * ||J||_F^2:
the 2x2 system then stays solvable (condition number at most
1 + 1/DAMPING_FLOOR) where J is rank 1 (unloaded chains, J tau = 0), while a
weak load, which leaves J only nearly rank 1, still gets an almost undamped
step.  Tensions are projected onto the tension floor; a tension held at the
floor by its gradient is dropped from the normal matrix (a projected Newton
step), so the other tension still gets its Gauss-Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    ContactRolloffError,
    NoConvergenceError,
    TensionFloorError,
)
from .mechanism import Configuration, MechanismDesign, geometry_of, tendon_lengths
from .solver_tension import SolverOptions, _clamp_s, block_solve, solve_tension
from .statics import assemble_blocks, block_residual, residual_norm

DAMPING_FLOOR = 1e-10  # lower bound on lambda / ||J||_F^2


@dataclass(frozen=True)
class DisplacementOptions:
    alpha: Optional[float] = None   # first 1/lambda; default 1 / ||J||_F^2
    grad_tol: float = 1e-10
    max_outer_iters: int = 500
    tension_floor: float = 1e-3     # tendons cannot push
    alpha_growth: float = 10.0      # alpha factor after an accepted step
    backtrack_factor: float = 0.5   # alpha factor after a rejected step
    max_backtracks: int = 40
    inner: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.alpha is not None and self.alpha <= 0.0:
            raise ValueError("step size must be positive")
        if self.tension_floor <= 0.0:
            raise ValueError("tension floor must be positive")
        if self.max_outer_iters < 0 or self.max_backtracks < 0:
            raise ValueError("max_outer_iters and max_backtracks must be >= 0")


@dataclass(frozen=True)
class DisplacementReport:
    outer_iterations: int
    converged: bool
    gradient_norm: float
    objective: float
    achieved_lengths: tuple[float, float]
    target_lengths: tuple[float, float]
    final_residual_norm: float
    inner_iterations: int
    backtrack_count: int
    objective_history: tuple[float, ...] = ()
    length_error_mm: float = 0.0    # max |achieved - target|


def tendon_jacobian(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
) -> np.ndarray:
    """2x2 Jacobian of (l_left, l_right) with respect to (tau_l, tau_r).

    The configuration must already be an equilibrium for `tau`; the impulse
    responses are only meaningful around a balanced state.
    """
    # attach the geometry, so that blocks and lengths read one build of it
    config = replace(config, geometry=geometry_of(design, config))
    return _jacobian_with_sensitivity(design, config, tau, loads)[0]


def _jacobian_with_sensitivity(design, config, tau, loads):
    """The length Jacobian plus the joint sensitivities (ds, df per unit
    tension impulse) it is contracted from, all from the configuration's
    joint geometry."""
    tau = np.asarray(tau, dtype=float)
    blocks = assemble_blocks(design, config, tau, loads)
    if residual_norm(block_residual(design, blocks), np.inf) > 1e-6:
        raise ValueError("tendon_jacobian requires an equilibrium configuration")
    rhs = [np.vstack([np.zeros((3, 2)), -blk.F]) for blk in blocks]
    etas, _, _ = block_solve(blocks, rhs)
    # etas: (joints, 3, 2); row 0 is ds per unit (tau_l, tau_r) impulse
    ds_sens, df_sens = etas[:, 0, :], etas[:, 1:, :]
    # dl_ds[j, side]: rate of that tendon's joint-j gap length along s_j
    dl_ds = np.array([
        np.einsum("si,si->s", geom.v.unit, geom.v.d_vec)
        for geom in geometry_of(design, config)
    ])
    return dl_ds.T @ ds_sens, ds_sens, df_sens


def damped_step(normal: np.ndarray, grad: np.ndarray, alpha: float) -> np.ndarray:
    """Levenberg-Marquardt step (normal + I/alpha)^-1 grad in step-size form.

    `normal` is J^T J and `grad` is J^T e; the step is subtracted from the
    tensions.  For alpha -> 0 it tends to the gradient step alpha * grad.
    """
    return alpha * np.linalg.solve(np.eye(len(grad)) + alpha * normal, grad)


def solve_displacement(
    design: MechanismDesign,
    l_des,
    loads=(),
    tau_init=(1.0, 1.0),
    opts: Optional[DisplacementOptions] = None,
    init: Optional[Configuration] = None,
) -> tuple[np.ndarray, Configuration, DisplacementReport]:
    """Find tensions whose equilibrium best matches the desired tendon
    lengths; `init` warm-starts the first equilibrium solve (at `tau_init`)."""
    opts = opts or DisplacementOptions()
    l_des = np.asarray(l_des, dtype=float)
    tau = np.asarray(tau_init, dtype=float)
    floor = opts.tension_floor
    if l_des.shape != (2,) or tau.shape != (2,):
        raise ValueError("expected two target lengths and two initial tensions")
    if not (np.all(np.isfinite(l_des)) and np.all(np.isfinite(tau))):
        raise ValueError("target lengths and initial tensions must be finite")
    if np.any(tau < floor):
        raise ValueError("initial tensions must be at or above the tension floor")

    config, inner_rep = solve_tension(design, tau, loads, init=init, opts=opts.inner)
    inner_iters = inner_rep.iterations
    lengths = tendon_lengths(design, config)
    error = lengths - l_des
    objective = 0.5 * float(error @ error)
    history = [objective]
    alpha = opts.alpha
    backtracks = 0

    for outer in range(opts.max_outer_iters + 1):
        # lengths and Jacobian read the geometry the equilibrium solve carried
        jac, ds_sens, df_sens = _jacobian_with_sensitivity(design, config, tau, loads)
        grad = error @ jac
        grad_norm = float(np.linalg.norm(grad))
        jac_norm = float(np.linalg.norm(jac))
        scale = max(1.0, float(np.linalg.norm(error)) * jac_norm)
        converged = grad_norm <= opts.grad_tol * scale
        if converged or outer == opts.max_outer_iters:
            break
        jac_sq = max(jac_norm**2, 1e-30)
        if alpha is None:
            alpha = 1.0 / jac_sq
        alpha = min(alpha, 1.0 / (DAMPING_FLOOR * jac_sq))
        # a tension the gradient pushes into the floor is left out of the
        # normal matrix, so the projection cannot undo the other's step
        free = (tau > floor) | (grad <= 0.0)
        normal = (jac.T @ jac) * np.outer(free, free)

        accepted = False
        for _ in range(opts.max_backtracks + 1):
            tau_trial = np.maximum(tau - damped_step(normal, grad, alpha), floor)
            step = tau_trial - tau
            if not np.any(step):
                if np.all(tau <= floor):
                    raise TensionFloorError(
                        "descent pinned both tensions at the floor",
                        configuration=config,
                    )
                break
            s_ws = config.s + ds_sens @ step
            f_ws = config.f + df_sens @ step
            warm = Configuration.from_unknowns(design, _clamp_s(design, s_ws)[0], f_ws)
            try:
                config_trial, rep_trial = solve_tension(
                    design, tau_trial, loads, init=warm, opts=opts.inner
                )
            except (ContactRolloffError, NoConvergenceError):
                alpha *= opts.backtrack_factor
                backtracks += 1
                continue
            inner_iters += rep_trial.iterations
            lengths_trial = tendon_lengths(design, config_trial)
            error_trial = lengths_trial - l_des
            objective_trial = 0.5 * float(error_trial @ error_trial)
            if objective_trial <= objective * (1.0 + 1e-14) + 1e-300:
                tau, config, inner_rep = tau_trial, config_trial, rep_trial
                lengths, error, objective = lengths_trial, error_trial, objective_trial
                alpha *= opts.alpha_growth
                accepted = True
                break
            alpha *= opts.backtrack_factor
            backtracks += 1
        history.append(objective)
        if not accepted:
            break

    # a rejected step leaves config unchanged, so grad_norm always belongs
    # to the last evaluated iterate
    report = DisplacementReport(
        outer_iterations=len(history) - 1,
        converged=converged,
        gradient_norm=grad_norm,
        objective=objective,
        achieved_lengths=tuple(lengths),
        target_lengths=tuple(l_des),
        final_residual_norm=inner_rep.final_residual_norm,
        inner_iterations=inner_iters,
        backtrack_count=backtracks,
        objective_history=tuple(history),
        length_error_mm=float(np.abs(error).max()),
    )
    if converged:
        return tau, config, report
    raise NoConvergenceError(
        "displacement descent did not reach the gradient tolerance",
        report=report,
        configuration=config,
    )
