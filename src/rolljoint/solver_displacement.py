"""Displacement-actuation solver.

Desired tendon lengths are generally not exactly reachable (pulling one
tendon releases the other), so the tensions are found by least squares on
the length error e = l(s) - l_des.  The unknowns are the joint unknowns
(s, f) and the tensions tau together, with the link balances h = 0 beside
the length equations.  The tensions enter each link's balance only through
its F block, so the system keeps the block structure of the equilibrium
solver: each outer step is one elimination with three right-hand-side
columns at the current iterate, an equilibrium or not,

    block_solve(blocks, [-h, -F])  ->  (ds0, df0), (S_s, S_f).

(ds0, df0) is the Newton step at fixed tensions and (S_s, S_f) the response
of the joint unknowns to unit tension impulses.  With L = dl/ds from the
tendon-segment derivatives, a tension change dtau moves the length error to
r + J dtau to first order, where r = e + L ds0 and J = L S_s; at an
equilibrium J is the impulse-test Jacobian of `tendon_jacobian`.

dtau is a damped Gauss-Newton (Levenberg-Marquardt) step on the 2x2 normal
equations, (J^T J + lambda I) dtau = -J^T r, written in step-size form
alpha = 1/lambda:

    dtau = -alpha (I + alpha J^T J)^-1 J^T r.

As alpha -> 0 this is the gradient step -alpha J^T r of plain gradient
descent, so that method is the heavily damped limit of the same iteration.
The trial iterate is (s + ds0 + S_s dtau, f + df0 + S_f dtau, tau + dtau);
it is accepted when the merit phi = |e|^2/2 + |rows|^2/2 (rows: the scaled
balance residual, in the units of the solver tolerances) does not grow
beyond rounding.  Each trial assembles its blocks once: their balance rows
give its merit and, once it is accepted, the next step's elimination.  A
rejected trial only re-solves the 2x2 system.  The first step takes
alpha = ALPHA_GROWTH^2 / ||J||_F^2 of the first Jacobian (lambda = 1e-2
||J||_F^2), near the Gauss-Newton step along J's strong direction but still
damped along the weak direction of a loaded J.  After an accepted step
alpha grows (towards Gauss-Newton) by a gain-ratio test (More 1978; Madsen,
Nielsen & Tingleff 2004): the model predicts the decrease
pred = phi - |r + J dtau|^2/2 (its balance rows are zero), and where
pred > 0 and the trial's actual decrease is within GAIN_BAND * pred of it,
alpha grows by ALPHA_GROWTH^2, otherwise by ALPHA_GROWTH.  It shrinks by
BACKTRACK_FACTOR after a rejected step (towards gradient descent); a trial
whose tendon collapses or whose merit is not finite is rejected too.  When
MAX_BACKTRACKS retries of one step all fail, the descent stops unconverged.
alpha is capped so that lambda stays above DAMPING_FLOOR * ||J||_F^2: the
2x2 system then stays solvable (condition number at most 1 + 1/DAMPING_FLOOR)
where J is rank 1 (unloaded chains, J tau = 0), while a weak load, which
leaves J only nearly rank 1, still gets an almost undamped step.  Tensions
are projected onto the tension floor; a tension held at the floor by its
gradient is dropped from the normal matrix (a projected Newton step), so the
other tension still gets its Gauss-Newton step.  These 2-element quantities
(J, the gradient, the normal matrix, the damped step in closed form, the
floor projection and the norms of the stopping test) are Python floats; the
arrays are the elimination's columns and the balance rows.

Only the start is an equilibrium solve: `solve_tension` at `tau_init`.  The
descent stops at an iterate whose scaled residual is within the inner
`tol_residual` and whose gradient e^T J is within `grad_tol` (relative to
max(1, ||e|| ||J||)); both are read from that step's own elimination.  A
balanced iterate whose first trial rounds to no tension change is stationary
and stops converged; a zero step after a rejection stops it unconverged.

The start does not depend on the target lengths: it is the equilibrium at
`tau_init`, its tendon lengths, its balance rows and its first elimination,
which step 0 of the descent reads.  A cold start (no `init`) is therefore
kept per design, with its `tau_init` (by value), its loads (element by
element, by identity, as the value types compare) and its inner solver
options (by ==), and reused by the next cold request that matches all
three; a request that does not match replaces it.  The kept arrays are
read-only, a start that raises is not kept, and the results are the same
bits whether the start is reused or solved.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateTendonError, NoConvergenceError, TensionFloorError
from .mechanism import Configuration, MechanismDesign, evaluate, tendon_lengths
from .solver_tension import (
    SolverOptions,
    _check_iteration_limit,
    _clamp_s,
    _refuse_pinned,
    block_solve,
    solve_tension,
)
from .statics import assemble_blocks, block_residual, residual_norm

DAMPING_FLOOR = 1e-10   # lower bound on lambda / ||J||_F^2
ALPHA_GROWTH = 10.0     # alpha factor after an accepted step
BACKTRACK_FACTOR = 0.5  # alpha factor after a rejected step
MAX_BACKTRACKS = 40     # retries of one step before the descent stops
GAIN_BAND = 0.01        # relative gap of the actual to the predicted decrease
                        # within which alpha grows by ALPHA_GROWTH**2


@dataclass(frozen=True)
class DisplacementOptions:
    grad_tol: float = 1e-10
    max_outer_iters: int = 500
    tension_floor: float = 1e-3     # tendons cannot push
    inner: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not self.tension_floor > 0.0:
            raise ValueError("tension floor must be positive")
        _check_iteration_limit(self.max_outer_iters, "max_outer_iters", 0)
        if not self.grad_tol >= 0.0:
            raise ValueError("grad_tol must be >= 0")


@dataclass(frozen=True)
class DisplacementReport:
    """Outcome of a displacement solve.

    `outer_iterations` counts the bordered steps (a last, rejected one
    included) and `inner_iterations` the Newton iterations of the start's
    `solve_tension` alone; when a kept cold start is reused, that is the
    iteration count of the solve that built it.  `objective` and
    `objective_history` (the start, then one entry per step) are the merit
    phi = |e|^2/2 + |rows|^2/2, and `final_residual_norm` is the scaled
    residual infinity norm of the last iterate.
    """

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
    blocks = assemble_blocks(design, config, tau, loads)
    if residual_norm(block_residual(design, blocks), np.inf) > 1e-6:
        raise ValueError("tendon_jacobian requires an equilibrium configuration")
    return _bordered_columns(config, blocks)[1][:, 1:]


def _bordered_columns(config: Configuration, blocks):
    """One elimination with the columns [-h, -F]: `etas` (joints, 3, 3),
    column 0 the Newton step at fixed tensions and columns 1-2 the joint
    responses to unit tension impulses (row 0 ds, rows 1-2 df), and the
    tendon lengths' response to them (sides, 3), L etas[:, 0] = [L ds0 | J]
    with L = dl/ds from the configuration's geometry."""
    etas, _ = block_solve(blocks, -np.concatenate((blocks.h[:, :, None], blocks.F), axis=2))
    segments = config.geometry.segments
    dl_ds = np.einsum("jsi,jsi->sj", segments.unit[:, 0], segments.d_vec[:, 0])
    return etas, dl_ds @ etas[:, 0]


def _solve_start(design: MechanismDesign, tau: np.ndarray, loads, inner: SolverOptions,
                 init: Optional[Configuration]):
    """The target-independent start of a descent: the equilibrium at `tau`,
    the report of its solve (whose blocks are the equilibrium's), its tendon
    lengths and scaled balance rows, and its first elimination
    `_bordered_columns` (etas, moves)."""
    config, report = solve_tension(design, tau, loads, init=init, opts=inner)
    return (config, report, tendon_lengths(design, config),
            block_residual(design, report.blocks), _bordered_columns(config, report.blocks))


# design -> (tau_init, loads, inner options, start) of its last cold start
_COLD_STARTS: "weakref.WeakKeyDictionary[MechanismDesign, tuple]" = weakref.WeakKeyDictionary()


def _cold_start(design: MechanismDesign, tau: np.ndarray, loads, inner: SolverOptions):
    """The start without `init`, reused when the design's kept cold start
    has the same tensions, load objects and inner options; otherwise solved,
    made read-only and kept in its place."""
    tau_key, loads = tuple(tau.tolist()), tuple(loads)
    kept = _COLD_STARTS.get(design)
    if kept is not None:
        kept_tau, kept_loads, kept_inner, start = kept
        if (kept_tau == tau_key and kept_inner == inner and len(kept_loads) == len(loads)
                and all(map(operator.is_, kept_loads, loads))):
            return start
    start = config, report, lengths, rows, columns = _solve_start(design, tau, loads, inner, None)
    for value in (*vars(config.geometry).values(), *vars(config.geometry.segments).values(),
                  *vars(report.blocks).values(), lengths, rows, *columns):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    _COLD_STARTS[design] = tau_key, loads, inner, start
    return start


def _merit(e0: float, e1: float, rows: np.ndarray) -> float:
    return 0.5 * (e0 * e0 + e1 * e1) + 0.5 * float((rows * rows).sum())


def damped_step(normal, grad, alpha: float) -> tuple[float, float]:
    """Levenberg-Marquardt step (normal + I/alpha)^-1 grad in step-size form.

    `normal` is J^T J and `grad` is J^T r for the linearized length error r;
    the step is subtracted from the tensions.  For alpha -> 0 it tends to
    the gradient step alpha * grad.  The 2x2 system is solved in closed
    form, the adjugate of I + alpha normal over its determinant, on the
    Python floats of its entries.
    """
    (n00, n01), (n10, n11) = normal
    g0, g1 = grad
    m00, m11 = 1.0 + alpha * n00, 1.0 + alpha * n11
    m01, m10 = alpha * n01, alpha * n10
    scale = alpha / (m00 * m11 - m01 * m10)
    return scale * (m11 * g0 - m01 * g1), scale * (m00 * g1 - m10 * g0)


def solve_displacement(
    design: MechanismDesign,
    l_des,
    loads=(),
    tau_init=(1.0, 1.0),
    opts: Optional[DisplacementOptions] = None,
    init: Optional[Configuration] = None,
) -> tuple[np.ndarray, Configuration, DisplacementReport]:
    """Find tensions whose equilibrium best matches the desired tendon
    lengths; `init` warm-starts the equilibrium solve at `tau_init` that the
    descent starts from.

    An unloaded chain's J has rank 1 (J tau = 0), so an unreachable target
    stops on the gradient test at a least-squares point: `converged` then
    means stationary, and `length_error_mm` says how far the target was missed.
    A balanced iterate whose first tension step rounds to no change ends the
    descent as stationary too."""
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

    if init is None:
        start = _cold_start(design, tau, loads, opts.inner)
    else:
        start = _solve_start(design, tau, loads, opts.inner, init)
    # each iterate's one elimination, (etas, moves): the Newton step and the
    # tension impulse responses, and the lengths' response to them (the
    # start's is part of the start)
    config, start_report, lengths, rows, (etas, moves) = start
    # the tensions, the length error and the 2x2 quantities of the step are
    # Python floats
    t0, t1 = tau.tolist()
    e0, e1 = (lengths - l_des).tolist()
    objective = _merit(e0, e1, rows)
    history = [objective]
    backtracks = 0

    for outer in range(opts.max_outer_iters + 1):
        (r0, j00, j01), (r1, j10, j11) = moves.tolist()
        g0, g1 = e0 * j00 + e1 * j10, e0 * j01 + e1 * j11
        grad_norm = math.sqrt(g0 * g0 + g1 * g1)
        jac_sq = j00 * j00 + j01 * j01 + j10 * j10 + j11 * j11
        scale = max(1.0, math.sqrt((e0 * e0 + e1 * e1) * jac_sq))
        balanced = residual_norm(rows, np.inf) <= opts.inner.tol_residual
        converged = balanced and grad_norm <= opts.grad_tol * scale
        if converged or outer == opts.max_outer_iters:
            break
        # the tension step lowers the linearized error r = e + L ds0
        r0 += e0
        r1 += e1
        g0, g1 = r0 * j00 + r1 * j10, r0 * j01 + r1 * j11
        jac_sq = max(jac_sq, 1e-30)
        if outer == 0:
            alpha = ALPHA_GROWTH**2 / jac_sq
        alpha = min(alpha, 1.0 / (DAMPING_FLOOR * jac_sq))
        # a tension the gradient pushes into the floor is left out of the
        # normal matrix, so the projection cannot undo the other's step
        free0, free1 = t0 > floor or g0 <= 0.0, t1 > floor or g1 <= 0.0
        n01 = j00 * j01 + j10 * j11 if free0 and free1 else 0.0
        normal = ((j00 * j00 + j10 * j10 if free0 else 0.0, n01),
                  (n01, j01 * j01 + j11 * j11 if free1 else 0.0))

        accepted = False
        for retry in range(MAX_BACKTRACKS + 1):
            d0, d1 = damped_step(normal, (g0, g1), alpha)
            # max(x, floor) keeps a NaN x, as np.maximum does
            u0, u1 = max(t0 - d0, floor), max(t1 - d1, floor)
            step0, step1 = u0 - t0, u1 - t1
            if not (step0 or step1):
                if t0 <= floor and t1 <= floor:
                    raise TensionFloorError(
                        "descent pinned both tensions at the floor",
                        configuration=config,
                    )
                # no representable tension change is left: a balanced
                # iterate is stationary, unless the step was already damped
                converged = balanced and retry == 0
                break
            update = etas @ np.array((1.0, step0, step1))
            try:
                trial = evaluate(design, _clamp_s(design, config.s + update[:, 0]),
                                 config.f + update[:, 1:])
            except DegenerateTendonError:
                alpha *= BACKTRACK_FACTOR
                backtracks += 1
                continue
            lengths_trial = tendon_lengths(design, trial)
            f0, f1 = (lengths_trial - l_des).tolist()
            # the trial's blocks give its merit and, once accepted, the
            # next step's elimination
            tau_trial = np.array((u0, u1))
            blocks_trial = assemble_blocks(design, trial, tau_trial, loads)
            rows_trial = block_residual(design, blocks_trial)
            objective_trial = _merit(f0, f1, rows_trial)
            # a NaN merit fails the test and counts as a backtrack
            if objective_trial <= objective * (1.0 + 1e-14) + 1e-300:
                # the model's decrease: its lengths r + J dtau, its balance
                # rows zero; where the trial's decrease matches it, alpha
                # grows by ALPHA_GROWTH**2 instead of ALPHA_GROWTH
                m0 = r0 + j00 * step0 + j01 * step1
                m1 = r1 + j10 * step0 + j11 * step1
                predicted = objective - 0.5 * (m0 * m0 + m1 * m1)
                fits = (predicted > 0.0
                        and abs(objective - objective_trial - predicted) <= GAIN_BAND * predicted)
                alpha *= ALPHA_GROWTH**2 if fits else ALPHA_GROWTH
                tau, t0, t1, config, rows = tau_trial, u0, u1, trial, rows_trial
                lengths, e0, e1, objective = lengths_trial, f0, f1, objective_trial
                etas, moves = _bordered_columns(trial, blocks_trial)
                accepted = True
                break
            alpha *= BACKTRACK_FACTOR
            backtracks += 1
        history.append(objective)
        if not accepted:
            break

    # a rejected step leaves config unchanged, so the gradient and the
    # residual always belong to the last evaluated iterate
    report = DisplacementReport(
        outer_iterations=len(history) - 1,
        converged=converged,
        gradient_norm=grad_norm,
        objective=objective,
        achieved_lengths=tuple(lengths),
        target_lengths=tuple(l_des),
        final_residual_norm=residual_norm(rows, np.inf),
        inner_iterations=start_report.iterations,
        backtrack_count=backtracks,
        objective_history=tuple(history),
        length_error_mm=max(abs(e0), abs(e1)),
    )
    if not converged:
        raise NoConvergenceError(
            "displacement descent did not reach the gradient and residual tolerances",
            report=report,
            configuration=config,
        )
    _refuse_pinned(design, config, report, "converged with contact at domain boundary")
    return tau, config, report
