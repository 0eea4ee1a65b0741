"""Recursive Newton solver for tension-actuated equilibrium.

Each iteration assembles the per-link blocks, eliminates them forward into a
single 6x6 boundary system (base pose fixed, no joint unknowns past the tip),
solves it, back-substitutes for every joint update and applies a backtracking
line search on the scaled residual norm.  Interior links cost one 3x3
inversion each; the boundary solve is the only 6x6 operation.

Each D block and the boundary system is equilibrated (one row/column
max-abs pass) into B and rejected when its 1-norm condition number
||B||_1 ||B^-1||_1 exceeds CONDITION_LIMIT / size, read from an explicit
inverse instead of an SVD.  As kappa_2 <= size * kappa_1, no accepted
matrix has a 2-norm condition number above CONDITION_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContactRolloffError, NoConvergenceError, SingularBlockError
from .loads import check_targets
from .mechanism import Configuration, MechanismDesign, evaluate
from .statics import LinkBlocks, assemble_blocks, residual, residual_norm

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SolverOptions:
    tol_residual: float = 1e-9      # scaled residual infinity norm [N]
    max_iters: int = 100
    backtrack_factor: float = 0.5
    max_backtracks: int = 20

    def __post_init__(self):
        if self.tol_residual <= 0.0 or self.max_iters < 1:
            raise ValueError("tolerance must be positive and max_iters >= 1")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be >= 0")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual_norm: float
    backtrack_count: int
    clamped_joints: tuple[int, ...]
    converged: bool
    residual_history: tuple[float, ...] = ()
    inversions_3x3: int = 0
    solves_6x6: int = 0


@dataclass(frozen=True)
class NewtonStep:
    ds: np.ndarray
    df: np.ndarray
    d_xi_tip: np.ndarray
    inversions_3x3: int
    solves_6x6: int


def _equilibrate(matrix: np.ndarray, what: str):
    """One row/column max-abs equilibration pass; mixed units (mm, rad, N)
    otherwise inflate the conditioning estimate for purely notational
    reasons.  Returns (balanced matrix, row scales, column scales)."""
    row_scale = np.abs(matrix).max(axis=1)
    if not np.all(np.isfinite(row_scale)) or np.any(row_scale == 0.0):
        raise SingularBlockError(f"singular {what}")
    balanced = matrix / row_scale[:, None]
    col_scale = np.abs(balanced).max(axis=0)
    if np.any(col_scale == 0.0):
        raise SingularBlockError(f"singular {what}")
    return balanced / col_scale[None, :], row_scale, col_scale


def _check_condition(balanced: np.ndarray, balanced_inv: np.ndarray, what: str) -> None:
    cond = np.abs(balanced).sum(axis=0).max() * np.abs(balanced_inv).sum(axis=0).max()
    if not np.isfinite(cond) or cond > CONDITION_LIMIT / len(balanced):
        raise SingularBlockError(f"ill-conditioned {what} (cond_1 {cond:.2e})")


def _inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"singular {what}") from exc


def _checked_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    balanced, row_scale, col_scale = _equilibrate(matrix, what)
    inv = _inverse(matrix, what)
    # balanced = R^-1 M C^-1, so its inverse is C M^-1 R
    _check_condition(balanced, col_scale[:, None] * inv * row_scale[None, :], what)
    return inv


def _equilibrated_solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    balanced, row_scale, col_scale = _equilibrate(matrix, what)
    _check_condition(balanced, _inverse(balanced, what), what)
    solution = np.linalg.solve(balanced, rhs / row_scale[:, None])
    return solution / col_scale[:, None]


def _eliminate(blocks: list[LinkBlocks], rhs: list[np.ndarray]):
    """Forward pass of the block recursion.

    Returns per-link propagators P_k, the propagated per-link inputs Q_k r_k,
    the accumulated product P = P_tip ... P_1 and accumulated input, plus the
    interior 3x3 inversion count.
    """
    width = rhs[0].shape[1]
    prod = np.eye(6)
    acc = np.zeros((6, width))
    p_list: list[np.ndarray] = []
    q_rhs: list[np.ndarray] = []
    inversions = 0
    last = len(blocks) - 1
    for k, blk in enumerate(blocks):
        if k == last:
            d_inv = np.eye(3)
        else:
            d_inv = _checked_inverse(blk.D, f"D block at link {k + 1}")
            inversions += 1
        q_mat = np.zeros((6, 6))
        q_mat[:3, :3] = np.eye(3)
        q_mat[3:, :3] = -d_inv @ blk.C
        q_mat[3:, 3:] = d_inv
        left = np.zeros((6, 6))
        left[:3, :3] = blk.A
        left[:3, 3:] = blk.B
        left[3:, 3:] = blk.E
        p_mat = -q_mat @ left
        qr = q_mat @ rhs[k]
        acc = p_mat @ acc + qr
        prod = p_mat @ prod
        p_list.append(p_mat)
        q_rhs.append(qr)
    return p_list, q_rhs, prod, acc, inversions


def block_solve(blocks: list[LinkBlocks], rhs: list[np.ndarray]):
    """Solve the block recursion for per-link right-hand sides (6, width):
    eliminate forward, solve the 6x6 boundary system for (d_xi_tip,
    d_eta_base), then back-substitute every joint update from the base one.

    Returns the stacked joint updates (joints, 3, width), the tip pose
    perturbation (3, width) and the interior 3x3 inversion count.
    """
    p_list, q_rhs, prod, acc, inversions = _eliminate(blocks, rhs)
    boundary = np.zeros((6, 6))
    boundary[:3, :3] = np.eye(3)
    boundary[:, 3:] = -prod[:, 3:]
    state = np.zeros_like(acc)
    state[3:] = _equilibrated_solve(boundary, acc, "boundary system")[3:]
    etas = [state[3:]]
    for k in range(len(p_list)):
        state = p_list[k] @ state + q_rhs[k]
        if k < len(p_list) - 1:
            etas.append(state[3:])
    return np.array(etas), state[:3], inversions


def newton_step(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
    blocks: Optional[list[LinkBlocks]] = None,
) -> NewtonStep:
    """One full-length update of all joint unknowns at the current state."""
    if blocks is None:
        blocks = assemble_blocks(design, config, tau, loads)
    rhs = [np.concatenate([np.zeros(3), -blk.h]).reshape(6, 1) for blk in blocks]
    etas, d_xi_tip, inversions = block_solve(blocks, rhs)
    return NewtonStep(
        ds=etas[:, 0, 0],
        df=etas[:, 1:, 0],
        d_xi_tip=d_xi_tip[:, 0],
        inversions_3x3=inversions,
        solves_6x6=1,
    )


def initial_forces(design: MechanismDesign, s: np.ndarray, tau, loads=()) -> np.ndarray:
    """Least-squares contact forces for fixed contact points.

    The balance is affine in the contact forces, so this is one small linear
    least-squares fit.  Starting Newton from all-zero forces instead puts the
    iterate on a nearly singular manifold where the first step degenerates.
    """
    joints = design.joint_count
    config = evaluate(design, s, np.zeros((joints, 2)))
    blocks = assemble_blocks(design, config, tau, loads)
    scale = np.array([1.0 / design.characteristic_length, 1.0, 1.0])
    coeff = np.zeros((3 * joints, 2 * joints))
    rhs = np.zeros(3 * joints)
    for k in range(1, design.n):
        blk = blocks[k - 1]
        row = 3 * (k - 1)
        rhs[row:row + 3] = -blk.h * scale
        coeff[row:row + 3, 2 * (k - 1):2 * k] += blk.E[:, 1:] * scale[:, None]
        if k <= design.n - 2:
            coeff[row:row + 3, 2 * k:2 * k + 2] += blk.D[:, 1:] * scale[:, None]
    fit, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    return fit.reshape(joints, 2)


def _clamp_s(design: MechanismDesign, s: np.ndarray) -> tuple[np.ndarray, list[int]]:
    lo, hi = design.domains.T
    clamped = np.flatnonzero((s < lo) | (s > hi)).tolist()
    return np.clip(s, lo, hi), clamped


def _pinned_joints(design: MechanismDesign, s: np.ndarray) -> list[int]:
    lo, hi = design.domains.T
    slack = 1e-9 * (hi - lo)
    return np.flatnonzero((s <= lo + slack) | (s >= hi - slack)).tolist()


def solve_tension(
    design: MechanismDesign,
    tau,
    loads=(),
    init: Optional[Configuration] = None,
    opts: Optional[SolverOptions] = None,
) -> tuple[Configuration, SolveReport]:
    """Find the equilibrium configuration under the given tendon tensions."""
    opts = opts or SolverOptions()
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (2,) or not (np.all(np.isfinite(tau)) and np.all(tau > 0.0)):
        raise ValueError("tendon tensions must be two finite positive values")
    check_targets(loads, design.n)

    if init is not None:
        s, f = _clamp_s(design, np.array(init.s, dtype=float))[0], init.f
    else:
        # contact points at the mating-domain midpoints, forces from the fit
        s = design.joint_midpoints()
        f = initial_forces(design, s, tau, loads)
    # each evaluated iterate's joint geometry is built once and shared by
    # its residual, its Newton blocks once accepted, and the caller
    # (carried on the returned configuration)
    config = evaluate(design, s, f)
    s, f = config.s, config.f

    history: list[float] = []
    clamped_all: set[int] = set()
    backtracks = 0
    inversions = 0
    boundary_solves = 0
    iterations = 0

    def report(converged: bool) -> SolveReport:
        return SolveReport(
            iterations, norm_inf, backtracks, tuple(sorted(clamped_all)), converged,
            tuple(history), inversions, boundary_solves,
        )

    rows = residual(design, config, tau, loads)
    norm_inf = residual_norm(rows, np.inf)
    history.append(norm_inf)

    while not norm_inf <= opts.tol_residual:   # a NaN residual keeps iterating
        if iterations >= opts.max_iters:
            raise NoConvergenceError(
                f"no convergence after {iterations} iterations "
                f"(residual {norm_inf:.3e})",
                report=report(False),
                configuration=config,
            )
        blocks = assemble_blocks(design, config, tau, loads)
        step = newton_step(design, config, tau, loads, blocks=blocks)
        inversions += step.inversions_3x3
        boundary_solves += step.solves_6x6
        iterations += 1

        norm_2 = residual_norm(rows, 2)
        scale = 1.0
        accepted = False
        for _ in range(opts.max_backtracks + 1):
            s_trial, clamped = _clamp_s(design, s + scale * step.ds)
            f_trial = f + scale * step.df
            trial = evaluate(design, s_trial, f_trial)
            rows_trial = residual(design, trial, tau, loads)
            trial_2 = residual_norm(rows_trial, 2)
            if trial_2 < norm_2 or trial_2 <= opts.tol_residual:
                accepted = True
                break
            scale *= opts.backtrack_factor
            backtracks += 1
        if not accepted:
            pinned = _pinned_joints(design, s)
            if pinned:
                raise ContactRolloffError(
                    f"stalled with contact pinned at a domain boundary "
                    f"for joints {pinned}",
                    report=report(False),
                    configuration=config,
                )
            raise NoConvergenceError(
                "line search stalled without residual decrease",
                report=report(False),
                configuration=config,
            )
        s, f, config, rows = s_trial, f_trial, trial, rows_trial
        clamped_all.update(clamped)
        norm_inf = residual_norm(rows, np.inf)
        history.append(norm_inf)

    pinned = _pinned_joints(design, s)
    if pinned:
        raise ContactRolloffError(
            f"converged with contact at domain boundary for joints {pinned}",
            report=report(True),
            configuration=config,
        )
    return config, report(True)
