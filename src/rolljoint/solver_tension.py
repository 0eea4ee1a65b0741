"""Recursive Newton solver for tension-actuated equilibrium.

Each iteration assembles the stacked per-link blocks, eliminates them
forward into a single 6x6 boundary system (base pose fixed, no joint
unknowns past the tip), solves it, reads every joint update from the
forward pass's per-link maps and applies a backtracking line search on the
scaled residual norm.
Interior links cost one 3x3 inversion each, all taken in one stacked
`np.linalg.inv`; the boundary solve is the only 6x6 operation, and only the
6x6 products of the recursion run link by link.  Every evaluated iterate
builds its joint geometry once and owns its blocks, assembled once: their
balance rows are its line-search residual and, once it is accepted, the next
Newton step eliminates them; the report carries the last iterate's blocks.
A cold solve evaluates its start at the mating-domain midpoints and fits the
contact forces on that evaluation; a warm start `init` is used as it is
unless a joint is clamped onto its domain.
`tangent_start` predicts such a start at new tensions and loads from a
nearby equilibrium: the balance is affine in both, so one elimination of the
equilibrium's blocks gives the first-order change of the contact points (the
predictor of a predictor-corrector continuation, Newton being the corrector).

Each D block and the boundary system must be well conditioned, in two
steps.  First a cheap upper bound on the balanced 1-norm condition number
kappa_1 is checked against half of CONDITION_LIMIT / size: for the D blocks
size * max|M| * max_k ||M_k^-1||_1 from the one inverse of the unbalanced
stack, so that an accepted stack is never equilibrated; for the boundary
system, whose balanced inverse and solution come from one solve,
size * ||B^-1||_1.  The factor 2 of margin is far above rounding, so the
bound never accepts a matrix the exact test refuses.  Only where the bound
is above it (or not finite), or LU fails, does the exact test run: each
matrix is equilibrated (one row/column max-abs pass) into B, its kappa_1 =
||B||_1 ||B^-1||_1 is read from the explicit inverse already at hand, and
the first matrix along the chain that is singular or whose kappa_1 exceeds
CONDITION_LIMIT / size is named in a SingularBlockError.  As
kappa_2 <= size * kappa_1, no accepted matrix has a 2-norm condition number
above CONDITION_LIMIT.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContactRolloffError, NoConvergenceError, SingularBlockError
from .loads import check_targets, net_wrench
from .mechanism import Configuration, MechanismDesign, evaluate
from .statics import LinkBlocks, assemble_blocks, residual_norm, unforced_balance

CONDITION_LIMIT = 1e12
_EYE3 = np.eye(3)
# the boundary system's d_xi_tip columns; its d_eta_base columns come from
# the running product
_BOUNDARY = np.zeros((6, 6))
_BOUNDARY[:3, :3] = _EYE3
BACKTRACK_FACTOR = 0.5   # step scale factor after a rejected trial
MAX_BACKTRACKS = 20      # step halvings before the line search stalls


def _check_iteration_limit(value, name: str, least: int) -> None:
    """Refuse an iteration limit that is no whole number (a float or a bool)
    with TypeError, and one below `least` with ValueError."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise TypeError(f"{name} must be a whole number, got {value!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class SolverOptions:
    tol_residual: float = 1e-9      # scaled residual infinity norm [N]
    max_iters: int = 100

    def __post_init__(self):
        if not self.tol_residual > 0.0:   # NaN too
            raise ValueError("tolerance must be positive")
        _check_iteration_limit(self.max_iters, "max_iters", 1)


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
    # the blocks of the returned (or the error's) configuration
    blocks: Optional[LinkBlocks] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class NewtonStep:
    ds: np.ndarray
    df: np.ndarray
    inversions_3x3: int


def _equilibrate(stack: np.ndarray):
    """One row/column max-abs equilibration pass over a stack of square
    matrices (..., m, m); mixed units (mm, rad, N) otherwise inflate the
    conditioning estimate for purely notational reasons.  Returns (balanced
    stack, row scales, column scales); every balanced entry lies in [-1, 1]
    unless a scale was 0, NaN or inf."""
    row_scale = np.abs(stack).max(axis=-1)
    balanced = stack / row_scale[..., :, None]
    col_scale = np.abs(balanced).max(axis=-2)
    balanced /= col_scale[..., None, :]
    return balanced, row_scale, col_scale


def _conditions(balanced: np.ndarray, balanced_inv: np.ndarray) -> np.ndarray:
    """1-norm condition numbers ||B||_1 ||B^-1||_1 of a stack."""
    return (np.abs(balanced).sum(axis=-2).max(axis=-1)
            * np.abs(balanced_inv).sum(axis=-2).max(axis=-1))


def _check_conditions(stack: np.ndarray, balanced: np.ndarray, balanced_inverse, what,
                      inv: Optional[np.ndarray] = None) -> None:
    """The exact test, taken only where the bound refused a stack or LU
    failed: reject the first matrix that is singular (a zero or non-finite
    scale, or refused by LU) or whose 1-norm condition number exceeds
    CONDITION_LIMIT / size; `what(i)` names it.  `inv` holds the inverses of
    `stack` where one LU over the whole stack succeeded; without it each
    matrix is inverted alone.  `balanced_inverse` maps the inverses of
    `stack` onto those of its `balanced` stack."""
    singular = ~np.isfinite(balanced).all(axis=(-2, -1))
    if inv is None:
        inv = np.zeros(stack.shape)
        for i, matrix in enumerate(stack):
            try:
                inv[i] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                singular[i] = True
    cond = _conditions(balanced, balanced_inverse(inv))
    # NaN (a zero or non-finite scale, or a non-finite inverse) is refused
    rejected = singular | ~(cond <= CONDITION_LIMIT / stack.shape[-1])
    if rejected.any():
        i = int(np.argmax(rejected))
        if singular[i]:
            raise SingularBlockError(f"singular {what(i)}")
        raise SingularBlockError(f"ill-conditioned {what(i)} (cond_1 {cond[i]:.2e})")


def _within_bound(bound, size: int) -> bool:
    """Whether an upper bound on every balanced 1-norm condition number lies
    within half the limit; the margin keeps rounding from letting the bound
    accept a matrix the exact test refuses.  NaN is not within."""
    return bool(bound <= CONDITION_LIMIT / (2 * size))


def _checked_inverses(stack: np.ndarray, what) -> np.ndarray:
    """Inverses of a stack of blocks, each condition-checked; `what(i)` names
    block i in an error."""
    size = stack.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            inv = np.linalg.inv(stack)
        except np.linalg.LinAlgError:
            inv = None
        else:
            # balanced = R^-1 M C^-1 has entries and column scales <= 1 and
            # row scales <= max|M| over the stack, so ||B_k||_1 <= size and
            # ||B_k^-1||_1 <= max|M| ||M_k^-1||_1; an empty stack passes
            bound = (size * np.abs(stack).max(initial=0.0)
                     * np.abs(inv).sum(axis=-2).max(initial=0.0))
            if _within_bound(bound, size):
                return inv
        balanced, row_scale, col_scale = _equilibrate(stack)

        def balanced_inverse(inv):
            # balanced = R^-1 M C^-1, so its inverse is C M^-1 R
            return col_scale[..., :, None] * inv * row_scale[..., None, :]

        _check_conditions(stack, balanced, balanced_inverse, what, inv)
    return inv


_IDENTITIES = {3: _EYE3, 6: np.eye(6)}


def _equilibrated_solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve matrix @ x = rhs, the square matrix equilibrated and
    condition-checked like a D block; its balanced inverse and the solution
    come from one solve with the columns [I | rhs / row scales]."""
    size = len(matrix)
    identity = _IDENTITIES[size] if size in _IDENTITIES else np.eye(size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        balanced, row_scale, col_scale = _equilibrate(matrix)
        try:
            both = np.linalg.solve(
                balanced, np.concatenate((identity, rhs / row_scale[:, None]), axis=1))
        except np.linalg.LinAlgError:
            both = None
        # the balanced entries lie in [-1, 1], so ||B||_1 <= size
        if both is None or not _within_bound(
                size * np.abs(both[:, :size]).sum(axis=0).max(), size):
            _check_conditions(balanced[None], balanced[None], lambda inv: inv,
                              lambda i: what, None if both is None else both[None, :, :size])
    return both[:, size:] / col_scale[:, None]


def block_solve(blocks: LinkBlocks, columns: np.ndarray):
    """Solve the block recursion for balance-row right-hand sides `columns`
    (links, 3, width), those of the pose-chain rows being zero.  The interior
    D blocks are inverted as one stack, and link k's propagator and input
    are built blockwise as stacked 3x3 products:

        P_k = [[-A, -B], [D^-1 C A, D^-1 C B - D^-1 E]],   u_k = [0; D^-1 r_k].

    Only the running product stays a loop: it keeps, for every link, the
    state past that link as an affine map of d_eta_base (its eta_base
    columns beside its accumulated input).  The last map gives the 6x6
    boundary system for (d_xi_tip, d_eta_base), and every other joint update
    is read from the maps with one stacked product.  Returns the joint
    updates (joints, 3, width) and the interior 3x3 inversion count."""
    links = len(blocks)
    width = columns.shape[-1]
    d_inv = np.empty((links, 3, 3))
    d_inv[:-1] = _checked_inverses(blocks.D[:-1], lambda i: f"D block at link {i + 1}")
    d_inv[-1] = _EYE3
    d_inv_c = d_inv @ blocks.C
    props = np.empty((links, 6, 6))
    np.negative(blocks.A, out=props[:, :3, :3])
    np.negative(blocks.B, out=props[:, :3, 3:])
    np.matmul(d_inv_c, blocks.A, out=props[:, 3:, :3])
    np.subtract(d_inv_c @ blocks.B, d_inv @ blocks.E, out=props[:, 3:, 3:])
    # maps[k] = P_k ... P_0 applied to (0, d_eta_base), plus the inputs: the
    # eta_base columns, then the input columns
    maps = np.zeros((links, 6, 3 + width))
    maps[:, 3:, 3:] = d_inv @ columns
    maps[0, :, :3] = props[0, :, 3:]
    for k in range(1, links):
        maps[k] += props[k] @ maps[k - 1]
    boundary = _BOUNDARY.copy()
    boundary[:, 3:] = -maps[-1, :, :3]
    etas = np.empty((links, 3, width))
    etas[0] = _equilibrated_solve(boundary, maps[-1, :, 3:], "boundary system")[3:]
    etas[1:] = maps[:-1, 3:, :3] @ etas[0] + maps[:-1, 3:, 3:]
    return etas, links - 1


def newton_step(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
) -> NewtonStep:
    """One full-length update of all joint unknowns at the current state."""
    blocks = assemble_blocks(design, config, tau, loads)
    etas, inversions = block_solve(blocks, -blocks.h[:, :, None])
    return NewtonStep(ds=etas[:, 0, 0], df=etas[:, 1:, 0], inversions_3x3=inversions)


def initial_forces(design: MechanismDesign, config: Configuration, tau, loads=()) -> np.ndarray:
    """Least-squares contact forces at the contact points of `config`.

    The balance is affine in the contact forces, so this is one small linear
    least-squares fit.  Starting Newton from all-zero forces instead puts the
    iterate on a nearly singular manifold where the first step degenerates.
    The fit reads the force columns from the contact co-adjoints and the
    zero-force balance rows from the tendon pulls and loads, all from the
    configuration's geometry and link-pose arrays, which depend on s alone;
    an evaluated configuration is therefore fitted without building its
    geometry again, and no fit reads `config.poses`.
    """
    joints = design.joint_count
    coadjoints, h = unforced_balance(design, config, tau, loads)
    scale = np.array([1.0 / design.characteristic_length, 1.0, 1.0])
    # link i's rows hold joint i's force columns (E) and joint i+1's (D);
    # adding into zeros turns -0.0 entries into +0.0, and lstsq's Householder
    # steps read the signs of zeros
    coeff = np.zeros((joints, 3, joints, 2))
    links = np.arange(joints)
    coeff[links, :, links] += coadjoints[:, 1, :, 1:] * scale[:, None]
    coeff[links[:-1], :, links[1:]] += np.negative(coadjoints[1:, 0, :, 1:]) * scale[:, None]
    rhs = -h * scale
    fit, *_ = np.linalg.lstsq(coeff.reshape(3 * joints, 2 * joints), rhs.ravel(), rcond=None)
    return fit.reshape(joints, 2)


def _balance_change(config: Configuration, blocks: LinkBlocks, tau, loads,
                    new_tau, new_loads) -> np.ndarray:
    """Exact change (links, 3) of the balance rows at the fixed (s, f) of
    `config` when (tau, loads) become (new_tau, new_loads): the balance is
    affine in the tensions (gradient F) and in the load wrenches."""
    dh = blocks.F @ (np.asarray(new_tau, dtype=float) - np.asarray(tau, dtype=float))
    if new_loads:
        dh += net_wrench(new_loads, config)
    if loads:
        dh -= net_wrench(loads, config)
    return dh


def tangent_start(design: MechanismDesign, config: Configuration, blocks: LinkBlocks,
                  tau, loads, new_tau, new_loads=()) -> Configuration:
    """Start for a solve at (new_tau, new_loads), predicted from `config`, an
    equilibrium at (tau, loads) whose blocks are `blocks` (the `report.blocks`
    of the solve that returned it): one elimination of those blocks with the
    exact change of the balance rows gives the first-order (tangent) change of
    the contact points, which is clamped into the domains and evaluated; the
    contact forces are then fitted on that geometry (`initial_forces`).  A
    `RolljointError` of the elimination or the evaluation reaches the caller."""
    dh = _balance_change(config, blocks, tau, loads, new_tau, new_loads)
    etas, _ = block_solve(blocks, -dh[:, :, None])
    s = _clamp_s(design, config.s + etas[:, 0, 0])
    predicted = evaluate(design, s, config.f)
    return predicted.with_forces(initial_forces(design, predicted, new_tau, new_loads))


def _clamp_s(design: MechanismDesign, s: np.ndarray) -> np.ndarray:
    lo, hi = design.domains.T
    return np.minimum(np.maximum(s, lo), hi)


def _outside_joints(design: MechanismDesign, s: np.ndarray) -> list[int]:
    lo, hi = design.domains.T
    return np.flatnonzero((s < lo) | (s > hi)).tolist()


def _pinned_joints(design: MechanismDesign, s: np.ndarray) -> list[int]:
    lo, hi = design.domains.T
    slack = 1e-9 * (hi - lo)
    return np.flatnonzero((s <= lo + slack) | (s >= hi - slack)).tolist()


def _refuse_pinned(design: MechanismDesign, config: Configuration, report, what: str) -> None:
    """The verdict on an iterate a solver returns or stops at: a joint whose
    contact sits on a domain boundary raises ContactRolloffError with
    `report` and `config`, its message opened by `what`."""
    pinned = _pinned_joints(design, config.s)
    if pinned:
        raise ContactRolloffError(f"{what} for joints {pinned}",
                                  report=report, configuration=config)


def solve_tension(
    design: MechanismDesign,
    tau,
    loads=(),
    init: Optional[Configuration] = None,
    opts: Optional[SolverOptions] = None,
) -> tuple[Configuration, SolveReport]:
    """Find the equilibrium configuration under the given tendon tensions.

    `init` starts the solve as it is, so it must have been evaluated for
    this design; start from another design's unknowns with
    `evaluate(design, other.s, other.f)`."""
    opts = opts or SolverOptions()
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (2,) or not (np.all(np.isfinite(tau)) and np.all(tau > 0.0)):
        raise ValueError("tendon tensions must be two finite positive values")
    check_targets(loads, design.n)

    # each evaluated iterate's joint geometry is built once and carried on
    # its configuration; its blocks are assembled once, give its residual
    # rows and, once it is accepted, the next Newton step
    if init is not None:
        clamped = _outside_joints(design, init.s)
        config = evaluate(design, _clamp_s(design, init.s), init.f) if clamped else init
    else:
        # contact points at the mating-domain midpoints, forces from the
        # fit on that same evaluation
        config = evaluate(design, design.joint_midpoints(), np.zeros((design.joint_count, 2)))
        config = config.with_forces(initial_forces(design, config, tau, loads))

    history: list[float] = []
    clamped_all: set[int] = set()
    backtracks = 0
    inversions = 0
    iterations = 0

    def report(converged: bool) -> SolveReport:
        # each Newton step is one boundary solve
        return SolveReport(
            iterations, norm_inf, backtracks, tuple(sorted(clamped_all)), converged,
            tuple(history), inversions, iterations, blocks,
        )

    blocks = assemble_blocks(design, config, tau, loads)
    norm_inf = residual_norm(blocks.rows, np.inf)
    norm_2 = residual_norm(blocks.rows, 2)
    history.append(norm_inf)

    while not norm_inf <= opts.tol_residual:   # a NaN residual keeps iterating
        if iterations >= opts.max_iters:
            raise NoConvergenceError(
                f"no convergence after {iterations} iterations "
                f"(residual {norm_inf:.3e})",
                report=report(False),
                configuration=config,
            )
        etas, count = block_solve(blocks, -blocks.h[:, :, None])
        inversions += count
        iterations += 1

        scale = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            s_trial = config.s + scale * etas[:, 0, 0]
            trial = evaluate(design, _clamp_s(design, s_trial), config.f + scale * etas[:, 1:, 0])
            blocks_trial = assemble_blocks(design, trial, tau, loads)
            trial_2 = residual_norm(blocks_trial.rows, 2)
            if trial_2 < norm_2 or trial_2 <= opts.tol_residual:
                accepted = True
                break
            scale *= BACKTRACK_FACTOR
            backtracks += 1
        if not accepted:
            stalled = report(False)
            _refuse_pinned(design, config, stalled,
                           "stalled with contact pinned at a domain boundary")
            raise NoConvergenceError(
                "line search stalled without residual decrease",
                report=stalled,
                configuration=config,
            )
        config, blocks, norm_2 = trial, blocks_trial, trial_2
        clamped_all.update(_outside_joints(design, s_trial))
        norm_inf = residual_norm(blocks.rows, np.inf)
        history.append(norm_inf)

    final = report(True)
    _refuse_pinned(design, config, final, "converged with contact at domain boundary")
    return config, final
