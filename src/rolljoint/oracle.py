"""Brute-force verifiers: a dense finite-difference Newton solver over the
stacked (s, f) unknowns, and a potential-energy formulation for conservative
loads.  Both are deliberately free of the block-elimination machinery so the
fast solver can be checked against them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import NoConvergenceError, SingularBlockError, UnsupportedLoadError
from .loads import ConstantBody, ConstantWorkspace, LinearSpring, check_targets
from .mechanism import Configuration, MechanismDesign, tendon_lengths
from .statics import residual

FD_STEP = 1e-6  # [mm] for s entries, [N] for f entries


def _residual_vector(design: MechanismDesign, z: np.ndarray, tau, loads) -> np.ndarray:
    # s entries are clamped so FD probes next to a domain boundary stay legal
    joints = design.joint_count
    config = Configuration.from_unknowns(
        design, _clamp(design, z[:joints]), z[joints:].reshape(joints, 2)
    )
    return residual(design, config, tau, loads).ravel()


def _fd_jacobian(design: MechanismDesign, z: np.ndarray, tau, loads) -> np.ndarray:
    dim = z.size
    jac = np.zeros((dim, dim))
    for col in range(dim):
        bumped = z.copy()
        bumped[col] += FD_STEP
        upper = _residual_vector(design, bumped, tau, loads)
        bumped[col] -= 2.0 * FD_STEP
        lower = _residual_vector(design, bumped, tau, loads)
        jac[:, col] = (upper - lower) / (2.0 * FD_STEP)
    return jac


def _clamp(design: MechanismDesign, s: np.ndarray) -> np.ndarray:
    return np.clip(s, *design.domains.T)


def _affine_force_fit(design: MechanismDesign, s: np.ndarray, tau, loads) -> np.ndarray:
    """Least-squares forces at fixed s, built purely from residual evaluations
    (the balance is affine in f, so plain differences give exact columns)."""
    joints = design.joint_count
    base = np.concatenate([s, np.zeros(2 * joints)])
    h0 = _residual_vector(design, base, tau, loads)
    columns = []
    for col in range(2 * joints):
        bumped = base.copy()
        bumped[joints + col] = 1.0
        columns.append(_residual_vector(design, bumped, tau, loads) - h0)
    fit, *_ = np.linalg.lstsq(np.column_stack(columns), -h0, rcond=None)
    return fit


def dense_solve(
    design: MechanismDesign,
    tau,
    loads=(),
    init: Optional[Configuration] = None,
    tol: float = 1e-10,
) -> Configuration:
    """Damped Newton on the full unknown vector with an FD Jacobian."""
    check_targets(loads, design.n)
    joints = design.joint_count
    if init is not None:
        z = np.concatenate([init.s, np.asarray(init.f).ravel()])
        z[:joints] = _clamp(design, z[:joints])
    else:
        s0 = _clamp(design, design.joint_midpoints())
        z = np.concatenate([s0, _affine_force_fit(design, s0, tau, loads)])

    res = _residual_vector(design, z, tau, loads)
    for _ in range(100):
        if np.abs(res).max() <= tol:
            return Configuration.from_unknowns(
                design, z[:joints], z[joints:].reshape(joints, 2)
            )
        jac = _fd_jacobian(design, z, tau, loads)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularBlockError("singular dense Jacobian") from exc
        base = np.linalg.norm(res)
        scale = 1.0
        for _ in range(30):
            trial = z + scale * step
            trial[:joints] = _clamp(design, trial[:joints])
            res_trial = _residual_vector(design, trial, tau, loads)
            if np.linalg.norm(res_trial) < base or np.abs(res_trial).max() <= tol:
                z, res = trial, res_trial
                break
            scale *= 0.5
        else:
            raise NoConvergenceError("dense oracle line search stalled")
    if np.abs(res).max() <= tol:
        return Configuration.from_unknowns(
            design, z[:joints], z[joints:].reshape(joints, 2)
        )
    raise NoConvergenceError(
        f"dense oracle did not converge (residual {np.abs(res).max():.3e})"
    )


def _check_conservative(loads) -> None:
    for load in loads:
        if isinstance(load, ConstantWorkspace):
            if load.wrench.m != 0.0:
                raise UnsupportedLoadError(
                    "workspace load with a moment has no potential here"
                )
        elif isinstance(load, LinearSpring):
            continue
        elif isinstance(load, ConstantBody):
            if load.wrench.m != 0.0 or np.any(load.wrench.f):
                raise UnsupportedLoadError(
                    "non-zero body-fixed loads are not conservative"
                )
        else:
            raise UnsupportedLoadError(f"unknown load variant {type(load).__name__}")


def energy(design: MechanismDesign, s, tau, loads=()) -> float:
    """Total potential: tension work stored in the tendons plus load potentials.

    Valid for conservative loads only (workspace-fixed pure forces and linear
    springs); the contact forces are workless under rolling, so equilibria in
    s are exactly the stationary points of this function.
    """
    _check_conservative(loads)
    check_targets(loads, design.n)
    tau = np.asarray(tau, dtype=float)
    s = np.asarray(s, dtype=float)
    config = Configuration.from_unknowns(design, s, np.zeros((design.joint_count, 2)))
    total = float(tau @ tendon_lengths(design, config))
    for load in loads:
        pose = config.poses[int(load.target_link) - 1]
        if isinstance(load, ConstantWorkspace):
            total -= float(load.wrench.f @ pose.apply(load.attach))
        elif isinstance(load, LinearSpring):
            stretch = pose.translation - load.anchor
            total += 0.5 * load.stiffness * float(stretch @ stretch)
    return total


def energy_gradient_fd(design: MechanismDesign, s, tau, loads=()) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    grad = np.zeros_like(s)
    for j in range(s.size):
        bumped = s.copy()
        bumped[j] += FD_STEP
        upper = energy(design, bumped, tau, loads)
        bumped[j] -= 2.0 * FD_STEP
        lower = energy(design, bumped, tau, loads)
        grad[j] = (upper - lower) / (2.0 * FD_STEP)
    return grad


def energy_minimize(
    design: MechanismDesign,
    tau,
    loads=(),
    init_s=None,
) -> np.ndarray:
    """Derivative-free minimization of the potential over s (cross-check only)."""
    from scipy.optimize import minimize   # here, so `import rolljoint` stays fast

    _check_conservative(loads)
    if init_s is None:
        init_s = design.joint_midpoints()
    init_s = np.asarray(init_s, dtype=float)
    result = minimize(
        lambda s: energy(design, s, tau, loads),
        init_s,
        method="Nelder-Mead",
        bounds=design.domains,
        options={
            "xatol": 1e-10,
            "fatol": 1e-15,
            "maxiter": 20000,
            "maxfev": 40000,
        },
    )
    if not result.success:
        raise NoConvergenceError(f"energy minimization failed: {result.message}")
    return np.asarray(result.x)
