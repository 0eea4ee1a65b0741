"""Per-link force/moment balance and its first-order block expansion.

For every non-base link the residual h sums, in that link's body frame:
tendon pulls at the child entry points (toward the next link) and parent
entry points (toward the previous link), the contact forces exchanged at the
parent and child rolling contacts, and the external load.  Linearizing the
balance together with the serial pose chain yields, per link,

    [[I, 0], [C, D]] (d_xi, d_eta) + [[A, B], [0, E]] (d_xi_prev, d_eta_prev) = eps,

with d_eta = (ds, df) the joint unknowns and eps = (0, -h).  The tip link
has no child contact; its row is realized with D = I and d_eta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import loads as loads_mod
from .geometry import adjoint, coadjoint, coadjoint_small, inverse, wrench_at_point
# the joint geometry is owned by mechanism; its names stay importable here
from .mechanism import (  # noqa: F401
    SIDES,
    Configuration,
    JointGeometry,
    MechanismDesign,
    SegmentGeometry,
    all_joint_geometry,
    joint_geometry,
)


def _force_wrench(f: np.ndarray) -> np.ndarray:
    return np.array([0.0, f[0], f[1]])


def _link_raw_residual(
    design: MechanismDesign,
    config: Configuration,
    geoms: list[JointGeometry],
    tau: np.ndarray,
    loads,
    k: int,
) -> np.ndarray:
    link = design.links[k]
    prev = geoms[k - 1]
    has_child = k <= design.n - 2
    h = np.zeros(3)
    for idx, side in enumerate(SIDES):
        if has_child:
            h += wrench_at_point(link.child_point(side), tau[idx] * geoms[k].v[side].unit)
        h += wrench_at_point(link.parent_point(side), tau[idx] * prev.w[side].unit)
    h += coadjoint(prev.parent_frame) @ _force_wrench(config.f[k - 1])
    if has_child:
        h -= coadjoint(geoms[k].child_frame) @ _force_wrench(config.f[k])
    h += loads_mod.net_wrench(loads, k + 1, config.poses[k])
    return h


def residual(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
    scaled: bool = True,
    geoms: Optional[list[JointGeometry]] = None,
) -> np.ndarray:
    """Equilibrium residuals, one row per non-base link (links 1..n-1).

    With `scaled` the moment row is divided by the design's characteristic
    length so all rows share force units; that scaled form is what solver
    tolerances refer to.  `geoms` is the configuration's joint geometry when
    the caller has already built it.
    """
    tau = np.asarray(tau, dtype=float)
    if geoms is None:
        geoms = all_joint_geometry(design, config)
    rows = np.array(
        [
            _link_raw_residual(design, config, geoms, tau, loads, k)
            for k in range(1, design.n)
        ]
    )
    if scaled:
        rows[:, 0] /= design.characteristic_length
    return rows


def block_residual(design: MechanismDesign, blocks: list["LinkBlocks"]) -> np.ndarray:
    """Scaled residual rows read from the blocks' balance rows h."""
    rows = np.array([blk.h for blk in blocks])
    rows[:, 0] /= design.characteristic_length
    return rows


def residual_norm(rows: np.ndarray, ord: float = np.inf) -> float:
    if ord == np.inf:
        return float(np.abs(rows).max())
    return float(np.linalg.norm(rows.ravel()))


@dataclass(frozen=True)
class LinkBlocks:
    """First-order blocks of one link's two equation rows (pose chain and
    balance), in the unscaled units of the balance itself."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    h: np.ndarray


def assemble_blocks(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
    geoms: Optional[list[JointGeometry]] = None,
) -> list[LinkBlocks]:
    """Blocks for links 1..n-1 (list index 0 is link 1)."""
    tau = np.asarray(tau, dtype=float)
    if geoms is None:
        geoms = all_joint_geometry(design, config)
    blocks = []
    for k in range(1, design.n):
        link = design.links[k]
        prev = geoms[k - 1]
        has_child = k <= design.n - 2

        a_blk = -adjoint(inverse(prev.relative))

        b_blk = np.zeros((3, 3))
        curve_gap_prev = prev.child_twist.w - prev.parent_twist.w
        tp = prev.parent_frame.translation
        b_blk[:, 0] = -curve_gap_prev * np.array([1.0, tp[1], -tp[0]])

        c_blk = loads_mod.net_derivative(loads, k + 1, config.poses[k])

        coad_parent = coadjoint(prev.parent_frame)
        e_blk = np.zeros((3, 3))
        e_blk[:, 0] = coad_parent @ (
            coadjoint_small(prev.parent_twist) @ _force_wrench(config.f[k - 1])
        )
        for idx, side in enumerate(SIDES):
            e_blk[:, 0] += tau[idx] * wrench_at_point(
                link.parent_point(side), prev.w[side].d_unit
            )
        e_blk[:, 1:] = coad_parent[:, 1:]

        f_blk = np.zeros((3, 2))
        for idx, side in enumerate(SIDES):
            f_blk[:, idx] = wrench_at_point(link.parent_point(side), prev.w[side].unit)

        if has_child:
            here = geoms[k]
            coad_child = coadjoint(here.child_frame)
            d_blk = np.zeros((3, 3))
            d_blk[:, 0] = -(
                coad_child
                @ (coadjoint_small(here.child_twist) @ _force_wrench(config.f[k]))
            )
            for idx, side in enumerate(SIDES):
                d_blk[:, 0] += tau[idx] * wrench_at_point(
                    link.child_point(side), here.v[side].d_unit
                )
            d_blk[:, 1:] = -coad_child[:, 1:]
            for idx, side in enumerate(SIDES):
                f_blk[:, idx] += wrench_at_point(link.child_point(side), here.v[side].unit)
        else:
            d_blk = np.eye(3)

        h = _link_raw_residual(design, config, geoms, tau, loads, k)
        blocks.append(LinkBlocks(a_blk, b_blk, c_blk, d_blk, e_blk, f_blk, h))
    return blocks
