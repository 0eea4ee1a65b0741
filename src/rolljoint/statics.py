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

import numpy as np

from . import loads as loads_mod
from .geometry import adjoint, coadjoint, coadjoint_small, inverse
# the joint geometry is owned by mechanism; joint_geometry stays importable here
from .mechanism import Configuration, MechanismDesign, geometry_of, joint_geometry  # noqa: F401


def _force_wrench(f: np.ndarray) -> np.ndarray:
    return np.array([0.0, f[0], f[1]])


def _point_wrenches(points: np.ndarray, forces: np.ndarray) -> np.ndarray:
    """(3, sides) wrenches of the row forces applied at the row points of
    the same frame; contracted with the tensions it sums the tendon pulls."""
    moments = points[:, 0] * forces[:, 1] - points[:, 1] * forces[:, 0]
    return np.vstack([moments, forces.T])


def _tendon_wrenches(design: MechanismDesign, geoms, k: int) -> np.ndarray:
    """(3, sides) pull of unit tensions on link k: along its parent-side
    segments and, below the tip, its child-side segments."""
    link = design.links[k]
    out = _point_wrenches(link.parent_points, geoms[k - 1].w.unit)
    if k <= design.n - 2:
        out += _point_wrenches(link.child_points, geoms[k].v.unit)
    return out


def _link_raw_residual(
    design: MechanismDesign,
    config: Configuration,
    geoms,
    pull: np.ndarray,
    loads,
    k: int,
) -> np.ndarray:
    """Balance of link k under the tendon wrench `pull`."""
    h = pull + coadjoint(geoms[k - 1].parent_frame) @ _force_wrench(config.f[k - 1])
    if k <= design.n - 2:
        h -= coadjoint(geoms[k].child_frame) @ _force_wrench(config.f[k])
    h += loads_mod.net_wrench(loads, k + 1, config.poses[k])
    return h


def residual(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
    scaled: bool = True,
) -> np.ndarray:
    """Equilibrium residuals, one row per non-base link (links 1..n-1).

    With `scaled` the moment row is divided by the design's characteristic
    length so all rows share force units; that scaled form is what solver
    tolerances refer to.
    """
    tau = np.asarray(tau, dtype=float)
    geoms = geometry_of(design, config)
    rows = np.array(
        [
            _link_raw_residual(
                design, config, geoms, _tendon_wrenches(design, geoms, k) @ tau, loads, k
            )
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
) -> list[LinkBlocks]:
    """Blocks for links 1..n-1 (list index 0 is link 1)."""
    tau = np.asarray(tau, dtype=float)
    geoms = geometry_of(design, config)
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
        e_blk[:, 0] += _point_wrenches(link.parent_points, prev.w.d_unit) @ tau
        e_blk[:, 1:] = coad_parent[:, 1:]

        if has_child:
            here = geoms[k]
            coad_child = coadjoint(here.child_frame)
            d_blk = np.zeros((3, 3))
            d_blk[:, 0] = -(
                coad_child
                @ (coadjoint_small(here.child_twist) @ _force_wrench(config.f[k]))
            )
            d_blk[:, 0] += _point_wrenches(link.child_points, here.v.d_unit) @ tau
            d_blk[:, 1:] = -coad_child[:, 1:]
        else:
            d_blk = np.eye(3)

        # the balance is linear in the tensions: F is its tension gradient
        f_blk = _tendon_wrenches(design, geoms, k)
        h = _link_raw_residual(design, config, geoms, f_blk @ tau, loads, k)
        blocks.append(LinkBlocks(a_blk, b_blk, c_blk, d_blk, e_blk, f_blk, h))
    return blocks
