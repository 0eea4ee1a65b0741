"""Per-link force/moment balance and its first-order block expansion.

For every non-base link the residual h sums, in that link's body frame:
tendon pulls at the child entry points (toward the next link) and parent
entry points (toward the previous link), the contact forces exchanged at the
parent and child rolling contacts, and the external load.  Linearizing the
balance together with the serial pose chain yields, per link,

    [[I, 0], [C, D]] (d_xi, d_eta) + [[A, B], [0, E]] (d_xi_prev, d_eta_prev) = eps,

with d_eta = (ds, df) the joint unknowns and eps = (0, -h).  The tip link
has no child contact; its row is realized with D = I and d_eta = 0.

Both the residual and the blocks are array expressions over the link axis
of `config.geometry`, which every configuration carries from its
evaluation: link k = i + 1 (row i) reads its parent contact from joint i
and its child contact from joint i + 1.  The loads enter as the stacks
`loads.net_wrench` and `net_derivative` build from the link poses.
`joint_geometry` is re-exported here: the whole-chain kernel keeps the name
under which the balance has always read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loads as loads_mod
from .geometry import matvec
from .mechanism import Configuration, MechanismDesign, joint_geometry  # noqa: F401


def _point_wrenches(points: np.ndarray, forces: np.ndarray) -> np.ndarray:
    """(..., 3, sides) wrenches of the row forces applied at the row points
    of the same frame; contracted with the tensions it sums the tendon
    pulls."""
    # side-major storage: each link's (3, sides) block is column-major, the
    # layout that fixes how its product with the tensions rounds
    out = np.empty(points.shape[:-1] + (3,))
    out[..., 0] = points[..., 0] * forces[..., 1] - points[..., 1] * forces[..., 0]
    out[..., 1:] = forces
    return np.swapaxes(out, -1, -2)


def _coadjoints(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """(..., 3, 3) co-adjoints of a stack of contact frames
    (`geometry.coadjoint` of each)."""
    out = np.zeros(rotation.shape[:-2] + (3, 3))
    out[..., 0, 0] = 1.0
    # skew2(t) = (t_y, -t_x), as a row
    skew = np.empty(translation.shape[:-1] + (1, 2))
    skew[..., 0, 0] = translation[..., 1]
    skew[..., 0, 1] = -translation[..., 0]
    out[..., 0, 1:] = -(skew @ rotation)[..., 0, :]
    out[..., 1:, 1:] = rotation
    return out


def _twist_force_wrenches(curvature: np.ndarray, f: np.ndarray) -> np.ndarray:
    """coadjoint_small(u, (1, 0)) @ (0, f): the s-derivative generator of
    the arc-length twist applied to the contact force wrench, (..., 3)."""
    out = np.empty(f.shape[:-1] + (3,))
    out[..., 0] = f[..., 1]
    out[..., 1] = -curvature * f[..., 1]
    out[..., 2] = curvature * f[..., 0]
    return out


def _tendon_wrenches(design: MechanismDesign, geom) -> np.ndarray:
    """(links, 3, sides) pull of unit tensions on links 1..n-1: along their
    parent-side segments and, below the tip, their child-side segments."""
    out = _point_wrenches(design.joint_parent_points, geom.w.unit)
    out[:-1] += _point_wrenches(design.joint_child_points[1:], geom.v.unit[1:])
    return out


def _contact_coadjoints(geom) -> tuple[np.ndarray, np.ndarray]:
    """Co-adjoints of each link's parent contact frame (links 1..n-1) and
    child contact frame (links 1..n-2)."""
    return (_coadjoints(geom.parent_rotation, geom.parent_translation),
            _coadjoints(geom.child_rotation[1:], geom.child_translation[1:]))


def _balance(
    config: Configuration,
    coadjoints: tuple[np.ndarray, np.ndarray],
    tension_wrenches: np.ndarray,
    tau: np.ndarray,
    loads,
) -> np.ndarray:
    """Raw balance rows (links, 3) of every non-base link."""
    coad_parent, coad_child = coadjoints
    wrenches = np.zeros((len(config.f), 3))   # (0, f) of each contact force
    wrenches[:, 1:] = config.f
    h = tension_wrenches @ tau
    h += matvec(coad_parent, wrenches)
    h[:-1] -= matvec(coad_child, wrenches[1:])
    h += loads_mod.net_wrench(loads, config.poses)
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
    geom = config.geometry
    rows = _balance(config, _contact_coadjoints(geom), _tendon_wrenches(design, geom),
                    tau, loads)
    if scaled:
        rows[:, 0] /= design.characteristic_length
    return rows


def block_residual(design: MechanismDesign, blocks: "LinkBlocks") -> np.ndarray:
    """Scaled residual rows read from the blocks' balance rows h."""
    rows = blocks.h.copy()
    rows[:, 0] /= design.characteristic_length
    return rows


def residual_norm(rows: np.ndarray, ord: float = np.inf) -> float:
    if ord == np.inf:
        return float(np.abs(rows).max())
    return float(np.linalg.norm(rows.ravel()))


@dataclass(frozen=True, eq=False)
class LinkBlocks:
    """First-order blocks of the links' two equation rows (pose chain and
    balance), in the unscaled units of the balance itself.  `assemble_blocks`
    stacks them on a leading link axis (row i is link i+1: A..E (links, 3,
    3), F (links, 3, sides), h (links, 3)); indexing gives one link's
    blocks, slicing a shorter stack."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, index) -> "LinkBlocks":
        return LinkBlocks(*(value[index] for value in vars(self).values()))


def assemble_blocks(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
) -> LinkBlocks:
    """Blocks for links 1..n-1, stacked (row 0 is link 1)."""
    tau = np.asarray(tau, dtype=float)
    geom = config.geometry
    links = design.joint_count
    f = config.f

    # A = -adjoint(inverse(relative)): rotation R^T, translation -R^T t
    rel_rot_t = np.swapaxes(geom.relative_rotation, 1, 2)
    back = -matvec(rel_rot_t, geom.relative_translation)
    adjoint = np.zeros((links, 3, 3))
    adjoint[:, 0, 0] = 1.0
    adjoint[:, 1, 0] = back[:, 1]
    adjoint[:, 2, 0] = -back[:, 0]
    adjoint[:, 1:, 1:] = rel_rot_t
    a_blk = -adjoint

    b_blk = np.zeros((links, 3, 3))
    tp = geom.parent_translation
    b_blk[:, :, 0] = -geom.curve_gap[:, None] * np.column_stack(
        [np.ones(links), tp[:, 1], -tp[:, 0]])

    c_blk = loads_mod.net_derivative(loads, config.poses)

    coad_parent, coad_child = coadjoints = _contact_coadjoints(geom)
    e_blk = coad_parent.copy()
    e_blk[:, :, 0] = matvec(coad_parent, _twist_force_wrenches(geom.parent_curvature, f))
    e_blk[:, :, 0] += _point_wrenches(design.joint_parent_points, geom.w.d_unit) @ tau

    # the tip row keeps D = I; interior link k reads joint k's child contact
    d_blk = np.broadcast_to(np.eye(3), (links, 3, 3)).copy()
    d_blk[:-1] = -coad_child
    d_blk[:-1, :, 0] = -matvec(coad_child, _twist_force_wrenches(geom.child_curvature[1:], f[1:]))
    d_blk[:-1, :, 0] += _point_wrenches(design.joint_child_points[1:], geom.v.d_unit[1:]) @ tau

    # the balance is linear in the tensions: F is its tension gradient
    f_blk = _tendon_wrenches(design, geom)
    h = _balance(config, coadjoints, f_blk, tau, loads)
    return LinkBlocks(a_blk, b_blk, c_blk, d_blk, e_blk, f_blk, h)
