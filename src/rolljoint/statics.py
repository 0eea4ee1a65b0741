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
and its child contact from joint i + 1.  The two contacts of every joint
are handled as one stack (the geometry's column axis): one co-adjoint per
contact frame, one product with the contact force wrenches and one set of
tendon pulls.  The loads enter as the stacks `loads.net_wrench` and
`net_derivative` build from the link poses, and only when there are loads,
so an unloaded balance never reads `config.poses`.  `joint_geometry` is
re-exported here: the whole-chain kernel keeps the name under which the
balance has always read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loads as loads_mod
from .geometry import matvec
from .mechanism import Configuration, MechanismDesign, _perp, joint_geometry  # noqa: F401

_EYE3 = np.eye(3)


def _point_wrenches(points: np.ndarray, forces: np.ndarray) -> np.ndarray:
    """(..., 3, sides) wrenches of the row forces applied at the row points
    of the same frame; contracted with the tensions it sums the tendon
    pulls."""
    # side-major storage: each link's (3, sides) block is column-major, the
    # layout that fixes how its product with the tensions rounds
    out = np.empty(forces.shape[:-1] + (3,))
    out[..., 0] = points[..., 0] * forces[..., 1] - points[..., 1] * forces[..., 0]
    out[..., 1:] = forces
    return np.swapaxes(out, -1, -2)


def _coadjoints(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """(..., 3, 3) co-adjoints of a stack of contact frames
    (`geometry.coadjoint` of each)."""
    out = np.zeros(rotation.shape[:-2] + (3, 3))
    out[..., 0, 0] = 1.0
    # -skew2(t) = (-t_y, t_x), as a row
    out[..., 0, 1:] = (_perp(translation)[..., None, :] @ rotation)[..., 0, :]
    out[..., 1:, 1:] = rotation
    return out


def _contact_wrenches(curvature: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(joints, 2, 2, 3) wrenches of each joint's contact force f at its two
    contact frames (stacked as in the geometry): first the s-derivative
    generator of the arc-length twist applied to it,
    coadjoint_small(u, (1, 0)) @ (0, f), then the wrench (0, f) itself."""
    out = np.zeros(curvature.shape + (2, 3))
    out[..., 0, 0] = f[:, None, 1]
    out[..., 0, 1] = -curvature * f[:, None, 1]
    out[..., 0, 2] = curvature * f[:, None, 0]
    out[..., 1, 1:] = f[:, None]
    return out


def _pulls(design: MechanismDesign, geom) -> np.ndarray:
    """(joints, 2, 2, 3, sides) pulls of unit tensions along the gap
    segments ([:, :, 0]) and their s-derivatives ([:, :, 1]) on the links
    they leave: column 0 on link j at its child entry points, column 1 on
    link j+1 at its parent entry points."""
    return _point_wrenches(design.joint_gap_points[:, ::-1, None], geom.segments.directions)


def _tendon_wrenches(pulls: np.ndarray) -> np.ndarray:
    """(links, 3, sides) pull of unit tensions on links 1..n-1: along their
    parent-side segments and, below the tip, their child-side segments;
    summed in place into the parent-side column of `pulls`."""
    out = pulls[:, 1]
    out[:-1] += pulls[1:, 0]
    return out


def _contact_terms(geom, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Co-adjoints (joints, 2, 3, 3) of the contact frames and the contact
    wrenches (joints, 2, 2, 3) they map (`_contact_wrenches`)."""
    coadjoints = _coadjoints(geom.contact_rotation, geom.contact_translation)
    return coadjoints, matvec(coadjoints[:, :, None], _contact_wrenches(geom.curvature, f))


def _balance(
    config: Configuration,
    contact: np.ndarray,
    tension_wrenches: np.ndarray,
    tau: np.ndarray,
    loads,
) -> np.ndarray:
    """Raw balance rows (links, 3) of every non-base link; `contact` holds
    the contact force wrenches mapped by the co-adjoints of their contact
    frames, stacked as in the geometry."""
    h = tension_wrenches @ tau
    h += contact[:, 1]
    h[:-1] -= contact[1:, 0]
    if loads:
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
    _, contact = _contact_terms(geom, config.f)
    rows = _balance(config, contact[:, :, 1], _tendon_wrenches(_pulls(design, geom)[:, :, 0]),
                    tau, loads)
    if scaled:
        rows[:, 0] /= design.characteristic_length
    return rows


def unforced_balance(
    design: MechanismDesign,
    config: Configuration,
    tau,
    loads=(),
) -> tuple[np.ndarray, np.ndarray]:
    """The balance split for a contact-force fit: the contact co-adjoints
    (joints, 2, 3, 3), whose columns 1-2 map joint j's contact force onto
    link j+1 (column 1 of the stack) and, negated, onto link j (column 0),
    and the balance rows h (links, 3) at zero contact force, from the
    tendon pulls and the loads alone."""
    geom = config.geometry
    coadjoints = _coadjoints(geom.contact_rotation, geom.contact_translation)
    # adding zero turns -0.0 entries into +0.0, as the zero contact wrenches
    # of the full balance do
    h = _tendon_wrenches(_pulls(design, geom)[:, :, 0]) @ np.asarray(tau, dtype=float) + 0.0
    if loads:
        h += loads_mod.net_wrench(loads, config.poses)
    return coadjoints, h


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

    # A = -adjoint(inverse(relative)): rotation R^T, translation -R^T t
    back = geom.inverse_translation
    a_blk = np.zeros((links, 3, 3))
    a_blk[:, 0, 0] = -1.0
    a_blk[:, 1:, 0] = _perp(back)
    np.negative(np.swapaxes(geom.relative_rotation, 1, 2), out=a_blk[:, 1:, 1:])

    # B = -curve_gap (1, t_y, -t_x) in column 0, t the parent contact
    b_blk = np.zeros((links, 3, 3))
    b_blk[:, 0, 0] = -geom.curve_gap
    b_blk[:, 1:, 0] = geom.curve_gap[:, None] * _perp(geom.contact_translation[:, 1])

    c_blk = loads_mod.net_derivative(loads, config.poses) if loads else np.zeros((links, 3, 3))

    # each contact's co-adjoint, and column 0 of its s-derivative: the
    # twisted contact force plus the turning tendon pulls
    coadjoints, contact = _contact_terms(geom, config.f)
    d_column = contact[:, :, 0]
    pulls = _pulls(design, geom)
    pull_turn = pulls[:, :, 1] @ tau
    e_blk = coadjoints[:, 1].copy()
    np.add(d_column[:, 1], pull_turn[:, 1], out=e_blk[:, :, 0])

    # the tip row keeps D = I; interior link k reads joint k's child contact
    d_blk = np.empty((links, 3, 3))
    d_blk[-1] = _EYE3
    np.negative(coadjoints[1:, 0], out=d_blk[:-1])
    np.subtract(pull_turn[1:, 0], d_column[1:, 0], out=d_blk[:-1, :, 0])

    # the balance is linear in the tensions: F is its tension gradient
    f_blk = _tendon_wrenches(pulls[:, :, 0])
    h = _balance(config, contact[:, :, 1], f_blk, tau, loads)
    return LinkBlocks(a_blk, b_blk, c_blk, d_blk, e_blk, f_blk, h)
