"""Link and mechanism data model: serial pose chain and tendon geometry.

`joint_geometry(design, s)` is the one place the joints' contact frames,
relative poses and tendon gap segments (with their s-derivatives) are
computed: one struct-of-arrays evaluation of the whole chain per iterate,
with a leading joint axis (row j is joint j) and, for the segments, the
left/right side as the next axis (column i is SIDES[i]).  Each mating
surface is looked up once per iterate through its `frame_at`.
`forward_poses` is the one pose chain: a running angle sum of the relative
poses and a batched rotation of the relative translations.

`evaluate(design, s, f)` is the one constructor of a `Configuration`: it
builds the geometry once and chains the poses from it, so every
configuration is an evaluated iterate that carries its geometry (read as
`config.geometry` by the tendon lengths here, the force balance in
`statics` and the displacement solver's Jacobian) and belongs to the design
that evaluated it.  `Configuration.from_unknowns` is the same call.

Indexing: links are stored 0-based; joint j couples the child surface of
link j with the parent surface of link j+1 and carries one contact arc
length s[j] (the same value addresses both mating surfaces, which is the
no-slip equal-arc-length correspondence) and one contact force f[j]
expressed in the parent-contact frame of link j+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DegenerateTendonError
from .geometry import Pose2, matvec, rot2_stack, _frozen_vec2
from .surface import ContactSurface

SIDES = ("l", "r")

# tendon segments shorter than this [mm] have no usable direction
MIN_SEGMENT_LENGTH = 1e-9


@dataclass(frozen=True, eq=False)
class LinkDesign:
    """One rigid link: optional parent/child rolling surfaces plus the four
    tendon entry points (parent side p_l/p_r, child side c_l/c_r), all in the
    link body frame [mm].  `parent_points` and `child_points` hold the same
    points as read-only (sides, 2) arrays, row i for SIDES[i]."""

    name: str
    parent_surface: Optional[ContactSurface]
    child_surface: Optional[ContactSurface]
    p_l: np.ndarray
    p_r: np.ndarray
    c_l: np.ndarray
    c_r: np.ndarray
    parent_points: np.ndarray = field(init=False, repr=False)
    child_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for attr in ("p_l", "p_r", "c_l", "c_r"):
            object.__setattr__(self, attr, _frozen_vec2(getattr(self, attr)))
        for attr, left, right in (("parent_points", self.p_l, self.p_r),
                                  ("child_points", self.c_l, self.c_r)):
            points = np.array([left, right])
            points.setflags(write=False)
            object.__setattr__(self, attr, points)


@dataclass(frozen=True, eq=False)
class MechanismDesign:
    """Ordered chain of links with a fixed base pose.

    `characteristic_length` is the mean link extent (diameter of each link's
    entry points and surface anchor points); it scales moment residuals so
    convergence metrics share force units.
    """

    links: tuple[LinkDesign, ...]
    base_pose: Pose2
    characteristic_length: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(
            self, "characteristic_length", _mean_link_extent(self.links)
        )

    @property
    def n(self) -> int:
        return len(self.links)

    @property
    def joint_count(self) -> int:
        return len(self.links) - 1

    def joint_surfaces(self, j: int) -> tuple[ContactSurface, ContactSurface]:
        """(child surface of link j, parent surface of link j+1)."""
        child = self.links[j].child_surface
        parent = self.links[j + 1].parent_surface
        if child is None or parent is None:
            raise ValueError(f"joint {j} has a missing mating surface")
        return child, parent

    def joint_domain(self, j: int) -> tuple[float, float]:
        """Feasible s-range of joint j: intersection of both mating domains."""
        child, parent = self.joint_surfaces(j)
        return (
            max(child.s_min, parent.s_min),
            min(child.s_max, parent.s_max),
        )

    @cached_property
    def domains(self) -> np.ndarray:
        """Read-only (joints, 2) array of every joint_domain; built on first
        use, so that `validate` can still report a design with a missing
        surface."""
        out = np.array([self.joint_domain(j) for j in range(self.joint_count)]).reshape(-1, 2)
        out.setflags(write=False)
        return out

    def joint_midpoints(self) -> np.ndarray:
        return self.domains.mean(axis=1)

    @cached_property
    def joint_child_points(self) -> np.ndarray:
        """(joints, sides, 2) child entry points of link j, row j for joint j."""
        return _frozen([link.child_points for link in self.links[:-1]])

    @cached_property
    def joint_parent_points(self) -> np.ndarray:
        """(joints, sides, 2) parent entry points of link j+1."""
        return _frozen([link.parent_points for link in self.links[1:]])

    @cached_property
    def link_spans(self) -> np.ndarray:
        """(links, sides) tendon lengths inside each link."""
        spans = np.array([link.child_points - link.parent_points for link in self.links])
        return _frozen(np.linalg.norm(spans, axis=2))


def _frozen(arrays) -> np.ndarray:
    out = np.array(arrays, dtype=float)
    out.setflags(write=False)
    return out


def _mean_link_extent(links) -> float:
    extents = []
    for link in links:
        points = [*link.parent_points, *link.child_points]
        for surf in (link.parent_surface, link.child_surface):
            if surf is not None:
                mid = 0.5 * (surf.s_min + surf.s_max)
                points.append(surf.frame_at(mid).translation)
        pts = np.array(points)
        diffs = pts[:, None, :] - pts[None, :, :]
        extents.append(float(np.sqrt((diffs**2).sum(axis=2)).max()))
    return float(np.mean(extents))


@dataclass(frozen=True, eq=False)
class Configuration:
    """One evaluated iterate: contact arc lengths s (n-1,), contact forces
    f (n-1, 2), the link poses (n,) chained from s, and the `JointGeometry`
    at s.  `evaluate` builds it; the geometry travels with the configuration
    and belongs to the design that evaluated it."""

    s: np.ndarray
    f: np.ndarray
    poses: tuple[Pose2, ...]
    geometry: "JointGeometry" = field(repr=False)

    def __post_init__(self):
        s = _frozen(self.s).reshape(-1)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "f", _frozen(self.f).reshape(len(s), 2))
        object.__setattr__(self, "poses", tuple(self.poses))

    @staticmethod
    def from_unknowns(design: MechanismDesign, s, f) -> "Configuration":
        """`evaluate(design, s, f)`."""
        return evaluate(design, s, f)


def _transposed(matrices: np.ndarray) -> np.ndarray:
    return np.swapaxes(matrices, -1, -2)


@dataclass(frozen=True, eq=False)
class SegmentGeometry:
    """Tendon gap segments on one side of every joint, both tendons at once
    (row j for joint j, then SIDES): vectors, unit vectors and their
    s-derivatives (J, 2, 2), lengths (J, 2)."""

    vec: np.ndarray
    unit: np.ndarray
    length: np.ndarray
    d_vec: np.ndarray
    d_unit: np.ndarray


def _segments(vec: np.ndarray, d_vec: np.ndarray) -> SegmentGeometry:
    """Segments from their vectors and s-derivatives."""
    length = np.sqrt(np.einsum("jsi,jsi->js", vec, vec))
    if (length < MIN_SEGMENT_LENGTH).any():
        raise DegenerateTendonError(f"tendon segment length {length.min()} below minimum")
    unit = vec / length[..., None]
    along = np.einsum("jsi,jsi->js", unit, d_vec)
    d_unit = (d_vec - unit * along[..., None]) / length[..., None]
    return SegmentGeometry(vec, unit, length, d_vec, d_unit)


def _perp(vec: np.ndarray) -> np.ndarray:
    """Planar vectors on the last axis turned by +90 degrees: skew1(1) @ v."""
    return vec[..., ::-1] * np.array([-1.0, 1.0])


@dataclass(frozen=True, eq=False)
class JointGeometry:
    """Everything the kinematics and the balance need about every joint at
    contact arc lengths s, stacked on a leading joint axis (row j is joint
    j).  The child contact frame lies on link j (in its coordinates), the
    parent contact frame on link j+1."""

    child_angle: np.ndarray           # (J,)
    child_rotation: np.ndarray        # (J, 2, 2)
    child_translation: np.ndarray     # (J, 2)
    parent_angle: np.ndarray
    parent_rotation: np.ndarray
    parent_translation: np.ndarray
    child_curvature: np.ndarray       # (J,) signed curvature at the contact
    parent_curvature: np.ndarray
    curve_gap: np.ndarray             # child minus parent curvature
    relative_angle: np.ndarray        # link j+1 expressed in link j
    relative_rotation: np.ndarray
    relative_translation: np.ndarray
    v: SegmentGeometry                # child-side segments of link j
    w: SegmentGeometry                # parent-side segments of link j+1


def joint_geometry(design: MechanismDesign, s) -> JointGeometry:
    """The joint geometry of the whole chain at contact arc lengths s: one
    `frame_at` and one `curvature_at` per mating surface, stacked (column 0
    the child surface, column 1 the parent surface), and the relative poses
    compose(child, inverse(parent))."""
    s = np.asarray(s, dtype=float)
    if s.shape != (design.joint_count,):
        raise ValueError(f"expected {design.joint_count} contact parameters")
    surfaces = [(s_j, surf) for j, s_j in enumerate(s.tolist())
                for surf in design.joint_surfaces(j)]
    frames = [surf.frame_at(s_j) for s_j, surf in surfaces]
    angle = np.array([frame.angle for frame in frames]).reshape(-1, 2)
    translation = np.array([frame.translation for frame in frames]).reshape(-1, 2, 2)
    curvature = np.array([surf.curvature_at(s_j) for s_j, surf in surfaces]).reshape(-1, 2)
    relative_angle = angle[:, 0] - angle[:, 1]
    rotation = rot2_stack(np.column_stack([angle, relative_angle]))
    rel_rot = rotation[:, 2]
    t_child, t_parent = translation[:, 0], translation[:, 1]
    # inverse(parent) has translation -R_p^T t_p; the child frame maps it
    # into link j
    parent_back = -matvec(_transposed(rotation[:, 1]), t_parent)
    rel_t = matvec(rotation[:, 0], parent_back) + t_child
    curve_gap = curvature[:, 0] - curvature[:, 1]
    # entry points are rows: p_next[j] on link j+1, c_here[j] on link j
    p_next = design.joint_parent_points
    c_here = design.joint_child_points
    rel_back = -matvec(_transposed(rel_rot), rel_t)   # inverse(relative)

    # rows are points, so a map x -> R x reads x @ R^T
    v_vec = p_next @ _transposed(rel_rot) + rel_t[:, None] - c_here
    v_dvec = curve_gap[:, None, None] * _perp(
        (p_next - t_parent[:, None]) @ _transposed(rel_rot))
    w_vec = c_here @ rel_rot + rel_back[:, None] - p_next
    w_dvec = -curve_gap[:, None, None] * _perp((c_here - t_child[:, None]) @ rel_rot)
    return JointGeometry(
        angle[:, 0], rotation[:, 0], t_child,
        angle[:, 1], rotation[:, 1], t_parent,
        curvature[:, 0], curvature[:, 1], curve_gap,
        relative_angle, rel_rot, rel_t,
        _segments(v_vec, v_dvec), _segments(w_vec, w_dvec),
    )


def forward_poses(design: MechanismDesign, s,
                  geometry: Optional[JointGeometry] = None) -> tuple[Pose2, ...]:
    """Chain the base pose through every rolling contact at contact arc
    lengths s: a running sum of the joints' relative angles and a running
    sum of their relative translations, each rotated into the world by its
    link's pose.  `geometry` is the joint geometry at s; it is built here
    only when the caller passes none."""
    if geometry is None:
        geometry = joint_geometry(design, s)
    base = design.base_pose
    angles = np.cumsum(np.concatenate([[base.angle], geometry.relative_angle]))
    steps = matvec(rot2_stack(angles[:-1]), geometry.relative_translation)
    translations = np.cumsum(np.concatenate([base.translation[None], steps]), axis=0)
    return tuple(Pose2(angle, t) for angle, t in zip(angles.tolist(), translations))


def evaluate(design: MechanismDesign, s, f) -> Configuration:
    """One evaluation of the unknowns (s, f): the joint geometry at s, built
    once, and the link poses chained from its relative poses."""
    geometry = joint_geometry(design, s)
    return Configuration(s, f, forward_poses(design, s, geometry), geometry)


def tendon_lengths(design: MechanismDesign, config: Configuration) -> np.ndarray:
    """Total left/right tendon lengths: in-link spans plus gap segments [mm]."""
    segments = config.geometry.v.length
    return np.concatenate([design.link_spans, segments]).sum(axis=0)


def validate(design: MechanismDesign) -> list[str]:
    """Check structural invariants; returns human-readable violations."""
    problems: list[str] = []
    n = design.n
    if n < 2:
        problems.append(f"mechanism needs at least 2 links, got {n}")
        return problems
    base = design.base_pose
    if not (math.isfinite(base.angle) and np.all(np.isfinite(base.translation))):
        problems.append("base pose has a non-finite angle or translation")
    for k, link in enumerate(design.links):
        if k == 0 and link.parent_surface is not None:
            problems.append(f"link 0 ({link.name}) must not have a parent surface")
        if k > 0 and link.parent_surface is None:
            problems.append(f"link {k} ({link.name}) is missing its parent surface")
        if k == n - 1 and link.child_surface is not None:
            problems.append(f"tip link ({link.name}) must not have a child surface")
        if k < n - 1 and link.child_surface is None:
            problems.append(f"link {k} ({link.name}) is missing its child surface")
        for attr in ("p_l", "p_r", "c_l", "c_r"):
            if not np.all(np.isfinite(getattr(link, attr))):
                problems.append(f"link {k} ({link.name}) has non-finite entry point {attr}")
    if problems:
        return problems
    for j in range(design.joint_count):
        child, parent = design.joint_surfaces(j)
        width_err = abs(child.width - parent.width)
        tol = 1e-9 * max(child.width, parent.width)
        if width_err > tol:
            problems.append(
                f"joint {j}: mating domain widths differ by {width_err:.3e} mm"
            )
        lo, hi = design.joint_domain(j)
        if hi <= lo:
            problems.append(f"joint {j}: mating domains do not overlap")
    return problems


def pose_difference(a: Pose2, b: Pose2) -> tuple[float, float]:
    """(translation distance [mm], absolute wrapped angle gap [rad])."""
    dt = float(np.linalg.norm(a.translation - b.translation))
    da = abs(math.remainder(a.angle - b.angle, math.tau))
    return dt, da
