"""Link and mechanism data model: serial pose chain and tendon geometry.

`joint_geometry` is the one place a joint's contact frames, relative pose
and tendon gap segments (with their s-derivatives) are computed, for both
tendons at once: the left/right side is the leading array axis (row i is
SIDES[i]).  `evaluate` builds it once for an iterate (s, f), chains the link
poses from its relative poses and returns it with the configuration, so the
geometry travels with the configuration and belongs to the design that
evaluated it.  `geometry_of` is the one reader: the tendon views and lengths
here, the force balance in `statics` and the displacement solver's Jacobian
all take the geometry from the configuration through it.

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
from .geometry import Pose2, Twist2, compose, inverse, skew1, _frozen_vec2
from .surface import ContactSurface

SIDES = ("l", "r")

# tendon segments shorter than this [mm] have no usable direction
MIN_SEGMENT_LENGTH = 1e-9


@dataclass(frozen=True)
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
    parent_points: np.ndarray = field(init=False, repr=False, compare=False)
    child_points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for attr in ("p_l", "p_r", "c_l", "c_r"):
            object.__setattr__(self, attr, _frozen_vec2(getattr(self, attr)))
        for attr, left, right in (("parent_points", self.p_l, self.p_r),
                                  ("child_points", self.c_l, self.c_r)):
            points = np.array([left, right])
            points.setflags(write=False)
            object.__setattr__(self, attr, points)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Configuration:
    """Value snapshot of the mechanism state: contact arc lengths s (n-1,),
    contact forces f (n-1, 2) and link poses (n,) consistent with s, plus
    the per-joint `JointGeometry` when `evaluate` built it.  That geometry
    travels with the configuration and belongs to the design that evaluated
    it; read it through `geometry_of`, which builds it when it is absent
    (`from_unknowns` chains the poses only)."""

    s: np.ndarray
    f: np.ndarray
    poses: tuple[Pose2, ...]
    geometry: Optional[tuple["JointGeometry", ...]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        s = np.array(self.s, dtype=float).reshape(-1)
        f = np.array(self.f, dtype=float).reshape(len(s), 2)
        s.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "poses", tuple(self.poses))

    @staticmethod
    def from_unknowns(design: MechanismDesign, s, f) -> "Configuration":
        return Configuration(s, f, forward_poses(design, s))


def joint_relative_pose(design: MechanismDesign, j: int, s_j: float) -> Pose2:
    """Pose of link j+1 expressed in link j's frame at contact arc length s_j."""
    child, parent = design.joint_surfaces(j)
    return compose(child.frame_at(s_j), inverse(parent.frame_at(s_j)))


def _contact_parameters(design: MechanismDesign, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (design.joint_count,):
        raise ValueError(f"expected {design.joint_count} contact parameters")
    return s


def _chain_poses(design: MechanismDesign, relatives) -> tuple[Pose2, ...]:
    """Chain the base pose through each joint's relative pose."""
    poses = [design.base_pose]
    for relative in relatives:
        poses.append(compose(poses[-1], relative))
    return tuple(poses)


def forward_poses(design: MechanismDesign, s) -> tuple[Pose2, ...]:
    """Chain the base pose through every rolling contact."""
    s = _contact_parameters(design, s)
    return _chain_poses(design, (joint_relative_pose(design, j, s[j]) for j in range(len(s))))


@dataclass(frozen=True)
class SegmentGeometry:
    """The left and right tendon gap segments of one joint side, row i for
    SIDES[i]: vectors, unit vectors and their s-derivatives (2, 2), lengths
    (2,)."""

    vec: np.ndarray
    unit: np.ndarray
    length: np.ndarray
    d_vec: np.ndarray
    d_unit: np.ndarray


def _segments(vec: np.ndarray, d_vec: np.ndarray) -> SegmentGeometry:
    """Both sides' segments from their vectors and s-derivatives."""
    length = np.sqrt(np.einsum("si,si->s", vec, vec))
    if length.min() < MIN_SEGMENT_LENGTH:
        raise DegenerateTendonError(f"tendon segment length {length.min()} below minimum")
    unit = vec / length[:, None]
    along = np.einsum("si,si->s", unit, d_vec)
    d_unit = (d_vec - unit * along[:, None]) / length[:, None]
    return SegmentGeometry(vec, unit, length, d_vec, d_unit)


@dataclass(frozen=True)
class JointGeometry:
    """Everything the kinematics and the balance need about joint j at
    contact arc length s_j."""

    child_frame: Pose2        # in link j coordinates
    parent_frame: Pose2       # in link j+1 coordinates
    child_twist: Twist2
    parent_twist: Twist2
    relative: Pose2           # link j+1 expressed in link j
    v: SegmentGeometry        # child-side segments of link j
    w: SegmentGeometry        # parent-side segments of link j+1


def joint_geometry(design: MechanismDesign, j: int, s_j: float) -> JointGeometry:
    child, parent = design.joint_surfaces(j)
    t_child = child.frame_at(s_j)
    t_parent = parent.frame_at(s_j)
    xi_child = child.twist_at(s_j)
    xi_parent = parent.twist_at(s_j)
    relative = compose(t_child, inverse(t_parent))
    relative_inv = inverse(relative)
    rel_rot = relative.rotation
    curve_gap = skew1(xi_child.w - xi_parent.w)
    # entry points are rows, so a map x -> M x reads x @ M.T
    p_next = design.links[j + 1].parent_points
    c_here = design.links[j].child_points

    v_vec = p_next @ rel_rot.T + relative.translation - c_here
    v_dvec = ((p_next - t_parent.translation) @ rel_rot.T) @ curve_gap.T
    w_vec = c_here @ relative_inv.rotation.T + relative_inv.translation - p_next
    w_dvec = ((c_here - t_child.translation) @ rel_rot) @ curve_gap
    return JointGeometry(
        t_child, t_parent, xi_child, xi_parent, relative,
        _segments(v_vec, v_dvec), _segments(w_vec, w_dvec),
    )


def geometry_of(design: MechanismDesign, config: Configuration) -> tuple[JointGeometry, ...]:
    """The configuration's joint geometry: the one `evaluate` attached, else
    built from its contact parameters."""
    if config.geometry is not None:
        return config.geometry
    return tuple(joint_geometry(design, j, s_j) for j, s_j in enumerate(config.s))


def evaluate(design: MechanismDesign, s, f) -> Configuration:
    """One evaluation of the unknowns (s, f): the configuration together
    with its joint geometry, whose relative poses chain the link poses."""
    s = _contact_parameters(design, s)
    geometry = tuple(joint_geometry(design, j, s[j]) for j in range(len(s)))
    return Configuration(s, f, _chain_poses(design, (g.relative for g in geometry)), geometry)


def tendon_segment_v(design: MechanismDesign, config: Configuration, k: int, side: str) -> np.ndarray:
    """Gap segment leaving link k toward link k+1, in link k coordinates."""
    if not 0 <= k <= design.n - 2:
        raise IndexError(f"link {k} has no child-side tendon segment")
    return geometry_of(design, config)[k].v.vec[SIDES.index(side)]


def tendon_segment_w(design: MechanismDesign, config: Configuration, k: int, side: str) -> np.ndarray:
    """Gap segment leaving link k toward link k-1, in link k coordinates."""
    if not 1 <= k <= design.n - 1:
        raise IndexError(f"link {k} has no parent-side tendon segment")
    return geometry_of(design, config)[k - 1].w.vec[SIDES.index(side)]


def tendon_lengths(design: MechanismDesign, config: Configuration) -> np.ndarray:
    """Total left/right tendon lengths: in-link spans plus gap segments [mm]."""
    lengths = np.zeros(2)
    for link in design.links:
        lengths += np.linalg.norm(link.child_points - link.parent_points, axis=1)
    for geom in geometry_of(design, config):
        lengths += geom.v.length
    return lengths


def validate(design: MechanismDesign) -> list[str]:
    """Check structural invariants; returns human-readable violations."""
    problems: list[str] = []
    n = design.n
    if n < 2:
        problems.append(f"mechanism needs at least 2 links, got {n}")
        return problems
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
