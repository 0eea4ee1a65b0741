"""Link and mechanism data model: serial pose chain and tendon geometry.

`joint_geometry` is the one place a joint's contact frames, relative pose
and tendon gap segments (with their s-derivatives) are computed; the tendon
views and lengths here and the force balance in `statics` all read it.
`evaluate` builds it once for an iterate (s, f) and chains the link poses
from its relative poses, so the solvers look up each contact frame once.

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
    link body frame [mm]."""

    name: str
    parent_surface: Optional[ContactSurface]
    child_surface: Optional[ContactSurface]
    p_l: np.ndarray
    p_r: np.ndarray
    c_l: np.ndarray
    c_r: np.ndarray

    def __post_init__(self):
        for attr in ("p_l", "p_r", "c_l", "c_r"):
            object.__setattr__(self, attr, _frozen_vec2(getattr(self, attr)))

    def parent_point(self, side: str) -> np.ndarray:
        return self.p_l if side == "l" else self.p_r

    def child_point(self, side: str) -> np.ndarray:
        return self.c_l if side == "l" else self.c_r


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
        points = [link.p_l, link.p_r, link.c_l, link.c_r]
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
    the per-joint `JointGeometry` when `evaluate` built it."""

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


def unit_segment(segment: np.ndarray) -> tuple[np.ndarray, float]:
    norm = math.sqrt(float(segment @ segment))
    if norm < MIN_SEGMENT_LENGTH:
        raise DegenerateTendonError(f"tendon segment length {norm} below minimum")
    return segment / norm, norm


@dataclass(frozen=True)
class SegmentGeometry:
    """One tendon gap segment of a joint, with unit vector and s-derivatives."""

    vec: np.ndarray
    unit: np.ndarray
    length: float
    d_vec: np.ndarray
    d_unit: np.ndarray


@dataclass(frozen=True)
class JointGeometry:
    """Everything the kinematics and the balance need about joint j at
    contact arc length s_j."""

    child_frame: Pose2        # in link j coordinates
    parent_frame: Pose2       # in link j+1 coordinates
    child_twist: Twist2
    parent_twist: Twist2
    relative: Pose2           # link j+1 expressed in link j
    v: dict[str, SegmentGeometry]   # child-side segments of link j
    w: dict[str, SegmentGeometry]   # parent-side segments of link j+1


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

    v_segments: dict[str, SegmentGeometry] = {}
    w_segments: dict[str, SegmentGeometry] = {}
    for side in SIDES:
        p_next = design.links[j + 1].parent_point(side)
        c_here = design.links[j].child_point(side)

        vec = relative.apply(p_next) - c_here
        unit, length = unit_segment(vec)
        d_vec = curve_gap @ (rel_rot @ (p_next - t_parent.translation))
        d_unit = (d_vec - unit * float(unit @ d_vec)) / length
        v_segments[side] = SegmentGeometry(vec, unit, length, d_vec, d_unit)

        wvec = relative_inv.apply(c_here) - p_next
        wunit, wlength = unit_segment(wvec)
        dw_vec = (-curve_gap) @ (rel_rot.T @ (c_here - t_child.translation))
        dw_unit = (dw_vec - wunit * float(wunit @ dw_vec)) / wlength
        w_segments[side] = SegmentGeometry(wvec, wunit, wlength, dw_vec, dw_unit)

    return JointGeometry(
        t_child, t_parent, xi_child, xi_parent, relative, v_segments, w_segments
    )


def all_joint_geometry(design: MechanismDesign, config: Configuration) -> list[JointGeometry]:
    return [joint_geometry(design, j, config.s[j]) for j in range(design.joint_count)]


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
    return joint_geometry(design, k, config.s[k]).v[side].vec


def tendon_segment_w(design: MechanismDesign, config: Configuration, k: int, side: str) -> np.ndarray:
    """Gap segment leaving link k toward link k-1, in link k coordinates."""
    if not 1 <= k <= design.n - 1:
        raise IndexError(f"link {k} has no parent-side tendon segment")
    return joint_geometry(design, k - 1, config.s[k - 1]).w[side].vec


def tendon_lengths(
    design: MechanismDesign,
    config: Configuration,
    geoms: Optional[list[JointGeometry]] = None,
) -> np.ndarray:
    """Total left/right tendon lengths: in-link spans plus gap segments [mm];
    `geoms` is the configuration's joint geometry if already built."""
    if geoms is None:
        geoms = all_joint_geometry(design, config)
    lengths = np.zeros(2)
    for idx, side in enumerate(SIDES):
        total = 0.0
        for link in design.links:
            total += float(np.linalg.norm(link.child_point(side) - link.parent_point(side)))
        for geom in geoms:
            total += geom.v[side].length
        lengths[idx] = total
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
