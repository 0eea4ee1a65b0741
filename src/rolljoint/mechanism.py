"""Link and mechanism data model: serial pose chain and tendon geometry.

`joint_geometry(design, s)` is the one place the joints' contact frames,
relative poses and tendon gap segments (with their s-derivatives) are
computed: one struct-of-arrays evaluation of the whole chain per iterate,
with a leading joint axis (row j is joint j) and, for the segments, the
left/right side as the next axis (column i is SIDES[i]).  All 2(n-1)
mating surfaces are looked up in one pass of the design's
`surface_stack`, and the child-side (v) and parent-side (w) segments are
built as one stack.  The pose chain is a running angle sum of the relative
poses and a batched rotation of the relative translations, kept as arrays;
`forward_poses` returns it as `Pose2` values.

`evaluate(design, s, f)` is the one constructor of a `Configuration`: it
builds the geometry once, so every configuration is an evaluated iterate
that carries its geometry (read as `config.geometry` by the tendon lengths
here, the force balance in `statics` and the displacement solver's
Jacobian) and belongs to the design that evaluated it.  The link angles and
translations are chained from that geometry and the base pose on their
first read, and the `poses` tuple is built from them on its first read, so
an iterate whose poses nothing reads (every iterate of an unloaded solve)
never chains them.  `Configuration.from_unknowns` is the same call.

Indexing: links are stored 0-based; joint j couples the child surface of
link j with the parent surface of link j+1 and carries one contact arc
length s[j] (the same value addresses both mating surfaces, which is the
no-slip equal-arc-length correspondence) and one contact force f[j]
expressed in the parent-contact frame of link j+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DegenerateTendonError
from .geometry import Pose2, matvec, rot2_stack, _frozen_vec2
from .surface import ContactSurface, SurfaceStack

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
    """Ordered chain of links with a fixed base pose."""

    links: tuple[LinkDesign, ...]
    base_pose: Pose2

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))

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
    def surface_stack(self) -> SurfaceStack:
        """Every joint's mating surfaces as one `SurfaceStack`: entry 2j is
        the child surface of joint j, entry 2j + 1 its parent surface."""
        return SurfaceStack([surf for j in range(self.joint_count)
                             for surf in self.joint_surfaces(j)])

    @cached_property
    def characteristic_length(self) -> float:
        """Mean link extent: the diameter of each link's entry points and
        surface midpoints, averaged over the links.  It scales moment
        residuals so convergence metrics share force units."""
        stack = self.surface_stack
        _, mids, _ = stack.frames_at(0.5 * (stack.s_min + stack.s_max))
        # stack entries 2k - 1 and 2k: link k's parent and child surfaces;
        # the base and tip links repeat their one surface point, which
        # leaves their diameters as they are
        surfaces = mids[np.clip(np.arange(-1, 2 * self.n - 1), 0, len(mids) - 1)]
        entries = [(*link.parent_points, *link.child_points) for link in self.links]
        points = np.concatenate((entries, surfaces.reshape(-1, 2, 2)), axis=1)
        diffs = points[:, :, None] - points[:, None]
        return float(np.mean(np.sqrt((diffs**2).sum(axis=3)).max(axis=(1, 2))))

    @cached_property
    def joint_gap_points(self) -> np.ndarray:
        """(joints, 2, sides, 2) far-end entry points of each joint's gap
        segments: column 0 the parent entry points of link j+1, column 1 the
        child entry points of link j."""
        return _frozen([(link.parent_points, below.child_points)
                        for below, link in zip(self.links, self.links[1:])])

    @cached_property
    def link_spans(self) -> np.ndarray:
        """(links, sides) tendon lengths inside each link."""
        spans = np.array([link.child_points - link.parent_points for link in self.links])
        return _frozen(np.linalg.norm(spans, axis=2))


def _frozen(arrays) -> np.ndarray:
    out = np.array(arrays, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Configuration:
    """One evaluated iterate: contact arc lengths s (n-1,), contact forces
    f (n-1, 2), the `JointGeometry` at s and the design's base pose.
    `evaluate` builds it; the geometry travels with the configuration and
    belongs to the design that evaluated it.  The link angles (n,) and
    translations (n, 2) are chained from the geometry on first read, and
    `poses` holds the same link poses as `Pose2` values, built on first
    read."""

    s: np.ndarray
    f: np.ndarray
    geometry: "JointGeometry" = field(repr=False)
    base_pose: Pose2 = field(repr=False)

    def __post_init__(self):
        s = _frozen(self.s).reshape(-1)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "f", _frozen(self.f).reshape(len(s), 2))

    @cached_property
    def _chain(self) -> tuple[np.ndarray, np.ndarray]:
        angles, translations = _pose_chain(self.base_pose, self.geometry)
        angles.setflags(write=False)
        translations.setflags(write=False)
        return angles, translations

    @cached_property
    def link_angles(self) -> np.ndarray:
        return self._chain[0]

    @cached_property
    def link_translations(self) -> np.ndarray:
        return self._chain[1]

    @cached_property
    def poses(self) -> tuple[Pose2, ...]:
        return _link_poses(self.link_angles, self.link_translations)

    def with_forces(self, f) -> "Configuration":
        """The same evaluated iterate with contact forces f: its geometry and
        any link poses already chained depend on s alone, so they carry over."""
        out = replace(self, f=f)
        vars(out).update((key, value) for key, value in vars(self).items() if key not in vars(out))
        return out

    @staticmethod
    def from_unknowns(design: MechanismDesign, s, f) -> "Configuration":
        """`evaluate(design, s, f)`."""
        return evaluate(design, s, f)


@dataclass(frozen=True, eq=False)
class SegmentGeometry:
    """Tendon gap segments of every joint, both tendons at once (row j for
    joint j, then SIDES): vectors and their s-derivatives (J, 2, 2), lengths
    (J, 2), and the unit vectors and their s-derivatives stacked as
    `directions` (J, 2, 2, 2), read as `unit` and `d_unit`.
    `JointGeometry.segments` stacks the child-side and the parent-side
    segments on an axis after the joint axis."""

    vec: np.ndarray
    length: np.ndarray
    d_vec: np.ndarray
    directions: np.ndarray

    unit = property(lambda self: self.directions[..., 0, :, :])
    d_unit = property(lambda self: self.directions[..., 1, :, :])

    def __getitem__(self, index) -> "SegmentGeometry":
        return SegmentGeometry(*(value[index] for value in vars(self).values()))


def _segments(vec: np.ndarray, d_vec: np.ndarray) -> SegmentGeometry:
    """Segments from their vectors and s-derivatives."""
    length = np.sqrt(np.einsum("...i,...i->...", vec, vec))
    if length.min() < MIN_SEGMENT_LENGTH:
        raise DegenerateTendonError(f"tendon segment length {length.min()} below minimum")
    directions = np.empty(vec.shape[:-2] + (2,) + vec.shape[-2:])
    length_col = length[..., None]
    unit = np.divide(vec, length_col, out=directions[..., 0, :, :])
    along = np.einsum("...i,...i->...", unit, d_vec)
    np.divide(d_vec - unit * along[..., None], length_col, out=directions[..., 1, :, :])
    return SegmentGeometry(vec, length, d_vec, directions)


_PERP_SIGNS = np.array([-1.0, 1.0])


def _perp(vec: np.ndarray) -> np.ndarray:
    """Planar vectors on the last axis turned by +90 degrees: skew1(1) @ v."""
    return vec[..., ::-1] * _PERP_SIGNS


@dataclass(frozen=True, eq=False)
class JointGeometry:
    """Everything the kinematics and the balance need about every joint at
    contact arc lengths s, stacked on a leading joint axis (row j is joint
    j) and, for the two contact frames and the two segment kinds, on a
    second axis: column 0 the child contact frame, which lies on link j (in
    its coordinates), and the child-side segments v of link j; column 1 the
    parent contact frame on link j+1 and its parent-side segments w.  The
    segment columns are also read as `v` and `w`."""

    contact_angle: np.ndarray         # (J, 2)
    contact_rotation: np.ndarray      # (J, 2, 2, 2)
    contact_translation: np.ndarray   # (J, 2, 2)
    curvature: np.ndarray             # (J, 2) signed curvature at the contact
    curve_gap: np.ndarray             # (J,) child minus parent curvature
    relative_angle: np.ndarray        # link j+1 expressed in link j
    relative_rotation: np.ndarray
    relative_translation: np.ndarray
    inverse_translation: np.ndarray   # translation of link j expressed in link j+1
    segments: SegmentGeometry         # (J, 2, ...): v, then w

    v = property(lambda self: self.segments[:, 0])
    w = property(lambda self: self.segments[:, 1])


def joint_geometry(design: MechanismDesign, s) -> JointGeometry:
    """The joint geometry of the whole chain at contact arc lengths s: every
    mating surface's frame and curvature from one lookup of the design's
    `surface_stack`, and the relative poses compose(child, inverse(parent))."""
    s = np.asarray(s, dtype=float)
    joints = design.joint_count
    if s.shape != (joints,):
        raise ValueError(f"expected {joints} contact parameters")
    angle, translation, curvature = design.surface_stack.frames_at(np.repeat(s, 2))
    translation = translation.reshape(-1, 2, 2)
    curvature = curvature.reshape(-1, 2)
    # rotations of the child and parent frames, then of inverse(relative)
    # and relative: R(-a) is R(a)^T exactly
    angles = np.empty((joints, 4))
    angles[:, :2] = angle.reshape(-1, 2)
    relative_angle = np.subtract(angles[:, 0], angles[:, 1], out=angles[:, 3])
    np.negative(relative_angle, out=angles[:, 2])
    rotation = rot2_stack(angles)
    t_child, t_parent = translation[:, 0], translation[:, 1]
    # inverse(parent) has translation -R_p^T t_p, which the child frame maps
    # into link j; column 1 is the translation of inverse(relative)
    rel_t = np.empty((joints, 2, 2))
    parent_back = matvec(np.swapaxes(rotation[:, 1], 1, 2), t_parent)
    np.subtract(t_child, matvec(rotation[:, 0], parent_back), out=rel_t[:, 0])
    np.negative(matvec(np.swapaxes(rotation[:, 3], 1, 2), rel_t[:, 0]), out=rel_t[:, 1])
    gap = np.empty((joints, 2))
    curve_gap = np.subtract(curvature[:, 0], curvature[:, 1], out=gap[:, 0])
    np.negative(curve_gap, out=gap[:, 1])

    # segment column 0 is v (link j's child entry points to link j+1's parent
    # entry points, in link j), column 1 is w (back, in link j+1); rows are
    # points, so a map x -> R x reads x @ R^T
    far = design.joint_gap_points
    mapped = rotation[:, 2:]
    vec = far @ mapped
    vec += rel_t[:, :, None]
    vec -= far[:, ::-1]
    d_vec = gap[:, :, None, None] * _perp((far - translation[:, ::-1, None]) @ mapped)
    return JointGeometry(
        angles[:, :2], rotation[:, :2], translation, curvature, curve_gap,
        relative_angle, rotation[:, 3], rel_t[:, 0], rel_t[:, 1], _segments(vec, d_vec),
    )


def _pose_chain(base: Pose2, geometry: JointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Link angles (n,) and translations (n, 2): a running sum of the joints'
    relative angles and a running sum of their relative translations, each
    rotated into the world by its link's pose."""
    angles = np.concatenate(([base.angle], geometry.relative_angle)).cumsum()
    steps = matvec(rot2_stack(angles[:-1]), geometry.relative_translation)
    return angles, np.concatenate((base.translation[None], steps)).cumsum(axis=0)


def _link_poses(angles: np.ndarray, translations: np.ndarray) -> tuple[Pose2, ...]:
    return tuple(Pose2(angle, t) for angle, t in zip(angles.tolist(), translations))


def forward_poses(design: MechanismDesign, s) -> tuple[Pose2, ...]:
    """Chain the base pose through every rolling contact at contact arc
    lengths s: the link poses of `evaluate`, as `Pose2` values."""
    return _link_poses(*_pose_chain(design.base_pose, joint_geometry(design, s)))


def evaluate(design: MechanismDesign, s, f) -> Configuration:
    """One evaluation of the unknowns (s, f): the joint geometry at s, built
    once; the link poses are chained from it when first read."""
    return Configuration(s, f, joint_geometry(design, s), design.base_pose)


def tendon_lengths(design: MechanismDesign, config: Configuration) -> np.ndarray:
    """Total left/right tendon lengths: in-link spans plus gap segments [mm]."""
    segments = config.geometry.segments.length[:, 0]
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
