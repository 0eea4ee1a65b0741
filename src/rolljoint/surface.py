"""Arc-length-parameterized rolling-contact surfaces.

A surface supplies, for every arc length s in its domain, a frame expressed
in the owning link's body coordinates whose x-axis is tangent to the surface
and whose y-axis is normal to it, plus the arc-length twist (u(s), (1, 0))
where u is the signed curvature.  Frames obey dT/ds = T [twist].

Each surface kind has one lookup, written for arrays: its `stack_type`
looks up a sequence of surfaces of that kind, one arc length each, in one
array pass.  For circular arcs that is a closed form; for curvature
profiles it is one grid-index search over every profile's grid at once,
then one RK4 step from the node found.  A `SurfaceStack` groups any
sequence of surfaces by kind and owns the one domain check and clamp.  The
solvers' joint geometry and the rendered outlines read a design's stack;
`frame_at` and `curvature_at`, which verification and the tests read, are
a one-element lookup through the surface's own stack.  A curvature profile
has one RK4 step, `_rk4_step`, written for arrays: its grid takes all its
steps through it at construction, and its lookup takes one step through
it from a grid node.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .geometry import Pose2

# grid refinement for curvature-profile integration: step <= width / PROFILE_STEPS
PROFILE_STEPS = 1000


class ContactSurface(ABC):
    """Common interface of rolling-surface geometries.

    A surface kind names its `kind`, its domain [s_min, s_max] and, as
    `stack_type`, its array lookup: a class built from a sequence of
    surfaces of the kind whose `frames_at(s)` returns the frame angles
    (m,), translations (m, 2) and curvatures (m,) of surface i at s[i],
    for arc lengths already checked and clamped into each domain.  That
    lookup is the one contract a new kind meets: `SurfaceStack`, `frame_at`
    and `curvature_at` all read it, and a subclass of a kind inherits its
    kind's.  A subclass that names none cannot be constructed."""

    kind: str
    s_min: float
    s_max: float

    @property
    @abstractmethod
    def stack_type(self) -> type:
        """The kind's array lookup."""

    @property
    def domain(self) -> tuple[float, float]:
        return (self.s_min, self.s_max)

    @property
    def width(self) -> float:
        return self.s_max - self.s_min

    def _check_domain(self) -> None:
        if not (math.isfinite(self.s_min) and math.isfinite(self.s_max)
                and self.s_max > self.s_min):
            raise ValueError("surface domain must be finite with positive width")

    @cached_property
    def _stack(self) -> SurfaceStack:
        return SurfaceStack([self])

    def frame_at(self, s: float) -> Pose2:
        """Surface frame at arc length s, in link body coordinates."""
        angle, translation, _ = self._stack.frames_at(np.array([s], dtype=float))
        return Pose2(angle[0], translation[0])

    def curvature_at(self, s: float) -> float:
        """Signed curvature u(s)."""
        return float(self._stack.frames_at(np.array([s], dtype=float))[2][0])


class _ArcStack:
    """Closed-form frames of a sequence of circular arcs."""

    def __init__(self, arcs):
        self.center = np.array([arc.center for arc in arcs])
        self.radius = np.array([arc.radius for arc in arcs])
        self.reference_angle = np.array([arc.reference_angle for arc in arcs])
        self.sign = np.array([arc.orientation_sign for arc in arcs], dtype=float)
        self.quarter_turn = self.sign * math.pi / 2.0
        # returned as it is, so read-only
        self.curvature = self.sign / self.radius
        self.curvature.setflags(write=False)

    def frames_at(self, s: np.ndarray):
        phi = self.reference_angle + self.sign * s / self.radius
        unit = np.empty((len(s), 2))
        np.cos(phi, out=unit[:, 0])
        np.sin(phi, out=unit[:, 1])
        return phi + self.quarter_turn, self.center + self.radius[:, None] * unit, self.curvature


@dataclass(frozen=True, eq=False)
class CircularArc(ContactSurface):
    """Circular surface: position = center + radius * (cos phi, sin phi) with
    phi(s) = reference_angle + orientation_sign * s / radius."""

    center: np.ndarray
    radius: float
    reference_angle: float
    orientation_sign: int
    s_min: float
    s_max: float

    kind = "circular_arc"
    stack_type = _ArcStack

    def __post_init__(self):
        object.__setattr__(self, "center", np.array(self.center, dtype=float).reshape(2))
        self.center.setflags(write=False)
        if not (np.all(np.isfinite(self.center)) and math.isfinite(self.reference_angle)):
            raise ValueError("circular arc center and reference angle must be finite")
        if not 0.0 < self.radius < math.inf:   # NaN too
            raise ValueError("circular arc radius must be positive and finite")
        if self.orientation_sign not in (-1, 1):
            raise ValueError("orientation_sign must be +1 or -1")
        self._check_domain()


def _polyval(s, coeffs):
    """Polynomial with ascending coefficients at s: Horner's rule in the
    order `numpy.polynomial.polynomial.polyval` evaluates it.  In plain
    floats, or in arrays with the coefficients on the first axis; zero
    coefficients on top of a shorter polynomial leave its value exact."""
    u = coeffs[-1] + s * 0.0
    for c in coeffs[-2::-1]:
        u = c + u * s
    return u


# RK4 stage offsets from the step's start, in steps h
_RK4_STAGES = np.array([[0.0], [0.5], [0.5], [1.0]])


def _rk4_step(s0, h, theta0, coeffs, s):
    """One classical RK4 step of (theta', x', y') = (u, cos theta, sin theta)
    by h from arc length s0 and angle theta0, for arrays of steps (m,).

    Returns the curvature at s, evaluated in the same polynomial pass as the
    stage curvatures, and the increments (3, m) of theta, x and y, each
    h/6 (k1 + 2 k2 + 2 k3 + k4) summed left to right.  The angle increment
    reads only the curvatures, not theta0."""
    steps = h * _RK4_STAGES           # 0, h/2, h/2, h
    points = np.empty((5, len(s0)))
    points[0] = s
    np.add(s0, steps, out=points[1:])
    u = _polyval(points, coeffs)
    # k[i] holds (u, cos theta, sin theta) of stage i; a stage's angle
    # steps from theta0 by the previous stage's curvature (the first
    # stage's step is 0), and its x and y are never read
    theta = steps * u[:4]
    theta += theta0
    k = np.empty((4, 3, len(s0)))
    k[:, 0] = u[1:]
    np.cos(theta, out=k[:, 1])
    np.sin(theta, out=k[:, 2])
    return u[0], (h / 6.0) * (((k[0] + 2.0 * k[1]) + 2.0 * k[2]) + k[3])


class _ProfileStack:
    """Frames of a sequence of curvature profiles: each query starts from
    the last grid node at or below it (clamped to the first) and takes one
    RK4 step.  The grids of the
    distinct profiles are searched at once: node x of profile i is the key
    i + x*1j, and complex numbers order by real part, then imaginary part."""

    def __init__(self, profiles):
        unique = list(dict.fromkeys(profiles))   # shared profiles share a grid
        sizes = np.array([len(profile._grid[0]) for profile in unique])
        self.nodes = np.concatenate([profile._grid[0] for profile in unique])
        self.keys = np.repeat(np.arange(len(unique), dtype=complex), sizes) + 1j * self.nodes
        # (3, nodes): theta, x, y
        self.states = np.concatenate([profile._grid[1] for profile in unique], axis=1)
        which = np.array([unique.index(profile) for profile in profiles])
        self.which = which.astype(complex)
        self.first = np.concatenate(([0], np.cumsum(sizes)[:-1]))[which]
        # ascending coefficients on the first axis, zero-padded on top
        degree = max(len(profile._coeffs) for profile in profiles)
        self.coeffs = np.zeros((degree, 1, len(profiles)))
        for i, profile in enumerate(profiles):
            self.coeffs[:len(profile._coeffs), 0, i] = profile._coeffs

    def frames_at(self, s: np.ndarray):
        # s lies in its surface's domain, so the search stays in its grid
        # past the last node too, and only the first node needs the clamp
        idx = np.searchsorted(self.keys, self.which + 1j * s, side="right") - 1
        idx = np.maximum(idx, self.first)
        s0, state = self.nodes[idx], self.states[:, idx]
        curvature, increments = _rk4_step(s0, s - s0, state[0], self.coeffs, s)
        state = np.where(s == s0, state, state + increments)
        return state[0], state[1:].T, curvature


@dataclass(frozen=True, eq=False)
class CurvatureProfile(ContactSurface):
    """Surface defined by a polynomial curvature u(s) (ascending coefficients).

    The frame at s = 0 equals `reference_frame`; other frames come from RK4
    integration of (theta', x', y') = (u, cos theta, sin theta): a grid of
    nodes from 0 to each end of the domain, built at construction, then one
    step from the last grid node at or below the query.  Coefficients are a
    non-empty flat sequence (a single number is one coefficient).
    """

    reference_frame: Pose2
    curvature_coeffs: np.ndarray
    s_min: float
    s_max: float

    kind = "curvature_profile"
    stack_type = _ProfileStack

    def __post_init__(self):
        coeffs = np.atleast_1d(np.array(self.curvature_coeffs, dtype=float))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("curvature profile needs a non-empty flat list of coefficients")
        coeffs.setflags(write=False)
        object.__setattr__(self, "curvature_coeffs", coeffs)
        frame = self.reference_frame
        if not (np.all(np.isfinite(coeffs)) and math.isfinite(frame.angle)
                and np.all(np.isfinite(frame.translation))):
            raise ValueError("curvature profile needs finite coefficients and reference frame")
        self._check_domain()
        object.__setattr__(self, "_coeffs", tuple(coeffs.tolist()))
        object.__setattr__(self, "_grid", self._integrate_grid())

    def _integrate_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes (N,) in ascending order and their states (3, N), from equal
        steps of at most width / PROFILE_STEPS from 0 to each end of the
        integration hull.  The states equal stepping node by node: the angle
        steps read no state, so they are taken first, in one pass, and their
        running sum gives the angles the x and y steps start from; every
        running sum adds left to right, as stepping does."""
        h_max = self.width / PROFILE_STEPS
        start = np.array([self.reference_frame.angle, *self.reference_frame.translation])
        nodes, states = [np.zeros(1)], [start[:, None]]
        # the integration hull always contains 0 where the reference frame sits
        for bound in (max(0.0, self.s_max), min(0.0, self.s_min)):
            if bound == 0.0:
                continue
            count = max(1, math.ceil(abs(bound) / h_max))
            h = bound / count
            s = np.cumsum(np.r_[0.0, np.full(count, h)])
            _, increments = _rk4_step(s[:-1], h, start[0], self._coeffs, s[:-1])
            theta = np.cumsum(np.r_[start[0], increments[0]])
            _, increments = _rk4_step(s[:-1], h, theta[:-1], self._coeffs, s[:-1])
            nodes.append(s[1:])
            states.append(np.cumsum(np.c_[start, increments], axis=1)[:, 1:])
        nodes = np.concatenate(nodes)
        order = np.argsort(nodes)
        return nodes[order], np.concatenate(states, axis=1)[:, order]


class SurfaceStack:
    """A fixed sequence of surfaces looked up at one arc length each.

    `frames_at(s)` returns the frame angles (m,), translations (m, 2) and
    curvatures (m,) of surface i at s[i], through one array pass of each
    kind's `stack_type`.  It holds the one domain check: an arc length
    within 1e-9 widths of its domain is clamped into it, and the first
    surface whose arc length is outside that slack, or NaN, raises a
    `DomainError`."""

    def __init__(self, surfaces):
        self.surfaces = tuple(surfaces)
        s_min = np.array([surf.s_min for surf in self.surfaces], dtype=float)
        s_max = np.array([surf.s_max for surf in self.surfaces], dtype=float)
        slack = 1e-9 * (s_max - s_min)
        self.s_min, self.s_max = s_min, s_max
        self.lower, self.upper = s_min - slack, s_max + slack
        groups: dict = {}
        for i, surf in enumerate(self.surfaces):
            groups.setdefault(surf.stack_type, []).append(i)
        self.kinds = [(np.array(index), stack([self.surfaces[i] for i in index]))
                      for stack, index in groups.items()]

    def frames_at(self, s: np.ndarray):
        # "not inside", so that NaN is outside too
        outside = ~((s >= self.lower) & (s <= self.upper))
        if outside.any():
            i = int(np.argmax(outside))
            surf = self.surfaces[i]
            raise DomainError(f"arc length {float(s[i])} outside "
                              f"[{surf.s_min}, {surf.s_max}] of {surf.kind}")
        s = np.minimum(np.maximum(s, self.s_min), self.s_max)
        if len(self.kinds) == 1:
            return self.kinds[0][1].frames_at(s)
        angle, translation, curvature = (np.empty(len(s)), np.empty((len(s), 2)),
                                         np.empty(len(s)))
        for index, stack in self.kinds:
            angle[index], translation[index], curvature[index] = stack.frames_at(s[index])
        return angle, translation, curvature
