"""Arc-length-parameterized rolling-contact surfaces.

A surface supplies, for every arc length s in its domain, a frame expressed
in the owning link's body coordinates whose x-axis is tangent to the surface
and whose y-axis is normal to it, plus the arc-length twist (u(s), (1, 0))
where u is the signed curvature.  Frames obey dT/ds = T [twist].
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Pose2

# grid refinement for curvature-profile integration: step <= width / PROFILE_STEPS
PROFILE_STEPS = 1000


class ContactSurface(ABC):
    """Common interface of rolling-surface geometries."""

    kind: str
    s_min: float
    s_max: float

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

    def _checked(self, s: float) -> float:
        slack = 1e-9 * self.width
        if s < self.s_min - slack or s > self.s_max + slack:
            raise DomainError(
                f"arc length {s} outside [{self.s_min}, {self.s_max}] of {self.kind}"
            )
        return min(max(s, self.s_min), self.s_max)

    @abstractmethod
    def frame_at(self, s: float) -> Pose2:
        """Surface frame at arc length s, in link body coordinates."""

    @abstractmethod
    def curvature_at(self, s: float) -> float:
        """Signed curvature u(s)."""


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

    def frame_at(self, s: float) -> Pose2:
        s = self._checked(s)
        phi = self.reference_angle + self.orientation_sign * s / self.radius
        position = self.center + self.radius * np.array([math.cos(phi), math.sin(phi)])
        return Pose2(phi + self.orientation_sign * math.pi / 2.0, position)

    def curvature_at(self, s: float) -> float:
        self._checked(s)
        return self.orientation_sign / self.radius


def _polyval(s: float, coeffs: tuple) -> float:
    """Polynomial with ascending coefficients at s, in plain floats: Horner's
    rule in the order `numpy.polynomial.polynomial.polyval` evaluates it."""
    u = coeffs[-1] + s * 0.0
    for c in coeffs[-2::-1]:
        u = c + u * s
    return u


def _profile_rhs(s: float, state: tuple, coeffs: tuple) -> tuple:
    theta = state[0]
    return _polyval(s, coeffs), math.cos(theta), math.sin(theta)


def _rk4_step(s: float, state: tuple, h: float, coeffs: tuple) -> tuple:
    """One classical RK4 step of (theta, x, y) in plain floats, each
    component evaluated as state + h/6 (k1 + 2 k2 + 2 k3 + k4) left to
    right."""
    half = 0.5 * h
    k1 = _profile_rhs(s, state, coeffs)
    k2 = _profile_rhs(s + half, tuple(v + half * k for v, k in zip(state, k1)), coeffs)
    k3 = _profile_rhs(s + half, tuple(v + half * k for v, k in zip(state, k2)), coeffs)
    k4 = _profile_rhs(s + h, tuple(v + h * k for v, k in zip(state, k3)), coeffs)
    sixth = h / 6.0
    return tuple(
        v + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
        for v, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


@dataclass(frozen=True, eq=False)
class CurvatureProfile(ContactSurface):
    """Surface defined by a polynomial curvature u(s) (ascending coefficients).

    The frame at s = 0 equals `reference_frame`; other frames come from RK4
    integration of (theta', x', y') = (u, cos theta, sin theta), cached on a
    dense grid at construction and locally re-integrated per query.
    """

    reference_frame: Pose2
    curvature_coeffs: np.ndarray
    s_min: float
    s_max: float

    kind = "curvature_profile"

    def __post_init__(self):
        coeffs = np.atleast_1d(np.array(self.curvature_coeffs, dtype=float))
        coeffs.setflags(write=False)
        object.__setattr__(self, "curvature_coeffs", coeffs)
        frame = self.reference_frame
        if not (np.all(np.isfinite(coeffs)) and math.isfinite(frame.angle)
                and np.all(np.isfinite(frame.translation))):
            raise ValueError("curvature profile needs finite coefficients and reference frame")
        self._check_domain()
        object.__setattr__(self, "_coeffs", tuple(coeffs.tolist()))
        object.__setattr__(self, "_grid", self._integrate_grid())

    def _integrate_grid(self) -> tuple[list[float], list[tuple]]:
        # the integration hull always contains 0 where the reference frame sits
        lo = min(0.0, self.s_min)
        hi = max(0.0, self.s_max)
        h_max = self.width / PROFILE_STEPS
        start = (self.reference_frame.angle, *self.reference_frame.translation.tolist())
        nodes: list[float] = [0.0]
        states: list[tuple] = [start]
        for bound, direction in ((hi, 1.0), (lo, -1.0)):
            span = abs(bound)
            if span == 0.0:
                continue
            count = max(1, math.ceil(span / h_max))
            h = direction * span / count
            state = start
            s = 0.0
            for _ in range(count):
                state = _rk4_step(s, state, h, self._coeffs)
                s += h
                nodes.append(s)
                states.append(state)
        grid = sorted(zip(nodes, states))
        return [node for node, _ in grid], [state for _, state in grid]

    def _state_at(self, s: float) -> tuple:
        grid_s, grid_states = self._grid
        idx = min(max(bisect.bisect_right(grid_s, s) - 1, 0), len(grid_s) - 1)
        s0, state = grid_s[idx], grid_states[idx]
        if s != s0:
            state = _rk4_step(s0, state, s - s0, self._coeffs)
        return state

    def frame_at(self, s: float) -> Pose2:
        s = self._checked(s)
        theta, x, y = self._state_at(s)
        return Pose2(theta, (x, y))

    def curvature_at(self, s: float) -> float:
        return _polyval(self._checked(s), self._coeffs)
