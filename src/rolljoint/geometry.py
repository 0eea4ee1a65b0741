"""Planar rigid-body algebra: SE(2) poses, twists, wrenches and adjoint maps.

Conventions: a pose is (R, t) with R a planar rotation and t in mm; a twist
is (w, v) with scalar angular part w and linear part v; a wrench is (m, f)
with moment m [N mm] and force f [N].  The planar "hat" of a scalar w is the
2x2 skew matrix [[0, -w], [w, 0]]; the hat of a 2-vector t is the 2-vector
(t_y, -t_x), so that skew1(w) @ t == -skew2(t) * w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def rot2(angle: float) -> np.ndarray:
    """2x2 rotation matrix for a planar angle [rad]."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rot2_stack(angles) -> np.ndarray:
    """(..., 2, 2) rotation matrices of an array of planar angles [rad]."""
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty(c.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products (..., m, k) x (..., k) -> (..., m),
    each evaluated as `matrix @ vector`."""
    return (matrices @ vectors[..., None])[..., 0]


def skew1(w: float) -> np.ndarray:
    return np.array([[0.0, -w], [w, 0.0]])


def skew2(t) -> np.ndarray:
    return np.array([t[1], -t[0]], dtype=float)


def cross2(a, b) -> float:
    """Planar cross product a_x b_y - a_y b_x."""
    return float(a[0] * b[1] - a[1] * b[0])


def _frozen_vec2(value) -> np.ndarray:
    vec = np.array(value, dtype=float).reshape(2)
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True, eq=False)
class Pose2:
    """Planar rigid transform stored as an angle and a translation; the
    read-only rotation matrix is built on its first read, so a pose read
    only for its angle and translation never builds one."""

    angle: float
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "translation", _frozen_vec2(self.translation))

    @cached_property
    def rotation(self) -> np.ndarray:
        rotation = rot2(self.angle)
        rotation.setflags(write=False)
        return rotation

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, (0.0, 0.0))

    @property
    def matrix(self) -> np.ndarray:
        hom = np.eye(3)
        hom[:2, :2] = self.rotation
        hom[:2, 2] = self.translation
        return hom

    def apply(self, point) -> np.ndarray:
        """Map a point from this frame into the parent frame."""
        return self.rotation @ np.asarray(point, dtype=float) + self.translation


@dataclass(frozen=True, eq=False)
class Twist2:
    """Spatial velocity (w, v); for arc-length surface frames w is the curvature."""

    w: float
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "v", _frozen_vec2(self.v))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.v[0], self.v[1]])


@dataclass(frozen=True, eq=False)
class Wrench2:
    """Spatial load (m, f): moment plus planar force, in one chosen frame."""

    m: float
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "f", _frozen_vec2(self.f))

    @staticmethod
    def zero() -> "Wrench2":
        return Wrench2(0.0, (0.0, 0.0))

    def as_array(self) -> np.ndarray:
        return np.array([self.m, self.f[0], self.f[1]])


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Product a.b; angles add exactly, so long chains do not drift."""
    return Pose2(a.angle + b.angle, a.rotation @ b.translation + a.translation)


def inverse(a: Pose2) -> Pose2:
    return Pose2(-a.angle, -(a.rotation.T @ a.translation))


def exp_twist(xi: Twist2, scale: float = 1.0) -> Pose2:
    """Exponential map of scale * xi onto SE(2)."""
    theta = scale * xi.w
    if abs(theta) < 1e-9:
        # second-order series of the integrated rotation
        a = 1.0 - theta * theta / 6.0
        b = theta / 2.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta
    v_int = np.array([[a, -b], [b, a]]) @ (scale * xi.v)
    return Pose2(theta, v_int)


def adjoint(pose: Pose2) -> np.ndarray:
    """3x3 adjoint mapping twists from this frame to the parent frame."""
    out = np.zeros((3, 3))
    out[0, 0] = 1.0
    out[1:, 0] = skew2(pose.translation)
    out[1:, 1:] = pose.rotation
    return out


def coadjoint(pose: Pose2) -> np.ndarray:
    """3x3 co-adjoint mapping wrenches from the child frame into this frame."""
    rot = pose.rotation
    out = np.zeros((3, 3))
    out[0, 0] = 1.0
    out[0, 1:] = -(skew2(pose.translation) @ rot)
    out[1:, 1:] = rot
    return out


def coadjoint_small(xi: Twist2) -> np.ndarray:
    """Derivative generator of the co-adjoint along the twist xi."""
    out = np.zeros((3, 3))
    out[0, 1:] = -skew2(xi.v)
    out[1:, 1:] = skew1(xi.w)
    return out
