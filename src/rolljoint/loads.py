"""External load models and their derivatives with respect to body-frame
perturbations T -> T (I + [delta_xi]).

`target_link` is 1-based (link 1 is the fixed base link), matching design
files and solver reports.  A load maps its link's rotation matrix and
translation to the body-frame wrench array (m, f_x, f_y) and its (3, 3)
derivative.  `net_wrench` and `net_derivative` stack the loads of links 2..n
of a configuration at its link-pose arrays: a load acts on link k exactly
when its target_link equals k for some 2 <= k <= n, and loads on one link
are added in the order given.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidLoadError
from .geometry import Wrench2, cross2, rot2, skew2, _frozen_vec2


@dataclass(frozen=True, eq=False)
class ExternalLoad:
    target_link: int

    def body_wrench(self, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def body_wrench_derivative(self, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ConstantBody(ExternalLoad):
    """Wrench fixed in the link's own frame (covers the unloaded case)."""

    wrench: Wrench2 = Wrench2.zero()

    variant = "constant_body"

    def body_wrench(self, rotation, translation):
        return self.wrench.as_array()

    def body_wrench_derivative(self, rotation, translation):
        return np.zeros((3, 3))


@dataclass(frozen=True, eq=False)
class ConstantWorkspace(ExternalLoad):
    """Wrench fixed in the world frame, acting at a body-fixed point `attach`
    (defaults to the body origin); covers gravity-style pulls."""

    wrench: Wrench2 = Wrench2.zero()
    attach: np.ndarray = (0.0, 0.0)

    variant = "constant_workspace"

    def __post_init__(self):
        object.__setattr__(self, "attach", _frozen_vec2(self.attach))

    def body_wrench(self, rotation, translation):
        force = rotation.T @ self.wrench.f
        return np.array([self.wrench.m + cross2(self.attach, force), *force])

    def body_wrench_derivative(self, rotation, translation):
        # only the rotation perturbation moves the body-frame image of the
        # world-fixed force; the moment offset is constant
        col = rotation.T @ skew2(self.wrench.f)
        out = np.zeros((3, 3))
        out[0, 0] = -skew2(self.attach) @ col
        out[1:, 0] = col
        return out


@dataclass(frozen=True, eq=False)
class LinearSpring(ExternalLoad):
    """Linear spring from the link origin to a fixed world anchor."""

    stiffness: float = 0.0
    anchor: np.ndarray = (0.0, 0.0)

    variant = "linear_spring"

    def __post_init__(self):
        if self.stiffness < 0.0:
            raise ValueError("spring stiffness must be non-negative")
        object.__setattr__(self, "anchor", _frozen_vec2(self.anchor))

    def body_wrench(self, rotation, translation):
        force = -self.stiffness * (rotation.T @ (translation - self.anchor))
        return np.array([0.0, *force])

    def body_wrench_derivative(self, rotation, translation):
        out = np.zeros((3, 3))
        stretch = translation - self.anchor
        out[1:, 0] = -self.stiffness * (rotation.T @ skew2(stretch))
        out[1:, 1:] = -self.stiffness * np.eye(2)
        return out


def check_targets(loads, link_count: int) -> None:
    """Reject loads aimed at links the mechanism does not have (a bool or a
    fractional number names none), and loads with a non-finite force,
    moment, attach point, stiffness or anchor."""
    for load in loads:
        target = load.target_link
        if isinstance(target, bool) or not isinstance(target, Real) or target % 1:
            raise InvalidLoadError(
                f"{type(load).__name__} load target_link {target!r} is not a whole number")
        if not 1 <= target <= link_count:
            raise InvalidLoadError(f"load target_link {target} outside 1..{link_count}")
        numbers = [v.as_array() if isinstance(v, Wrench2) else v
                   for v in vars(load).values()
                   if isinstance(v, (Wrench2, float, np.ndarray))]
        if not all(np.all(np.isfinite(v)) for v in numbers):
            raise InvalidLoadError(
                f"{type(load).__name__} load on link {target} has a non-finite value"
            )


def net_wrench(loads, config) -> np.ndarray:
    """Summed body-frame wrenches (n-1, 3) on links 2..n of `config`."""
    angles, translations = config.link_angles, config.link_translations
    total = np.zeros((len(angles), 3))
    for load in loads:
        if load.target_link in range(2, len(angles) + 1):
            k = int(load.target_link) - 1
            # rot2 of the angle, as `Pose2.rotation` builds it
            total[k] += load.body_wrench(rot2(angles[k]), translations[k])
    return total[1:]


def net_derivative(loads, config) -> np.ndarray:
    """Summed wrench derivatives (n-1, 3, 3) on links 2..n of `config`."""
    angles, translations = config.link_angles, config.link_translations
    total = np.zeros((len(angles), 3, 3))
    for load in loads:
        if load.target_link in range(2, len(angles) + 1):
            k = int(load.target_link) - 1
            total[k] += load.body_wrench_derivative(rot2(angles[k]), translations[k])
    return total[1:]
