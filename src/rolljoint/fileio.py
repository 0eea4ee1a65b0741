"""JSON design and scenario files.

Design files describe the mechanism (base pose, links, surfaces); scenario
files describe one actuation case (tension or displacement mode, external
loads, solver option overrides).  Lengths are mm, forces N; tensions may be
given in gram-force via "tau_gram" and are converted with g = 9.80665 m/s^2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .errors import NonFiniteResultError, RolljointError
from .geometry import Pose2
from .loads import ConstantBody, ConstantWorkspace, ExternalLoad, LinearSpring, Wrench2
from .mechanism import LinkDesign, MechanismDesign, validate
from .solver_displacement import DisplacementOptions
from .solver_tension import SolverOptions
from .surface import CircularArc, ContactSurface, CurvatureProfile

GRAM_FORCE_N = 9.80665e-3  # 1 gf in newtons


class ParseError(RolljointError):
    """Malformed design, scenario or sweep file."""


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where} must be a JSON object")
    if key not in mapping:
        raise ParseError(f"missing '{key}' in {where}")
    return mapping[key]


def _whole(mapping: dict, key: str, where: str) -> int:
    """A required integer field; a bool or a fractional number is refused,
    not truncated."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ParseError(f"bad {where}: {key} must be a whole number, got {value!r}")
    return int(value)


def _finite(value, what: str) -> np.ndarray:
    """Scenario numbers as floats; NaN and infinities are refused here, since
    the solvers cannot tell them from a converged state."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} must be numbers") from exc
    if not np.all(np.isfinite(array)):
        raise ParseError(f"{what} must be finite")
    return array


def _pose_from_dict(data: dict) -> Pose2:
    try:
        return Pose2(float(data.get("angle", 0.0)), data.get("translation", (0.0, 0.0)))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pose: {exc}") from exc


def _pose_to_dict(pose: Pose2) -> dict:
    return {"angle": pose.angle, "translation": list(pose.translation)}


def _surface_from_dict(data: Optional[dict], where: str) -> Optional[ContactSurface]:
    if data is None:
        return None
    kind = _require(data, "type", where)
    lo, hi = _require(data, "domain", where)
    if kind == "circular_arc":
        return CircularArc(
            center=_require(data, "center", where),
            radius=float(_require(data, "radius", where)),
            reference_angle=float(_require(data, "reference_angle", where)),
            orientation_sign=_whole(data, "orientation_sign", where),
            s_min=float(lo),
            s_max=float(hi),
        )
    if kind == "curvature_profile":
        return CurvatureProfile(
            reference_frame=_pose_from_dict(_require(data, "reference_frame", where)),
            curvature_coeffs=_require(data, "curvature_coeffs", where),
            s_min=float(lo),
            s_max=float(hi),
        )
    raise ParseError(f"unknown surface type '{kind}' in {where}")


def _surface_to_dict(surf: Optional[ContactSurface]) -> Optional[dict]:
    if surf is None:
        return None
    if isinstance(surf, CircularArc):
        return {
            "type": surf.kind,
            "center": list(surf.center),
            "radius": surf.radius,
            "reference_angle": surf.reference_angle,
            "orientation_sign": surf.orientation_sign,
            "domain": [surf.s_min, surf.s_max],
        }
    if isinstance(surf, CurvatureProfile):
        return {
            "type": surf.kind,
            "reference_frame": _pose_to_dict(surf.reference_frame),
            "curvature_coeffs": list(surf.curvature_coeffs),
            "domain": [surf.s_min, surf.s_max],
        }
    raise ParseError(f"cannot serialize surface {type(surf).__name__}")


def design_from_dict(data: dict) -> MechanismDesign:
    links_data = _require(data, "links", "design")
    if not isinstance(links_data, list) or len(links_data) < 2:
        raise ParseError("design needs a list of at least two links")
    links = []
    for idx, entry in enumerate(links_data):
        where = f"link {idx}"
        try:
            links.append(
                LinkDesign(
                    name=str(entry.get("name", f"link{idx + 1}")),
                    parent_surface=_surface_from_dict(entry.get("parent_surface"), where),
                    child_surface=_surface_from_dict(entry.get("child_surface"), where),
                    p_l=_require(entry, "p_l", where),
                    p_r=_require(entry, "p_r", where),
                    c_l=_require(entry, "c_l", where),
                    c_r=_require(entry, "c_r", where),
                )
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad {where}: {exc}") from exc
    design = MechanismDesign(tuple(links), _pose_from_dict(data.get("base_pose", {})))
    problems = validate(design)
    if problems:
        raise ParseError("invalid design: " + "; ".join(problems))
    return design


def design_to_dict(design: MechanismDesign) -> dict:
    return {
        "version": "1",
        "units": {"length": "mm", "force": "N"},
        "base_pose": _pose_to_dict(design.base_pose),
        "links": [
            {
                "name": link.name,
                "parent_surface": _surface_to_dict(link.parent_surface),
                "child_surface": _surface_to_dict(link.child_surface),
                "p_l": list(link.p_l),
                "p_r": list(link.p_r),
                "c_l": list(link.c_l),
                "c_r": list(link.c_r),
            }
            for link in design.links
        ],
    }


def read_json(path, what: str):
    """The JSON value of a `what` file; one unreadable or not JSON is a ParseError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc


def load_design(path) -> MechanismDesign:
    return design_from_dict(read_json(path, "design"))


def strict_json(data, **kwargs) -> str:
    """`json.dumps` that refuses NaN and infinities instead of writing the
    non-standard tokens NaN and Infinity."""
    try:
        return json.dumps(data, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NonFiniteResultError(f"cannot write a non-finite value as JSON: {exc}") from exc


def save_design(design: MechanismDesign, path) -> None:
    Path(path).write_text(strict_json(design_to_dict(design), indent=2) + "\n")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One actuation case: mode plus its inputs, loads and solver options.

    `solver` holds the file's one `solver` block: the displacement settings,
    with the tension settings in its `inner`, which tension items and the
    start solve and residual tolerance of displacement items both use."""

    mode: str                       # "tension" or "displacement"
    tau: Optional[np.ndarray] = None
    lengths: Optional[np.ndarray] = None
    tau_init: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0]))
    loads: tuple[ExternalLoad, ...] = ()
    solver: DisplacementOptions = field(default_factory=DisplacementOptions)


def _load_from_dict(entry: dict, index: int) -> ExternalLoad:
    where = f"load {index}"
    variant = _require(entry, "variant", where)
    target = _whole(entry, "target_link", where)
    if target < 1:
        raise ParseError(f"{where}: target_link is 1-based and must be >= 1")
    force = _finite(entry.get("force", (0.0, 0.0)), f"{where} force")
    moment = float(_finite(entry.get("moment", 0.0), f"{where} moment"))
    if variant == "constant_body":
        return ConstantBody(target_link=target, wrench=Wrench2(moment, force))
    if variant == "constant_workspace":
        return ConstantWorkspace(
            target_link=target,
            wrench=Wrench2(moment, force),
            attach=_finite(entry.get("attach", (0.0, 0.0)), f"{where} attach"),
        )
    if variant == "linear_spring":
        return LinearSpring(
            target_link=target,
            stiffness=float(_finite(_require(entry, "stiffness", where), f"{where} stiffness")),
            anchor=_finite(_require(entry, "anchor", where), f"{where} anchor"),
        )
    raise ParseError(f"{where}: unknown variant '{variant}'")


_SOLVER_KEYS = frozenset(f.name for f in fields(SolverOptions))
_DISPLACEMENT_KEYS = frozenset(f.name for f in fields(DisplacementOptions)) - {"inner"}


def scenario_from_dict(data: dict) -> Scenario:
    actuation = _require(data, "actuation", "scenario")
    mode = _require(actuation, "mode", "actuation")
    tau = lengths = None
    tau_init = np.array([1.0, 1.0])
    if mode == "tension":
        if "tau_gram" in actuation:
            tau = _finite(actuation["tau_gram"], "tau_gram") * GRAM_FORCE_N
        else:
            tau = _finite(_require(actuation, "tau", "actuation"), "tau")
        if tau.shape != (2,) or np.any(tau <= 0.0):
            raise ParseError("tension mode needs two positive tensions")
    elif mode == "displacement":
        lengths = _finite(_require(actuation, "lengths", "actuation"), "lengths")
        if lengths.shape != (2,):
            raise ParseError("displacement mode needs two target lengths")
        if "tau_init_gram" in actuation:
            tau_init = _finite(actuation["tau_init_gram"], "tau_init_gram") * GRAM_FORCE_N
        elif "tau_init" in actuation:
            tau_init = _finite(actuation["tau_init"], "tau_init")
    else:
        raise ParseError(f"unknown actuation mode '{mode}'")

    entries, overrides = data.get("loads", []), data.get("solver", {})
    if not isinstance(entries, list) or not isinstance(overrides, dict):
        raise ParseError("loads must be a JSON list and solver a JSON object")
    try:
        loads = tuple(_load_from_dict(entry, idx) for idx, entry in enumerate(entries))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad load: {exc}") from exc
    unknown = set(overrides) - _SOLVER_KEYS - _DISPLACEMENT_KEYS
    if unknown:
        raise ParseError(f"unknown solver options {sorted(unknown)}")
    try:
        solver = DisplacementOptions(
            inner=SolverOptions(**{k: v for k, v in overrides.items() if k in _SOLVER_KEYS}),
            **{k: v for k, v in overrides.items() if k in _DISPLACEMENT_KEYS})
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad solver options: {exc}") from exc
    floor = solver.tension_floor
    if mode == "displacement" and (tau_init.shape != (2,) or np.any(tau_init < floor)):
        raise ParseError(f"displacement mode needs two initial tensions of at least {floor} N")

    return Scenario(
        mode=mode,
        tau=tau,
        lengths=lengths,
        tau_init=tau_init,
        loads=loads,
        solver=solver,
    )


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"))


def set_by_path(data: Any, path: str, value: Any) -> None:
    """Assign into nested dicts/lists along a dotted path like 'loads.0.force.0'."""
    parts = path.split(".")
    target = data
    for part in parts[:-1]:
        target = target[_key(target, part, path)]
    target[_key(target, parts[-1], path)] = value


def _key(container: Any, part: str, path: str):
    """The dict key or list index that one segment of a sweep path names."""
    if isinstance(container, dict) and part in container:
        return part
    if isinstance(container, list) and part.lstrip("-").isdigit():
        if -len(container) <= int(part) < len(container):
            return int(part)
    raise ParseError(f"sweep path '{path}' does not exist in the scenario")
