"""Minimal deterministic SVG rendering of mechanism configurations.

The body-frame points of every drawn curve (link outlines, sampled
surfaces, tendon entry points) are stacked once per call and mapped into
the world for all configurations with one stacked product; each polyline is
formatted from one list of coordinate strings."""

from __future__ import annotations

import numpy as np

from .geometry import rot2
from .loads import ConstantWorkspace, LinearSpring
from .mechanism import SIDES, Configuration, MechanismDesign

_POSE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_SURFACE_SAMPLES = 24


def _fmt(value: float) -> str:
    """12 significant digits: the one number format of every output file."""
    return f"{float(value):.12g}"


_COORD = "{:.12g},{:.12g}".format


def _coords(points: np.ndarray) -> list[str]:
    """One "x,y" string per (m, 2) world point, y flipped to SVG's downward
    axis."""
    return [_COORD(x, -y) for x, y in points.tolist()]


def _polyline(coords: list[str], stroke: str, width: float = 0.5, dash: str = "") -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{" ".join(coords)}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}"{extra}/>'
    )


def _body_points(design: MechanismDesign):
    """Every curve drawn per configuration, as one stack of body-frame
    points: per link its entry-point quadrilateral and its sampled surfaces,
    then the entry points of each tendon (SIDES), base to tip.  Returns the
    points (m, 2), the link each point is fixed to (m,) and the end index of
    each curve.  They do not depend on the configuration.  The surfaces are
    sampled from the design's `surface_stack`, one lookup per sample row."""
    stack = design.surface_stack
    samples = np.linspace(stack.s_min, stack.s_max, _SURFACE_SAMPLES)
    outlines = np.stack([stack.frames_at(row)[1] for row in samples], axis=1)
    curves, owners = [], []
    for k, link in enumerate(design.links):
        curves.append([link.p_l, link.p_r, link.c_r, link.c_l, link.p_l])
        # stack entries 2k - 1 and 2k: link k's parent and child surfaces
        curves += [outlines[entry] for entry in (2 * k - 1, 2 * k) if 0 <= entry < len(outlines)]
        owners += [k] * (sum(map(len, curves)) - len(owners))
    for side in range(len(SIDES)):
        curves.append([point for link in design.links
                       for point in (link.parent_points[side], link.child_points[side])])
        owners += [k for k in range(design.n) for _ in range(2)]
    points = np.array([point for curve in curves for point in curve])
    return points, np.array(owners), np.cumsum([len(curve) for curve in curves]).tolist()


def _world_points(configs, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """(configs, m, 2) world images of body points fixed to the links
    `owners`, each mapped as `Pose2.apply` maps it: R p + t, with R built by
    `rot2` as `Pose2.rotation` builds it, so the images are bit-identical."""
    rotations = np.array([[rot2(angle) for angle in config.link_angles.tolist()]
                          for config in configs])
    translations = np.array([config.link_translations for config in configs])
    return (rotations[:, owners] @ points[..., None])[..., 0] + translations[:, owners]


def _load_arrows(design: MechanismDesign, config: Configuration, loads, scale: float):
    arrows = []
    for load in loads:
        pose = config.poses[int(load.target_link) - 1]
        if isinstance(load, ConstantWorkspace):
            start = pose.apply(load.attach)
            vec = np.asarray(load.wrench.f, dtype=float)
        elif isinstance(load, LinearSpring):
            start = pose.translation
            vec = -load.stiffness * (pose.translation - load.anchor)
        else:
            start = pose.translation
            vec = pose.rotation @ np.asarray(load.wrench.f, dtype=float)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            continue
        arrows.append((start, start + vec * scale))
    return arrows


def render_svg(design: MechanismDesign, configs, loads=()) -> str:
    """SVG text showing one or more configurations (link outlines, tendon
    polylines, load arrows with length proportional to magnitude).  `loads`
    holds one tuple of loads per configuration, drawn on it; none when
    empty."""
    configs = list(configs)
    points, owners, ends = _body_points(design)
    world = _world_points(configs, points, owners)
    starts = [0, *ends[:-1]]
    tendons = len(ends) - len(SIDES)
    elements = []
    for idx, curves in enumerate(world):
        color = _POSE_COLORS[idx % len(_POSE_COLORS)]
        coords = _coords(curves)
        for c, (start, end) in enumerate(zip(starts, ends)):
            if c < tendons:
                elements.append(_polyline(coords[start:end], color, 0.4))
            else:
                elements.append(_polyline(coords[start:end], "#555555", 0.3, dash="1,1"))

    span = max(float(world.max() - world.min()), 1.0)
    max_force = max([float(np.linalg.norm(load.wrench.f)) for config_loads in loads
                     for load in config_loads if hasattr(load, "wrench")] + [1.0])
    arrow_scale = 0.25 * span / max_force
    arrow_points = []
    for config, config_loads in zip(configs, loads):
        for start, end in _load_arrows(design, config, config_loads, arrow_scale):
            elements.append(_polyline(_coords(np.array([start, end])), "#ff7f0e", 0.8))
            arrow_points += [start, end]

    pts = np.concatenate([world.reshape(-1, 2), np.array(arrow_points).reshape(-1, 2)])
    lo = pts.min(axis=0) - 5.0
    hi = pts.max(axis=0) + 5.0
    view = (
        f"{_fmt(lo[0])} {_fmt(-hi[1])} {_fmt(hi[0] - lo[0])} {_fmt(hi[1] - lo[1])}"
    )
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n{body}\n</svg>\n'
    )
