"""Minimal deterministic SVG rendering of mechanism configurations."""

from __future__ import annotations

import numpy as np

from .loads import ConstantWorkspace, LinearSpring
from .mechanism import SIDES, Configuration, MechanismDesign

_POSE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_SURFACE_SAMPLES = 24


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _polyline(points, stroke: str, width: float = 0.5, dash: str = "") -> str:
    coords = " ".join(f"{_fmt(p[0])},{_fmt(-p[1])}" for p in points)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}"{extra}/>'
    )


def _body_outline_points(design: MechanismDesign):
    """Per link, the body-frame outline curves: entry-point quadrilateral
    plus sampled surfaces.  They do not depend on the configuration."""
    outlines = []
    for link in design.links:
        curves = [[link.p_l, link.p_r, link.c_r, link.c_l, link.p_l]]
        for surf in (link.parent_surface, link.child_surface):
            if surf is None:
                continue
            samples = np.linspace(surf.s_min, surf.s_max, _SURFACE_SAMPLES)
            curves.append([surf.frame_at(s).translation for s in samples])
        outlines.append(curves)
    return outlines


def _tendon_points(design: MechanismDesign, config: Configuration, side: int):
    """Entry points of tendon SIDES[side], base to tip, in world coordinates."""
    points = []
    for k, link in enumerate(design.links):
        pose = config.poses[k]
        points.append(pose.apply(link.parent_points[side]))
        points.append(pose.apply(link.child_points[side]))
    return points


def _load_arrows(design: MechanismDesign, config: Configuration, loads, scale: float):
    arrows = []
    for load in loads:
        pose = config.poses[load.target_link - 1]
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
    polylines, load arrows with length proportional to magnitude)."""
    configs = list(configs)
    outlines = _body_outline_points(design)
    elements = []
    all_points = []
    for idx, config in enumerate(configs):
        color = _POSE_COLORS[idx % len(_POSE_COLORS)]
        for pose, body_curves in zip(config.poses, outlines):
            for body_curve in body_curves:
                curve = [pose.apply(p) for p in body_curve]
                elements.append(_polyline(curve, color, 0.4))
                all_points.extend(curve)
        for side in range(len(SIDES)):
            pts = _tendon_points(design, config, side)
            elements.append(_polyline(pts, "#555555", 0.3, dash="1,1"))
            all_points.extend(pts)

    pts = np.array(all_points)
    span = max(float(pts.max() - pts.min()), 1.0)
    max_force = max(
        [float(np.linalg.norm(load.wrench.f)) for load in loads if hasattr(load, "wrench")]
        + [1.0]
    )
    arrow_scale = 0.25 * span / max_force
    for config in configs:
        for start, end in _load_arrows(design, config, loads, arrow_scale):
            elements.append(_polyline([start, end], "#ff7f0e", 0.8))
            all_points.extend([start, end])

    pts = np.array(all_points)
    lo = pts.min(axis=0) - 5.0
    hi = pts.max(axis=0) + 5.0
    view = (
        f"{_fmt(lo[0])} {_fmt(-hi[1])} {_fmt(hi[0] - lo[0])} {_fmt(hi[1] - lo[1])}"
    )
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n{body}\n</svg>\n'
    )
