"""Test-side oracles: dense assemblies that avoid the recursive elimination."""

import numpy as np

from rolljoint.statics import assemble_blocks


def dense_block_solve(blocks, columns):
    """The block system of `block_solve` solved whole with one dense LU, no
    forward elimination; same blocks, independent path.  `columns`
    (links, 3, width) are the right-hand sides of the balance rows, those of
    the pose-chain rows being zero; returns the joint updates
    (joints, 3, width).

    Unknowns: [xi_1..xi_{n-1} | eta_0..eta_{n-2}], each 3 wide.
    """
    joints = len(blocks)
    n = joints + 1
    dim = 6 * joints
    mat = np.zeros((dim, dim))
    rhs = np.zeros((dim, columns.shape[-1]))

    def xi_col(k):      # pose perturbation of link k, k in 1..n-1
        return 3 * (k - 1)

    def eta_col(j):     # joint unknowns of joint j, j in 0..n-2
        return 3 * joints + 3 * j

    for k in range(1, n):
        blk = blocks[k - 1]
        row1 = 6 * (k - 1)
        row2 = row1 + 3
        mat[row1:row1 + 3, xi_col(k):xi_col(k) + 3] += np.eye(3)
        if k >= 2:
            mat[row1:row1 + 3, xi_col(k - 1):xi_col(k - 1) + 3] += blk.A
        mat[row1:row1 + 3, eta_col(k - 1):eta_col(k - 1) + 3] += blk.B
        mat[row2:row2 + 3, xi_col(k):xi_col(k) + 3] += blk.C
        if k <= n - 2:
            mat[row2:row2 + 3, eta_col(k):eta_col(k) + 3] += blk.D
        mat[row2:row2 + 3, eta_col(k - 1):eta_col(k - 1) + 3] += blk.E
        rhs[row2:row2 + 3] = columns[k - 1]

    solution = np.linalg.solve(mat, rhs)
    return solution[3 * joints:].reshape(joints, 3, -1)


def dense_newton_step(design, config, tau, loads=()):
    """Newton update (ds, df): column 0 of `dense_block_solve` with the
    balance rows -h of the assembled blocks."""
    blocks = assemble_blocks(design, config, tau, loads)
    etas = dense_block_solve(blocks, -blocks.h[:, :, None])[:, :, 0]
    return etas[:, 0], etas[:, 1:]


def reference_render_svg(design, configs, loads=()):
    """The per-point renderer: every body and tendon entry point mapped by
    its own `Pose2.apply`, every coordinate formatted on its own; the
    reference that `render.render_svg` reproduces byte for byte."""
    from rolljoint.mechanism import SIDES
    from rolljoint.render import _POSE_COLORS, _SURFACE_SAMPLES, _load_arrows

    def fmt(value):
        return f"{value:.12g}"

    def polyline(points, stroke, width=0.5, dash=""):
        coords = " ".join(f"{fmt(p[0])},{fmt(-p[1])}" for p in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
                f'stroke-width="{fmt(width)}"{extra}/>')

    outlines = []
    for link in design.links:
        curves = [[link.p_l, link.p_r, link.c_r, link.c_l, link.p_l]]
        for surf in (link.parent_surface, link.child_surface):
            if surf is None:
                continue
            samples = np.linspace(surf.s_min, surf.s_max, _SURFACE_SAMPLES)
            curves.append([surf.frame_at(s).translation for s in samples])
        outlines.append(curves)

    configs = list(configs)
    elements = []
    all_points = []
    for idx, config in enumerate(configs):
        color = _POSE_COLORS[idx % len(_POSE_COLORS)]
        for pose, body_curves in zip(config.poses, outlines):
            for body_curve in body_curves:
                curve = [pose.apply(p) for p in body_curve]
                elements.append(polyline(curve, color, 0.4))
                all_points.extend(curve)
        for side in range(len(SIDES)):
            pts = []
            for pose, link in zip(config.poses, design.links):
                pts.append(pose.apply(link.parent_points[side]))
                pts.append(pose.apply(link.child_points[side]))
            elements.append(polyline(pts, "#555555", 0.3, dash="1,1"))
            all_points.extend(pts)

    pts = np.array(all_points)
    span = max(float(pts.max() - pts.min()), 1.0)
    max_force = max(
        [float(np.linalg.norm(load.wrench.f))
         for config_loads in loads for load in config_loads if hasattr(load, "wrench")]
        + [1.0]
    )
    arrow_scale = 0.25 * span / max_force
    for config, config_loads in zip(configs, loads):
        for start, end in _load_arrows(design, config, config_loads, arrow_scale):
            elements.append(polyline([start, end], "#ff7f0e", 0.8))
            all_points.extend([start, end])

    pts = np.array(all_points)
    lo = pts.min(axis=0) - 5.0
    hi = pts.max(axis=0) + 5.0
    view = f"{fmt(lo[0])} {fmt(-hi[1])} {fmt(hi[0] - lo[0])} {fmt(hi[1] - lo[1])}"
    body = "\n".join(elements)
    return f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n{body}\n</svg>\n'
