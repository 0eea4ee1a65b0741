"""Ready-made mechanism designs.

All builders produce upright chains: each link spans one `pitch` vertically
in its own frame, with the parent contact apex at the bottom, the child
contact apex at the top and tendon channels at x = +-channel_x.  At equal
tensions and no load the straight stack (all s = 0) is the symmetric
equilibrium.  Both chain families share one link layout, `_chain`.
"""

from __future__ import annotations

import math

from .geometry import Pose2
from .mechanism import LinkDesign, MechanismDesign
from .surface import CircularArc, CurvatureProfile


def _arc(pitch: float, radius: float, half_domain: float, side: int) -> CircularArc:
    # side +1: convex top (child) surface, frame x tangent pointing +x at the apex;
    # side -1: the bottom (parent) one, same at contact; centre y is +0.0 at radius = pitch/2
    return CircularArc(
        center=(0.0, side * pitch / 2.0 - side * radius),
        radius=radius,
        reference_angle=side * math.pi / 2.0,
        orientation_sign=-side,
        s_min=-half_domain,
        s_max=half_domain,
    )


def _chain(surfaces, channel_x: float, entry_y: float, base_pose: Pose2 | None) -> MechanismDesign:
    """One link per (parent, child) surface pair, named link1, link2, ...;
    tendons enter at (+-channel_x, -entry_y) below and (+-channel_x, entry_y) above."""
    if len(surfaces) < 2:
        raise ValueError("a mechanism needs at least two links")
    links = tuple(
        LinkDesign(
            name=f"link{k + 1}",
            parent_surface=parent,
            child_surface=child,
            p_l=(-channel_x, -entry_y),
            p_r=(channel_x, -entry_y),
            c_l=(-channel_x, entry_y),
            c_r=(channel_x, entry_y),
        )
        for k, (parent, child) in enumerate(surfaces)
    )
    return MechanismDesign(links, base_pose or Pose2.identity())


def standard_link_chain(
    n: int = 5,
    pitch: float = 20.0,
    channel_x: float = 10.0,
    entry_inset: float = 4.0,
    joint_radii: list[tuple[float, float]] | None = None,
    half_domain: float = 9.0,
    base_pose: Pose2 | None = None,
) -> MechanismDesign:
    """Chain of n links with circular rolling surfaces.

    `joint_radii[j]` gives (child radius of link j, parent radius of link
    j+1); defaults to 18 mm everywhere.  `entry_inset` keeps the tendon
    entry points away from the contact apex so the inter-link gap segments
    stay open across the working bend range.
    """
    if joint_radii is None:
        joint_radii = [(18.0, 18.0)] * (n - 1)
    elif n > 1 and len(joint_radii) != n - 1:   # fewer links raise in _chain
        raise ValueError("need one radius pair per joint")
    surfaces = [
        (None if k == 0 else _arc(pitch, joint_radii[k - 1][1], half_domain, -1),
         None if k == n - 1 else _arc(pitch, joint_radii[k][0], half_domain, 1))
        for k in range(n)
    ]
    return _chain(surfaces, channel_x, pitch / 2.0 - entry_inset, base_pose)


def polynomial_link_chain(
    n: int = 3,
    pitch: float = 20.0,
    channel_x: float = 10.0,
    entry_inset: float = 4.0,
    half_domain: float = 8.0,
    child_coeffs=(-1.0 / 18.0, 0.002),
    parent_coeffs=(1.0 / 17.0, 0.0, -2e-4),
    base_pose: Pose2 | None = None,
) -> MechanismDesign:
    """Chain with polynomial-curvature rolling surfaces (general shapes);
    every joint shares one child and one parent profile."""
    child, parent = (
        CurvatureProfile(
            reference_frame=Pose2(0.0, (0.0, side * pitch / 2.0)),
            curvature_coeffs=coeffs,
            s_min=-half_domain,
            s_max=half_domain,
        )
        for side, coeffs in ((1, child_coeffs), (-1, parent_coeffs))
    )
    surfaces = [(None if k == 0 else parent, None if k == n - 1 else child) for k in range(n)]
    return _chain(surfaces, channel_x, pitch / 2.0 - entry_inset, base_pose)


def demo_five_link() -> MechanismDesign:
    """The five-link demonstration mechanism (20 mm pitch, 30 mm wide links,
    mildly varied joint radii); shipped as designs/paper5.json."""
    return standard_link_chain(
        n=5,
        pitch=20.0,
        channel_x=10.0,
        entry_inset=4.0,
        joint_radii=[(18.0, 17.0), (16.0, 19.0), (19.0, 16.0), (17.0, 18.0)],
        half_domain=9.0,
    )
