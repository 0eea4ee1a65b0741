import bisect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from rolljoint.catalog import polynomial_link_chain, standard_link_chain
from rolljoint.errors import DomainError
from rolljoint.geometry import Pose2, Twist2, compose, exp_twist
from rolljoint.mechanism import forward_poses, pose_difference
from rolljoint.surface import (
    PROFILE_STEPS, CircularArc, ContactSurface, CurvatureProfile, SurfaceStack,
)


def make_arc(radius=10.0, sign=1, half=5.0):
    return CircularArc(
        center=(2.0, -3.0),
        radius=radius,
        reference_angle=0.3,
        orientation_sign=sign,
        s_min=-half,
        s_max=half,
    )


def make_profile(coeffs=(0.02, 0.003, -4e-4), half=6.0):
    return CurvatureProfile(
        reference_frame=Pose2(0.2, (1.0, -2.0)),
        curvature_coeffs=coeffs,
        s_min=-half,
        s_max=half,
    )


def arc_length_twist(surf, s):
    """Body twist of the surface frame per unit arc length at s."""
    return Twist2(surf.curvature_at(s), (1.0, 0.0))


def stacked_lookup(surf, s):
    """One surface looked up through a `SurfaceStack`: (angle, translation,
    curvature)."""
    angle, translation, curvature = SurfaceStack([surf]).frames_at(np.array([float(s)]))
    return angle[0], translation[0], curvature[0]


def closed_form_arc(arc, s):
    """(angle, x, y, curvature) of a circular arc at s, written out in plain
    floats with the math module's cosine and sine."""
    phi = arc.reference_angle + arc.orientation_sign * s / arc.radius
    return (phi + arc.orientation_sign * math.pi / 2.0,
            arc.center[0] + arc.radius * math.cos(phi),
            arc.center[1] + arc.radius * math.sin(phi),
            arc.orientation_sign / arc.radius)


def reference_lookup(surf, s):
    """(angle, x, y, curvature) of surf at s clamped into its domain, from
    formulas written here: an arc's closed form, or one plain-float RK4 step
    from the last profile grid node at or below s (no step on a node), or
    from the first node, which the running sums may leave just above s_min."""
    s = min(max(s, surf.s_min), surf.s_max)
    if isinstance(surf, CircularArc):
        return closed_form_arc(surf, s)
    coeffs = surf.curvature_coeffs.tolist()
    nodes = surf._grid[0].tolist()
    idx = max(bisect.bisect_right(nodes, s) - 1, 0)
    state = surf._grid[1][:, idx].tolist()
    if s != nodes[idx]:
        state = plain_rk4_step(nodes[idx], state, s - nodes[idx], coeffs)
    return (*state, float(polyval(s, coeffs)))


def assert_matches_reference(surf, s, angle, translation, curvature):
    # bit for bit: numpy's float64 cosine and sine round as the math
    # module's do, which the profile grid tests below rely on too
    assert (angle, *translation, curvature) == reference_lookup(surf, s)


def test_arc_reference_frame():
    arc = make_arc()
    frame = arc.frame_at(0.0)
    np.testing.assert_allclose(
        frame.translation,
        [2.0 + 10 * math.cos(0.3), -3.0 + 10 * math.sin(0.3)],
        atol=1e-14,
    )
    assert abs(frame.angle - (0.3 + math.pi / 2)) < 1e-14


def test_arc_angle_advances_with_arc_length():
    arc = make_arc(radius=10.0, sign=1)
    for s in (-4.0, 1.5, 3.2):
        assert abs((arc.frame_at(s).angle - arc.frame_at(0.0).angle) - s / 10.0) < 1e-13


def test_arc_curvature():
    assert make_arc(radius=10.0, sign=1).curvature_at(2.0) == pytest.approx(0.1)
    assert make_arc(radius=10.0, sign=-1).curvature_at(2.0) == pytest.approx(-0.1)


def test_arc_sixty_degree_domain():
    span = 10.0 * math.pi / 3.0
    arc = CircularArc(
        center=(0, 0), radius=10.0, reference_angle=0.0,
        orientation_sign=1, s_min=0.0, s_max=span,
    )
    assert arc.domain == (0.0, span)
    assert arc.width == pytest.approx(span)


def test_straight_profile_is_translation():
    prof = CurvatureProfile(
        reference_frame=Pose2(0.0, (0.0, 10.0)),
        curvature_coeffs=(0.0,),
        s_min=-5.0,
        s_max=5.0,
    )
    for s in (-4.0, 0.0, 2.5):
        frame = prof.frame_at(s)
        assert abs(frame.angle) < 1e-12
        np.testing.assert_allclose(frame.translation, [s, 10.0], atol=1e-10)
    assert prof.curvature_at(1.0) == 0.0


def test_domain_error_and_slack():
    arc = make_arc(half=5.0)
    with pytest.raises(DomainError):
        arc.frame_at(5.1)
    with pytest.raises(DomainError):
        arc.curvature_at(-5.0001)
    # boundary noise within the slack is absorbed
    arc.frame_at(5.0 + 1e-10 * arc.width)
    # the stacked lookup checks and clamps the same way
    for surf in (arc, make_profile(half=5.0)):
        for s in (5.1, -5.0001):
            with pytest.raises(DomainError) as scalar:
                surf.frame_at(s)
            with pytest.raises(DomainError, match=re.escape(str(scalar.value))):
                stacked_lookup(surf, s)
        edge = 5.0 + 1e-10 * surf.width
        assert_matches_reference(surf, edge, *stacked_lookup(surf, edge))


@pytest.mark.parametrize("surf", [make_arc(sign=-1), make_profile()], ids=["arc", "profile"])
def test_nan_arc_length_is_outside_every_domain(surf):
    with pytest.raises(DomainError, match="arc length nan outside"):
        surf.frame_at(math.nan)
    with pytest.raises(DomainError, match="arc length nan outside"):
        surf.curvature_at(math.nan)
    with pytest.raises(DomainError, match=re.escape(f"of {surf.kind}")):
        SurfaceStack([surf, surf]).frames_at(np.array([0.0, math.nan]))


@pytest.mark.parametrize("design", [standard_link_chain(5), polynomial_link_chain(3)],
                         ids=["arc", "profile"])
def test_forward_poses_refuse_a_nan_arc_length(design):
    s = np.zeros(design.joint_count)
    s[-1] = math.nan
    with pytest.raises(DomainError, match="arc length nan outside"):
        forward_poses(design, s)


def test_profile_matches_curvature_polynomial():
    prof = make_profile()
    coeffs = np.array(prof.curvature_coeffs)
    for s in (-5.0, -1.0, 0.0, 3.3):
        expected = coeffs[0] + coeffs[1] * s + coeffs[2] * s * s
        assert prof.curvature_at(s) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("surf", [make_arc(sign=-1), make_profile()], ids=["arc", "profile"])
def test_unit_speed(surf):
    h = 1e-6
    lo, hi = surf.domain
    for s in np.linspace(lo + 0.05 * surf.width, hi - 0.05 * surf.width, 25):
        vel = (surf.frame_at(s + h).translation - surf.frame_at(s - h).translation) / (2 * h)
        assert abs(np.linalg.norm(vel) - 1.0) < 1e-6


def test_arc_length_ode_second_order_on_profile():
    surf = make_profile()
    ratios = []
    for s in np.linspace(-5.0, 5.0, 9):
        errs = []
        for h in (1e-3, 1e-4):
            stepped = surf.frame_at(s + h)
            predicted = compose(surf.frame_at(s), exp_twist(arc_length_twist(surf, s), h))
            errs.append(max(pose_difference(stepped, predicted)))
        if errs[0] < 1e-11:
            continue  # the leading error term vanishes where u'(s) = 0
        ratios.append(errs[0] / errs[1])
    ratios = np.array(ratios)
    assert len(ratios) >= 6
    assert np.all(ratios > 80.0) and np.all(ratios < 120.0)


def test_arc_length_ode_exact_on_circles():
    # constant twist: the one-step exponential is the exact propagator
    surf = make_arc(radius=7.0, sign=-1)
    for s in (-3.0, 0.5, 4.0):
        stepped = surf.frame_at(s + 1e-3)
        predicted = compose(surf.frame_at(s), exp_twist(arc_length_twist(surf, s), 1e-3))
        assert max(pose_difference(stepped, predicted)) < 1e-12


def test_bad_surface_parameters_rejected():
    with pytest.raises(ValueError):
        CircularArc(center=(0, 0), radius=0.0, reference_angle=0.0,
                    orientation_sign=1, s_min=0.0, s_max=1.0)
    with pytest.raises(ValueError):
        CircularArc(center=(0, 0), radius=1.0, reference_angle=0.0,
                    orientation_sign=2, s_min=0.0, s_max=1.0)
    with pytest.raises(ValueError):
        make_profile(half=-1.0)
    for coeffs in ([], [[0.02, 0.003]]):
        with pytest.raises(ValueError, match="coefficients"):
            make_profile(coeffs)


@pytest.mark.parametrize("params", [
    dict(radius=math.nan),
    dict(radius=math.inf),
    dict(center=(math.nan, 0.0)),
    dict(center=(0.0, math.inf)),
    dict(reference_angle=math.nan),
    dict(s_max=math.inf),
    dict(s_min=math.nan),
], ids=["nan_radius", "inf_radius", "nan_center", "inf_center", "nan_angle",
        "inf_domain", "nan_domain"])
def test_non_finite_arc_parameters_rejected(params):
    arc = dict(center=(0.0, 0.0), radius=1.0, reference_angle=0.0,
               orientation_sign=1, s_min=0.0, s_max=1.0)
    with pytest.raises(ValueError):
        CircularArc(**{**arc, **params})


@pytest.mark.parametrize("params", [
    dict(curvature_coeffs=(0.02, math.nan)),
    dict(reference_frame=Pose2(math.nan, (0.0, 0.0))),
    dict(reference_frame=Pose2(0.0, (math.inf, 0.0))),
    dict(s_max=math.inf),
], ids=["nan_coeff", "nan_angle", "inf_translation", "inf_domain"])
def test_non_finite_profile_parameters_rejected(params):
    profile = dict(reference_frame=Pose2(0.0, (0.0, 0.0)), curvature_coeffs=(0.02,),
                   s_min=-1.0, s_max=1.0)
    with pytest.raises(ValueError):
        CurvatureProfile(**{**profile, **params})


def plain_rk4_step(s, state, h, coeffs):
    """One classical RK4 step of (theta, x, y)' = (u(s), cos theta, sin theta)
    in plain floats with the math module's cosine and sine, each component
    state + h/6 (k1 + 2 k2 + 2 k3 + k4) summed left to right."""
    def rhs(s, state):
        return float(polyval(s, coeffs)), math.cos(state[0]), math.sin(state[0])

    half = 0.5 * h
    k1 = rhs(s, state)
    k2 = rhs(s + half, [v + half * k for v, k in zip(state, k1)])
    k3 = rhs(s + half, [v + half * k for v, k in zip(state, k2)])
    k4 = rhs(s + h, [v + h * k for v, k in zip(state, k3)])
    return tuple(v + h / 6.0 * (((a + 2.0 * b) + 2.0 * c) + d)
                 for v, a, b, c, d in zip(state, k1, k2, k3, k4))


def stepped_grid(profile):
    """The profile's grid stepped node by node from the reference frame at
    0 to each end of the integration hull: ascending nodes and their
    (theta, x, y)."""
    coeffs = profile.curvature_coeffs.tolist()
    h_max = profile.width / PROFILE_STEPS
    start = (profile.reference_frame.angle, *profile.reference_frame.translation.tolist())
    grid = [(0.0, start)]
    for bound, direction in ((max(0.0, profile.s_max), 1.0), (min(0.0, profile.s_min), -1.0)):
        span = abs(bound)
        if span == 0.0:
            continue
        count = max(1, math.ceil(span / h_max))
        h = direction * span / count
        s, state = 0.0, start
        for _ in range(count):
            state = plain_rk4_step(s, state, h, coeffs)
            s += h
            grid.append((s, state))
    grid.sort()
    return [node for node, _ in grid], [state for _, state in grid]


def assert_grid_is_stepped(profile):
    # node for node and bit for bit
    nodes, states = stepped_grid(profile)
    assert profile._grid[0].tolist() == nodes
    assert profile._grid[1].T.tolist() == [list(state) for state in states]


def test_profile_frames_follow_the_array_rk4_step():
    # a frame is one RK4 step from the last grid node at or below s
    coeffs = (0.02, 0.003, -4e-4)
    surf = make_profile(coeffs)
    grid_s, grid_states = surf._grid
    rng = np.random.default_rng(4)
    for s in rng.uniform(-6.0, 6.0, 50).tolist():
        idx = max(i for i, node in enumerate(grid_s) if node <= s)
        s0 = float(grid_s[idx])
        expected = plain_rk4_step(s0, grid_states[:, idx].tolist(), s - s0, coeffs)
        frame = surf.frame_at(s)
        assert (frame.angle, *frame.translation.tolist()) == expected
        assert surf.curvature_at(s) == polyval(s, coeffs)


CATALOG_SURFACES = {
    "arc_child": standard_link_chain(2).links[0].child_surface,
    "arc_parent": standard_link_chain(2).links[1].parent_surface,
    "arc_clockwise": make_arc(sign=-1),
    "profile_child": polynomial_link_chain(2).links[0].child_surface,
    "profile_parent": polynomial_link_chain(2).links[1].parent_surface,
    "profile_cubic": make_profile(coeffs=(0.02, 0.003, -4e-4, 1e-5)),
}


@pytest.mark.parametrize("name", [name for name, surf in CATALOG_SURFACES.items()
                                  if isinstance(surf, CurvatureProfile)])
def test_catalog_profile_grids_are_stepped_node_by_node(name):
    assert_grid_is_stepped(CATALOG_SURFACES[name])


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(coeffs=st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=4),
       scale=st.floats(1e-4, 1.0), width=st.floats(0.5, 20.0), below_zero=st.floats(-0.5, 1.5),
       angle=st.floats(-3.0, 3.0), offset=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)))
# one-sided integration hulls (s_min >= 0, s_max <= 0), with a nonzero
# reference angle and offset
@example(coeffs=[0.03, -0.002], scale=1.0, width=7.0, below_zero=0.0, angle=0.7, offset=(4.0, -2.0))
@example(coeffs=[-0.01, 0.004, 1e-4], scale=1.0, width=6.0, below_zero=-0.4, angle=-1.2,
         offset=(-3.0, 5.0))
@example(coeffs=[0.05], scale=1.0, width=8.0, below_zero=1.0, angle=2.0, offset=(1.0, 1.0))
@example(coeffs=[0.02, 0.0, -3e-4, 1e-5], scale=1.0, width=4.0, below_zero=1.5, angle=-0.4,
         offset=(0.5, 9.0))
def test_profile_grids_are_stepped_node_by_node(coeffs, scale, width, below_zero, angle, offset):
    # the domain is [-below_zero, 1 - below_zero] * width, so the hull stays
    # within 1.5 widths; coefficient j is scaled by scale**j, so the higher
    # powers stay moderate over it
    profile = CurvatureProfile(
        reference_frame=Pose2(angle, offset),
        curvature_coeffs=[c * scale**j for j, c in enumerate(coeffs)],
        s_min=-below_zero * width, s_max=(1.0 - below_zero) * width)
    assert_grid_is_stepped(profile)


def _lookup_samples(surf, rng):
    """Interior points, profile grid nodes (the step-free branch), both
    domain ends and both ends of the slack."""
    lo, hi = surf.domain
    slack = 0.5e-9 * surf.width
    samples = [*rng.uniform(lo, hi, 8), lo, hi, lo - slack, hi + slack]
    if isinstance(surf, CurvatureProfile):
        nodes = [node for node in surf._grid[0] if lo <= node <= hi]
        samples += nodes[::97] + [0.0]
    return samples


def test_stacked_lookup_matches_scalar_frames():
    # one stack over every catalog surface kind, mixed and repeated as in a
    # chain, and each surface's own frame_at and curvature_at, against the
    # plain-float reference frames
    surfaces = list(CATALOG_SURFACES.values()) * 2
    rng = np.random.default_rng(8)
    samples = [_lookup_samples(surf, rng) for surf in surfaces]
    stack = SurfaceStack(surfaces)
    for k in range(max(len(column) for column in samples)):
        s = np.array([column[k % len(column)] for column in samples])
        angle, translation, curvature = stack.frames_at(s)
        for i, surf in enumerate(surfaces):
            assert_matches_reference(surf, s[i], angle[i], translation[i], curvature[i])
            frame = surf.frame_at(s[i])
            assert_matches_reference(surf, s[i], frame.angle, frame.translation,
                                     surf.curvature_at(s[i]))
    # at a grid node both take the stored state, with no step and no cosine
    profiles = [surf for surf in surfaces if isinstance(surf, CurvatureProfile)]
    for k in range(12):
        s = np.array([surf._grid[0][k * (len(surf._grid[0]) // 12)] for surf in profiles])
        angle, translation, _ = SurfaceStack(profiles).frames_at(s)
        for i, surf in enumerate(profiles):
            frame = surf.frame_at(s[i])
            assert angle[i] == frame.angle and np.array_equal(translation[i], frame.translation)


def test_stacked_lookup_names_the_first_surface_out_of_its_domain():
    surfaces = list(CATALOG_SURFACES.values())
    inside = np.array([surf.s_min + 0.5 * surf.width for surf in surfaces])
    for i, surf in enumerate(surfaces):
        s = inside.copy()
        s[i:] = [other.s_max + 2e-9 * other.width for other in surfaces[i:]]
        with pytest.raises(DomainError) as scalar:
            surf.frame_at(s[i])
        with pytest.raises(DomainError, match=re.escape(str(scalar.value))):
            SurfaceStack(surfaces).frames_at(s)


def seeded_arc(rng, sign):
    s_min = rng.uniform(-20.0, 5.0)
    return CircularArc(center=rng.uniform(-30.0, 30.0, 2), radius=rng.uniform(1.0, 60.0),
                       reference_angle=rng.uniform(-4.0, 4.0), orientation_sign=sign,
                       s_min=s_min, s_max=s_min + rng.uniform(0.5, 25.0))


def test_arc_frames_follow_the_closed_form():
    # the catalog arcs and seeded arcs of both orientations, through
    # frame_at, curvature_at and one stack of all of them
    rng = np.random.default_rng(33)
    arcs = [surf for surf in CATALOG_SURFACES.values() if isinstance(surf, CircularArc)]
    arcs += [seeded_arc(rng, sign) for sign in (1, -1) for _ in range(20)]
    samples = [_lookup_samples(arc, rng) for arc in arcs]
    stack = SurfaceStack(arcs)
    for k in range(len(samples[0])):
        s = np.array([column[k] for column in samples])
        angle, translation, curvature = stack.frames_at(s)
        for i, arc in enumerate(arcs):
            expected = closed_form_arc(arc, min(max(s[i], arc.s_min), arc.s_max))
            frame = arc.frame_at(s[i])
            assert (angle[i], *translation[i], curvature[i]) == expected
            assert (frame.angle, *frame.translation, arc.curvature_at(s[i])) == expected


def test_a_kind_is_looked_up_through_its_own_array_stack():
    # a subclass of a kind inherits the kind's array lookup, and is stacked
    # with the kind's other surfaces in one pass
    class OwnArc(CircularArc):
        pass

    arc = make_arc(sign=-1)
    own = OwnArc(**{name: getattr(arc, name) for name in (
        "center", "radius", "reference_angle", "orientation_sign", "s_min", "s_max")})
    stack = SurfaceStack([own, arc, own])
    assert len(stack.kinds) == 1 and own.stack_type is arc.stack_type
    s = np.array([-4.0, 1.5, 5.0 + 1e-10 * arc.width])
    angle, translation, curvature = stack.frames_at(s)
    for i, surf in enumerate((own, arc, own)):
        assert_matches_reference(surf, s[i], angle[i], translation[i], curvature[i])

    # a kind with no array lookup is refused when constructed
    class Unstacked(ContactSurface):
        kind = "unstacked"
        s_min, s_max = -1.0, 1.0

    with pytest.raises(TypeError, match="stack_type"):
        Unstacked()
