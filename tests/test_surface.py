import math

import numpy as np
import pytest

from rolljoint.errors import DomainError
from rolljoint.geometry import Pose2, Twist2, compose, exp_twist
from rolljoint.mechanism import pose_difference
from rolljoint.surface import CircularArc, CurvatureProfile


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


def test_profile_frames_follow_the_array_rk4_step():
    # the plain-float integrator keeps the operation order of the array
    # form it replaced: one RK4 step of the same ODE in numpy arrays
    coeffs = (0.02, 0.003, -4e-4)
    surf = make_profile(coeffs)

    def rhs(s, state):
        return np.array([np.polynomial.polynomial.polyval(s, coeffs),
                         math.cos(state[0]), math.sin(state[0])])

    grid_s, grid_states = surf._grid
    rng = np.random.default_rng(4)
    for s in rng.uniform(-6.0, 6.0, 50):
        idx = max(i for i, node in enumerate(grid_s) if node <= s)
        s0, state = grid_s[idx], np.array(grid_states[idx])
        h = s - s0
        k1 = rhs(s0, state)
        k2 = rhs(s0 + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(s0 + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(s0 + h, state + h * k3)
        expected = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frame = surf.frame_at(float(s))
        assert frame.angle == expected[0]
        assert np.array_equal(frame.translation, expected[1:])
        assert surf.curvature_at(float(s)) == np.polynomial.polynomial.polyval(s, coeffs)
