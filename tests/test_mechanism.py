from dataclasses import replace

import numpy as np
import pytest

from rolljoint.catalog import demo_five_link, polynomial_link_chain, standard_link_chain
from rolljoint.errors import DegenerateTendonError
from rolljoint.geometry import Pose2
from rolljoint.mechanism import (
    Configuration,
    LinkDesign,
    MechanismDesign,
    evaluate,
    forward_poses,
    joint_geometry,
    tendon_lengths,
    tendon_segment_v,
    tendon_segment_w,
    validate,
)
from rolljoint.solver_tension import solve_tension
from rolljoint.surface import CircularArc, CurvatureProfile

from conftest import max_pose_error


def test_symmetric_two_link_midpoint_is_collinear(chain2):
    poses = forward_poses(chain2, [0.0])
    assert abs(poses[1].angle) < 1e-14
    np.testing.assert_allclose(poses[1].translation, [0.0, 20.0], atol=1e-14)


def flat_two_link():
    child = CurvatureProfile(Pose2(0.0, (0.0, 10.0)), (0.0,), -5.0, 5.0)
    parent = CurvatureProfile(Pose2(0.0, (0.0, -10.0)), (0.0,), -5.0, 5.0)
    links = (
        LinkDesign("a", None, child, (-8, -6), (8, -6), (-8, 6), (8, 6)),
        LinkDesign("b", parent, None, (-8, -6), (8, -6), (-8, 6), (8, 6)),
    )
    return MechanismDesign(links, Pose2.identity())


def test_flat_surfaces_relative_pose_is_rotation_free_and_affine_in_s():
    design = flat_two_link()
    samples = np.linspace(-4.0, 4.0, 9)
    translations = []
    for s in samples:
        poses = forward_poses(design, [s])
        assert abs(poses[1].angle) < 1e-10
        translations.append(poses[1].translation)
    translations = np.array(translations)
    # each coordinate fits a straight line in s (here with zero slope:
    # flat-on-flat no-slip rolling allows no relative motion at all)
    for col in range(2):
        coeffs = np.polyfit(samples, translations[:, col], 1)
        fit = np.polyval(coeffs, samples)
        assert np.abs(fit - translations[:, col]).max() < 1e-10
    assert np.abs(translations - translations[0]).max() < 1e-10


def test_five_link_equal_tension_stacks_straight(paper5):
    config, _ = solve_tension(paper5, (1.0, 1.0))
    for k, pose in enumerate(config.poses):
        assert abs(pose.angle) < 1e-10
        np.testing.assert_allclose(pose.translation, [0.0, 20.0 * k], atol=1e-9)


def test_pose_chain_incremental_consistency(paper5, rng):
    s = rng.uniform(-4, 4, paper5.joint_count)
    poses = forward_poses(paper5, s)
    s2 = s.copy()
    s2[1] += 0.37
    full = forward_poses(paper5, s2)
    # downstream recomputation from the unchanged prefix must agree exactly
    from rolljoint.mechanism import joint_relative_pose
    from rolljoint.geometry import compose
    partial = [poses[0], poses[1]]
    for j in range(1, paper5.joint_count):
        partial.append(compose(partial[j], joint_relative_pose(paper5, j, s2[j])))
    assert max_pose_error(full, partial) < 1e-12


@pytest.mark.parametrize("make", [
    demo_five_link,
    lambda: polynomial_link_chain(3),
    lambda: standard_link_chain(20),
], ids=["paper5", "poly3", "chain20"])
def test_evaluated_poses_equal_forward_poses(make):
    # chaining the geometry's relative poses is the per-joint pose chain,
    # bit for bit, and the carried geometry is the per-joint one
    design = make()
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = np.array([rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
                      for lo, hi in design.domains])
        f = rng.uniform(-2.0, 2.0, (design.joint_count, 2))
        config = evaluate(design, s, f)
        reference = forward_poses(design, s)
        assert len(config.poses) == len(reference) == design.n
        for pose, ref in zip(config.poses, reference):
            assert pose.angle == ref.angle
            assert np.array_equal(pose.translation, ref.translation)
        np.testing.assert_array_equal(config.s, s)
        np.testing.assert_array_equal(config.f, f)
        for j, geom in enumerate(config.geometry):
            again = joint_geometry(design, j, s[j])
            assert geom.relative.angle == again.relative.angle
            for side in ("l", "r"):
                assert np.array_equal(geom.v[side].vec, again.v[side].vec)
                assert np.array_equal(geom.w[side].d_unit, again.w[side].d_unit)
    with pytest.raises(ValueError):
        evaluate(design, np.zeros(design.joint_count + 1), np.zeros((design.joint_count + 1, 2)))


def test_straight_configuration_segments_are_vertical(paper5):
    config = Configuration.from_unknowns(paper5, np.zeros(4), np.zeros((4, 2)))
    for k in range(4):
        for side in ("l", "r"):
            seg = tendon_segment_v(paper5, config, k, side)
            assert abs(seg[0]) < 1e-12
            assert seg[1] > 0.0


def test_w_segment_is_reversed_v_segment(paper5, rng):
    s = rng.uniform(-5, 5, 4)
    config = Configuration.from_unknowns(paper5, s, np.zeros((4, 2)))
    for k in range(1, 5):
        for side in ("l", "r"):
            v_prev = tendon_segment_v(paper5, config, k - 1, side)
            w_here = tendon_segment_w(paper5, config, k, side)
            assert np.linalg.norm(w_here) == pytest.approx(np.linalg.norm(v_prev), abs=1e-12)
            # same physical segment: world expressions are opposite
            world_v = config.poses[k - 1].rotation @ v_prev
            world_w = config.poses[k].rotation @ w_here
            np.testing.assert_allclose(world_w, -world_v, atol=1e-12)


def test_segment_norm_matches_world_distance(paper5, rng):
    s = rng.uniform(-5, 5, 4)
    config = Configuration.from_unknowns(paper5, s, np.zeros((4, 2)))
    for k in range(4):
        for side in ("l", "r"):
            seg = tendon_segment_v(paper5, config, k, side)
            start = config.poses[k].apply(paper5.links[k].child_point(side))
            end = config.poses[k + 1].apply(paper5.links[k + 1].parent_point(side))
            assert np.linalg.norm(seg) == pytest.approx(np.linalg.norm(end - start), abs=1e-12)


def test_tendon_segments_index_bounds(paper5):
    config = Configuration.from_unknowns(paper5, np.zeros(4), np.zeros((4, 2)))
    # interior links have both segments; the base has no w, the tip no v
    assert tendon_segment_v(paper5, config, 2, "l").shape == (2,)
    assert tendon_segment_w(paper5, config, 2, "l").shape == (2,)
    assert tendon_segment_v(paper5, config, 0, "l").shape == (2,)
    assert tendon_segment_w(paper5, config, 4, "l").shape == (2,)
    for side in ("l", "r"):
        for k in (-1, 4):
            with pytest.raises(IndexError):
                tendon_segment_v(paper5, config, k, side)
        for k in (0, 5):
            with pytest.raises(IndexError):
                tendon_segment_w(paper5, config, k, side)


def test_two_link_length_is_direct_sum(chain2):
    config = Configuration.from_unknowns(chain2, [0.0], np.zeros((1, 2)))
    lengths = tendon_lengths(chain2, config)
    # two in-link spans of 12 plus one 8 mm gap
    np.testing.assert_allclose(lengths, [32.0, 32.0], atol=1e-12)


def test_symmetric_straight_lengths_equal(paper5):
    config = Configuration.from_unknowns(paper5, np.zeros(4), np.zeros((4, 2)))
    lengths = tendon_lengths(paper5, config)
    assert lengths[0] == pytest.approx(lengths[1], abs=1e-12)


def test_lengths_invariant_under_base_motion(paper5, rng):
    s = rng.uniform(-5, 5, 4)
    f = np.zeros((4, 2))
    base = tendon_lengths(paper5, Configuration.from_unknowns(paper5, s, f))
    moved_design = MechanismDesign(paper5.links, Pose2(0.7, (12.0, -30.0)))
    moved = tendon_lengths(moved_design, Configuration.from_unknowns(moved_design, s, f))
    np.testing.assert_allclose(moved, base, atol=1e-10)


def test_in_link_span_is_configuration_independent(paper5, rng):
    spans = []
    for _ in range(100):
        s = rng.uniform(-6, 6, 4)
        config = Configuration.from_unknowns(paper5, s, np.zeros((4, 2)))
        total = tendon_lengths(paper5, config)
        gaps = np.zeros(2)
        for idx, side in enumerate(("l", "r")):
            for k in range(4):
                gaps[idx] += np.linalg.norm(tendon_segment_v(paper5, config, k, side))
        spans.append(total - gaps)
    spans = np.array(spans)
    assert np.abs(spans - spans[0]).max() < 1e-12


def test_validate_passes_shipped_design(paper5):
    assert validate(paper5) == []


def test_validate_flags_domain_mismatch():
    design = standard_link_chain(3)
    bad_parent = CircularArc(
        center=(0.0, -2.0), radius=18.0, reference_angle=-np.pi / 2,
        orientation_sign=1, s_min=-9.0, s_max=5.0,
    )
    links = list(design.links)
    links[1] = LinkDesign(
        "bad", bad_parent, links[1].child_surface,
        links[1].p_l, links[1].p_r, links[1].c_l, links[1].c_r,
    )
    problems = validate(MechanismDesign(tuple(links), design.base_pose))
    assert any("width" in p for p in problems)


def test_validate_flags_single_link(chain2):
    lone = MechanismDesign((chain2.links[0],), Pose2.identity())
    assert any("at least 2" in p for p in validate(lone))


def test_validate_flags_missing_surfaces(chain2):
    links = (chain2.links[0], chain2.links[0])  # second link misses its parent
    problems = validate(MechanismDesign(links, Pose2.identity()))
    assert any("parent surface" in p for p in problems)


def test_forward_poses_rejects_out_of_domain(paper5):
    from rolljoint.errors import DomainError
    bad = np.zeros(4)
    bad[2] = 25.0
    with pytest.raises(DomainError):
        forward_poses(paper5, bad)
    with pytest.raises(ValueError):
        forward_poses(paper5, np.zeros(3))


def test_domains_array_matches_joint_domain(paper5, chain2):
    # unequal mating domains: the base's child surface spans [-30, 4] mm,
    # unlike the tip's parent surface, so the joint domain is their overlap
    wide = replace(chain2.links[0].child_surface, s_min=-30.0, s_max=4.0)
    uneven = MechanismDesign(
        (replace(chain2.links[0], child_surface=wide), chain2.links[1]),
        chain2.base_pose,
    )
    for design in (paper5, polynomial_link_chain(3), uneven):
        assert design.domains.shape == (design.joint_count, 2)
        for j in range(design.joint_count):
            assert tuple(design.domains[j]) == design.joint_domain(j)
        with pytest.raises(ValueError):
            design.domains[0, 0] = 0.0
    assert uneven.domains[0, 0] > wide.s_min and uneven.domains[0, 1] == 4.0


def test_degenerate_gap_raises_in_tendon_lengths():
    # both tendons run through the contact point, so every gap segment has
    # zero length at s = 0; the length sum used to report 40 mm there
    design = polynomial_link_chain(2, channel_x=0.0, entry_inset=0.0)
    config = Configuration.from_unknowns(design, np.zeros(1), np.zeros((1, 2)))
    with pytest.raises(DegenerateTendonError):
        tendon_lengths(design, config)
    with pytest.raises(DegenerateTendonError):
        tendon_segment_v(design, config, 0, "l")
    with pytest.raises(DegenerateTendonError):
        tendon_segment_w(design, config, 1, "l")
