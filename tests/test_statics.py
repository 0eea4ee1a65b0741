import numpy as np
import pytest

from rolljoint.catalog import polynomial_link_chain
from rolljoint.errors import DegenerateTendonError
from rolljoint.geometry import Pose2, Wrench2, coadjoint
from rolljoint.loads import ConstantWorkspace
from rolljoint.mechanism import Configuration, LinkDesign, MechanismDesign
from rolljoint.solver_tension import SolverOptions, solve_tension
from rolljoint.statics import (
    assemble_blocks,
    joint_geometry,
    residual,
    residual_norm,
)
from rolljoint.surface import CurvatureProfile


def symmetric_equilibrium(design, tau):
    """Straight stack carrying pure compression 2*tau through each contact."""
    joints = design.joint_count
    s = np.zeros(joints)
    f = np.tile([0.0, 2.0 * tau], (joints, 1))
    return Configuration.from_unknowns(design, s, f)


def test_symmetric_straight_configuration_balances(paper5):
    config = symmetric_equilibrium(paper5, 1.5)
    rows = residual(paper5, config, (1.5, 1.5))
    assert residual_norm(rows) < 1e-12


def test_solver_equilibrium_has_tiny_residual(paper5):
    config, _ = solve_tension(paper5, (3.0, 1.0))
    rows = residual(paper5, config, (3.0, 1.0))
    assert residual_norm(rows) < 1e-9


def test_moment_row_scaling(paper5):
    config = Configuration.from_unknowns(paper5, np.zeros(4) + 1.0, np.zeros((4, 2)))
    raw = residual(paper5, config, (2.0, 1.0), scaled=False)
    scaled = residual(paper5, config, (2.0, 1.0), scaled=True)
    np.testing.assert_allclose(
        scaled[:, 0], raw[:, 0] / paper5.characteristic_length, atol=1e-15
    )
    np.testing.assert_array_equal(scaled[:, 1:], raw[:, 1:])


def test_residual_locality_unloaded(paper5):
    config, _ = solve_tension(paper5, (3.0, 1.0), opts=SolverOptions(tol_residual=1e-12))
    s = config.s.copy()
    s[1] += 0.1   # joint 1 feeds only the balances of links 1 and 2
    bumped = Configuration.from_unknowns(paper5, s, config.f)
    rows = residual(paper5, bumped, (3.0, 1.0))
    assert np.abs(rows[0]).max() > 1e-4
    assert np.abs(rows[1]).max() > 1e-4
    assert np.abs(rows[2]).max() < 1e-10
    assert np.abs(rows[3]).max() < 1e-10


def test_residual_locality_with_loads_at_held_poses(paper5):
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.5, 0.0))),)
    config, _ = solve_tension(paper5, (6.0, 3.0), loads,
                              opts=SolverOptions(tol_residual=1e-12))
    s = config.s.copy()
    s[1] += 0.1
    # keep the stale poses: distal balances must then stay untouched
    frozen = Configuration(s, config.f, config.poses)
    rows = residual(paper5, frozen, (6.0, 3.0), loads)
    assert np.abs(rows[2]).max() < 1e-10
    assert np.abs(rows[3]).max() < 1e-10


def test_direction_derivatives_match_finite_differences(poly3, rng):
    worst = 0.0
    for _ in range(20):
        s = rng.uniform(-4, 4, poly3.joint_count)
        h = 1e-6
        for j in range(poly3.joint_count):
            geom = joint_geometry(poly3, j, s[j])
            up = joint_geometry(poly3, j, s[j] + h)
            dn = joint_geometry(poly3, j, s[j] - h)
            for seg, seg_up, seg_dn in ((geom.v, up.v, dn.v), (geom.w, up.w, dn.w)):
                fd = (seg_up.unit - seg_dn.unit) / (2 * h)
                worst = max(worst, np.abs(fd - seg.d_unit).max())
    assert worst < 1e-5


def test_direction_derivative_is_orthogonal_to_unit_vector(paper5, rng):
    # the projector (I - vv^T) annihilates the in-line component by construction
    for _ in range(10):
        s = rng.uniform(-6, 6, 4)
        config = Configuration.from_unknowns(paper5, s, np.zeros((4, 2)))
        for k in range(4):
            geom = joint_geometry(paper5, k, config.s[k])
            for seg in (geom.v, geom.w):
                assert np.abs(np.einsum("si,si->s", seg.unit, seg.d_unit)).max() < 1e-12


def test_equal_curvature_pair_has_zero_direction_derivative():
    shared = dict(s_min=-5.0, s_max=5.0)
    child = CurvatureProfile(Pose2(0.0, (0.0, 8.0)), (0.05,), **shared)
    parent = CurvatureProfile(Pose2(0.0, (0.0, -8.0)), (0.05,), **shared)
    links = (
        LinkDesign("a", None, child, (-7, -5), (7, -5), (-7, 5), (7, 5)),
        LinkDesign("b", parent, None, (-7, -5), (7, -5), (-7, 5), (7, 5)),
    )
    design = MechanismDesign(links, Pose2.identity())
    geom = joint_geometry(design, 0, 1.3)
    np.testing.assert_allclose(geom.v.d_unit, 0.0, atol=1e-14)
    np.testing.assert_allclose(geom.v.d_vec, 0.0, atol=1e-14)


def predicted_rows(design, blocks, ds, df):
    deltas = np.zeros((design.joint_count, 3))
    deltas[:, 0] = ds
    deltas[:, 1:] = df
    d_xi = np.zeros(3)
    out = np.zeros((design.n - 1, 3))
    for k in range(1, design.n):
        blk = blocks[k - 1]
        d_xi = -(blk.A @ d_xi) - blk.B @ deltas[k - 1]
        d_eta = blk.D @ deltas[k] if k <= design.n - 2 else np.zeros(3)
        out[k - 1] = blk.C @ d_xi + d_eta + blk.E @ deltas[k - 1]
    return out


def test_block_linearization_is_second_order(paper5, rng):
    tau = (4.0, 1.5)
    loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.4, -0.2))),)
    for _ in range(5):
        s = rng.uniform(-4, 4, 4)
        f = rng.uniform(-2, 2, (4, 2))
        config = Configuration.from_unknowns(paper5, s, f)
        blocks = assemble_blocks(paper5, config, tau, loads)
        base = residual(paper5, config, tau, loads, scaled=False)
        direction = rng.uniform(-1, 1, 12)
        direction /= np.linalg.norm(direction)
        defects = []
        for h in (1e-4, 5e-5):
            ds = h * direction[:4]
            df = h * direction[4:].reshape(4, 2)
            moved = Configuration.from_unknowns(paper5, s + ds, f + df)
            actual = residual(paper5, moved, tau, loads, scaled=False)
            predicted = base + predicted_rows(paper5, blocks, ds, df)
            defects.append(np.abs(actual - predicted).max())
        ratio = defects[0] / defects[1]
        assert 3.0 < ratio < 5.0  # halving the step shrinks the defect ~4x


def test_unloaded_c_blocks_vanish(paper5):
    config = Configuration.from_unknowns(paper5, np.zeros(4), np.zeros((4, 2)))
    for blk in assemble_blocks(paper5, config, (2.0, 1.0)):
        np.testing.assert_array_equal(blk.C, np.zeros((3, 3)))


def test_force_columns_match_contact_frames(paper5, rng):
    s = rng.uniform(-5, 5, 4)
    config = Configuration.from_unknowns(paper5, s, np.zeros((4, 2)))
    blocks = assemble_blocks(paper5, config, (2.0, 1.0))
    for k in range(1, 5):
        blk = blocks[k - 1]
        parent = paper5.links[k].parent_surface.frame_at(s[k - 1])
        np.testing.assert_allclose(blk.E[:, 1:], coadjoint(parent)[:, 1:], atol=1e-13)
        if k <= 3:
            child = paper5.links[k].child_surface.frame_at(s[k])
            np.testing.assert_allclose(blk.D[:, 1:], -coadjoint(child)[:, 1:], atol=1e-13)
        else:
            np.testing.assert_array_equal(blk.D, np.eye(3))


def test_tip_blocks_follow_tip_convention(paper5):
    config = Configuration.from_unknowns(paper5, np.zeros(4), np.zeros((4, 2)))
    tip = assemble_blocks(paper5, config, (1.0, 1.0))[-1]
    np.testing.assert_array_equal(tip.D, np.eye(3))
    # the tip has no child tendon pulls: F only carries the parent-side terms
    assert np.isfinite(tip.F).all()


def test_residual_affine_in_forces_and_tensions(paper5, rng):
    s = rng.uniform(-4, 4, 4)
    poses_cfg = Configuration.from_unknowns(paper5, s, np.zeros((4, 2)))

    def rows_at(f_scale, tau_scale):
        f = f_scale * np.tile([0.3, 1.0], (4, 1))
        config = Configuration(s, f, poses_cfg.poses)
        return residual(paper5, config, (2.0 * tau_scale, 1.0 * tau_scale))

    second_diff_f = rows_at(2.0, 1.0) - 2 * rows_at(1.0, 1.0) + rows_at(0.0, 1.0)
    second_diff_t = rows_at(1.0, 3.0) - 2 * rows_at(1.0, 2.0) + rows_at(1.0, 1.0)
    assert np.abs(second_diff_f).max() < 1e-12
    assert np.abs(second_diff_t).max() < 1e-12


def test_degenerate_tendon_guard():
    # both entry points on the contact apex: the gap segment has zero length
    design = polynomial_link_chain(2, channel_x=0.0, entry_inset=0.0)
    config = Configuration.from_unknowns(design, np.zeros(1), np.zeros((1, 2)))
    with pytest.raises(DegenerateTendonError):
        residual(design, config, (1.0, 1.0))
