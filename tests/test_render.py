"""The stacked renderer against the per-point reference of tests/helpers.py:
byte-identical SVG text."""

from pathlib import Path

import numpy as np
import pytest

from rolljoint import cli
from rolljoint.fileio import load_design, load_scenario
from rolljoint.geometry import Wrench2
from rolljoint.loads import ConstantBody, ConstantWorkspace, LinearSpring
from rolljoint.render import _world_points, render_svg
from rolljoint.solver_tension import solve_tension

from helpers import reference_render_svg

ROOT = Path(__file__).resolve().parents[1] / "src" / "rolljoint"
DESIGN = ROOT / "designs" / "paper5.json"
SCENARIOS = sorted(path.name for path in (ROOT / "scenarios").glob("*.json")
                   if not path.name.startswith("sweep"))
SWEEPS = [("tension_31.json", "sweep_fig3.json"), ("tension_63_pull.json", "sweep_pull.json")]


def test_world_points_map_as_pose_apply(paper5, rng):
    # the stacked R p + t is bit-identical to each point's own Pose2.apply
    configs = [solve_tension(paper5, tau)[0] for tau in ((3.0, 1.0), (1.0, 2.5))]
    points = rng.uniform(-30.0, 30.0, (200, 2))
    owners = rng.integers(0, paper5.n, 200)
    world = _world_points(configs, points, owners)
    for config, mapped in zip(configs, world):
        expected = np.array([config.poses[k].apply(p) for k, p in zip(owners, points)])
        assert np.array_equal(mapped, expected)


@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_scenario_svg_matches_reference(name):
    design = load_design(DESIGN)
    scenario = load_scenario(ROOT / "scenarios" / name)
    config, *_ = cli._solve_scenario(design, scenario)
    assert render_svg(design, [config], scenario.loads) == reference_render_svg(
        design, [config], scenario.loads)


@pytest.mark.parametrize("scenario, sweep", SWEEPS, ids=[s for _, s in SWEEPS])
def test_shipped_sweep_svg_matches_reference(tmp_path, monkeypatch, scenario, sweep):
    rendered = []

    def recorded(design, configs, loads=()):
        rendered.append((design, configs, loads))
        return render_svg(design, configs, loads)

    monkeypatch.setattr(cli, "render_svg", recorded)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--design", str(DESIGN),
                     "--scenario", str(ROOT / "scenarios" / scenario),
                     "--sweep", str(ROOT / "scenarios" / sweep),
                     "--out", str(out), "--svg"]) == 0
    [(design, configs, loads)] = rendered
    assert len(configs) > 1
    assert (out / "sweep.svg").read_text() == reference_render_svg(design, configs, loads)


def test_loaded_six_configuration_svg_matches_reference(paper5):
    configs = []
    for k in range(6):
        loads = (ConstantWorkspace(target_link=5, wrench=Wrench2(0.0, (0.25 * k, 0.0)),
                                   attach=(1.0, -2.0)),)
        configs.append(solve_tension(paper5, (6.0, 3.0), loads)[0])
    svg = render_svg(paper5, configs, loads)
    assert svg.count('stroke="#ff7f0e"') == 6
    assert svg == reference_render_svg(paper5, configs, loads)


def test_profile_chain_svg_matches_reference(poly3):
    configs = [solve_tension(poly3, tau)[0] for tau in ((2.0, 1.0), (1.0, 1.0), (1.0, 2.0))]
    assert render_svg(poly3, configs) == reference_render_svg(poly3, configs)


def _polylines(svg, stroke):
    """World points (m, 2) of each polyline drawn with `stroke`."""
    lines = []
    for line in svg.splitlines():
        if f'stroke="{stroke}"' in line:
            coords = line.split('points="')[1].split('"')[0].split()
            lines.append(np.array([[float(v) for v in c.split(",")] for c in coords]) * (1, -1))
    return lines


def test_spring_and_body_load_arrows(paper5):
    # a spring's arrow starts at its link's origin along -k (t - anchor), a
    # body load's along its force turned into the world; both are scaled by
    # a quarter of the drawing's span per unit of the largest load force
    loads = (LinearSpring(target_link=3, stiffness=0.05, anchor=(20.0, 60.0)),
             ConstantBody(target_link=5, wrench=Wrench2(0.0, (0.5, -2.0))))
    configs = [solve_tension(paper5, tau, loads)[0] for tau in ((3.0, 1.0), (1.0, 2.0))]
    svg = render_svg(paper5, configs, loads)
    arrows = _polylines(svg, "#ff7f0e")
    drawn = np.concatenate([line for stroke in ("#1f77b4", "#d62728", "#555555")
                            for line in _polylines(svg, stroke)])
    scale = 0.25 * (drawn.max() - drawn.min()) / np.linalg.norm((0.5, -2.0))
    expected = []
    for config in configs:
        spring, body = config.poses[2], config.poses[4]
        pull = -0.05 * (spring.translation - (20.0, 60.0))
        force = body.rotation @ (0.5, -2.0)
        expected += [[spring.translation, spring.translation + scale * pull],
                     [body.translation, body.translation + scale * force]]
    assert len(arrows) == 4
    np.testing.assert_allclose(np.array(arrows), np.array(expected), rtol=0, atol=1e-9)

