import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rolljoint import cli
from rolljoint.catalog import demo_five_link, polynomial_link_chain, standard_link_chain
from rolljoint.cli import main, read_solution_csv
from rolljoint.fileio import (
    _DISPLACEMENT_KEYS,
    _SOLVER_KEYS,
    GRAM_FORCE_N,
    ParseError,
    design_to_dict,
    load_design,
    save_design,
    scenario_from_dict,
    set_by_path,
)
from rolljoint.mechanism import Configuration, tendon_lengths, validate
from rolljoint.solver_displacement import DisplacementOptions
from rolljoint.solver_tension import SolverOptions

DESIGN = Path(__file__).resolve().parents[1] / "src" / "rolljoint" / "designs" / "paper5.json"
SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "rolljoint" / "scenarios"


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def tension_scenario(tau, loads=()):
    data = {"actuation": {"mode": "tension", "tau": list(tau)}}
    if loads:
        data["loads"] = list(loads)
    return data


def test_shipped_design_matches_catalog():
    design = load_design(DESIGN)
    reference = demo_five_link()
    assert design.n == reference.n
    assert design.characteristic_length == pytest.approx(reference.characteristic_length)
    for a, b in zip(design.links, reference.links):
        np.testing.assert_allclose(a.p_l, b.p_l)
        np.testing.assert_allclose(a.c_r, b.c_r)
        assert type(a.child_surface) is type(b.child_surface)


def test_catalog_writes_the_shipped_design_byte_for_byte(tmp_path):
    save_design(demo_five_link(), tmp_path / "paper5.json")
    assert (tmp_path / "paper5.json").read_bytes() == DESIGN.read_bytes()


def test_solve_equal_tensions_straight_csv(tmp_path):
    scenario = write_json(tmp_path / "s.json", tension_scenario([1.0, 1.0]))
    out = tmp_path / "out"
    assert main(["solve", "--design", str(DESIGN), "--scenario", scenario, "--out", str(out)]) == 0
    poses, svals = read_solution_csv(out / "solution.csv")
    np.testing.assert_allclose(poses[:, 0], 0.0, atol=1e-9)   # x stays on the axis
    np.testing.assert_allclose(poses[:, 2], 0.0, atol=1e-10)  # no rotation
    np.testing.assert_allclose(svals, 0.0, atol=1e-9)
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True and report["status"] == "ok"


def test_doubled_tension_pose_columns_byte_identical(tmp_path):
    outs = []
    for tag, tau in (("a", [3.0, 1.0]), ("b", [6.0, 2.0])):
        scenario = write_json(tmp_path / f"{tag}.json", tension_scenario(tau))
        out = tmp_path / tag
        assert main(["solve", "--design", str(DESIGN), "--scenario", scenario, "--out", str(out)]) == 0
        outs.append((out / "solution.csv").read_text())

    def pose_columns(text):
        return ["," .join(line.split(",")[:4]) for line in text.splitlines()]

    assert pose_columns(outs[0]) == pose_columns(outs[1])


def test_outputs_are_deterministic(tmp_path):
    scenario = write_json(tmp_path / "s.json", tension_scenario([3.0, 1.0]))
    texts = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["solve", "--design", str(DESIGN), "--scenario", scenario,
                     "--out", str(out), "--svg"]) == 0
        texts.append(tuple((out / name).read_text()
                           for name in ("solution.csv", "report.json", "config.svg")))
    assert texts[0] == texts[1]


def test_csv_round_trip_reproduces_lengths(tmp_path):
    scenario = write_json(tmp_path / "s.json", tension_scenario([3.0, 1.0]))
    out = tmp_path / "out"
    assert main(["solve", "--design", str(DESIGN), "--scenario", scenario, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    poses, svals = read_solution_csv(out / "solution.csv")
    design = load_design(DESIGN)
    config = Configuration.from_unknowns(design, svals, np.zeros((design.joint_count, 2)))
    for pose, row in zip(config.poses, poses):
        assert np.abs(pose.translation - row[:2]).max() < 1e-9
        assert abs(math.remainder(pose.angle - row[2], math.tau)) < 1e-9
    lengths = tendon_lengths(design, config)
    assert np.abs(lengths - np.array(report["lengths_mm"])).max() < 1e-9


def test_displacement_scenario(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "displacement_pose1.json"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["mode"] == "displacement"
    assert report["target_lengths_mm"] == [90.52, 100.88]


def test_sweep_pull_monotone(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "tension_63_pull.json"),
                 "--sweep", str(SCENARIOS / "sweep_pull.json"),
                 "--out", str(out), "--svg"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == 7
    tip_x = [float(line.split(",")[3]) for line in lines]
    assert all(b > a for a, b in zip(tip_x, tip_x[1:]))
    assert (out / "sweep.svg").exists()
    assert (out / "item_000" / "solution.csv").exists()


def test_sweep_tension_ratio_three_poses(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "tension_31.json"),
                 "--sweep", str(SCENARIOS / "sweep_fig3.json"),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    tips = np.array([[float(c) for c in line.split(",")[3:6]] for line in lines])
    assert tips[0, 0] < -40 and tips[2, 0] > 40          # strong left / right bends
    assert abs(tips[1, 0]) < 1e-9                        # straight middle pose
    np.testing.assert_allclose(tips[0, 0], -tips[2, 0], atol=1e-8)


def test_sweep_empty_values_is_parse_error(tmp_path):
    scenario = write_json(tmp_path / "s.json", tension_scenario([3.0, 1.0]))
    sweep = write_json(tmp_path / "w.json", {"parameter": "actuation.tau.0", "values": []})
    assert main(["sweep", "--design", str(DESIGN), "--scenario", scenario,
                 "--sweep", sweep, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("parameter, values", [
    ("loads", [[], [{"variant": "constant_workspace", "target_link": 5, "force": [0.1, 0.0]}]]),
    ("actuation.tau.0", [3.0, True]),
], ids=["load_lists", "bool"])
def test_sweep_refuses_values_that_are_not_numbers(tmp_path, capsys, parameter, values):
    # a sweep value is a number or a non-empty list of numbers (a bool is
    # neither); any other one is refused before an item is solved or a
    # directory is written, instead of failing in the CSV writer after every
    # item was solved, or of solving a bool as 1 N
    scenario = write_json(tmp_path / "s.json", dict(tension_scenario([3.0, 1.0]), loads=[]))
    sweep = write_json(tmp_path / "w.json", {"parameter": parameter, "values": values})
    assert main(["sweep", "--design", str(DESIGN), "--scenario", scenario,
                 "--sweep", sweep, "--out", str(tmp_path / "o")]) == 2
    assert (f" of {parameter} is not a number or a non-empty list of numbers"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_verify_command_passes_on_shipped_design(capsys):
    assert main(["verify", "--design", str(DESIGN), "--seed", "0"]) == 0
    output = capsys.readouterr().out
    assert "FAIL" not in output
    assert "checks passed" in output


def test_verify_rejects_invalid_design(tmp_path):
    data = design_to_dict(demo_five_link())
    data["links"][1]["parent_surface"]["domain"] = [-9.0, 5.0]  # width mismatch
    bad = write_json(tmp_path / "bad.json", data)
    assert main(["verify", "--design", bad]) == 2


def test_verify_two_link_design(tmp_path):
    path = tmp_path / "two.json"
    save_design(standard_link_chain(2), path)
    assert main(["verify", "--design", str(path), "--seed", "1"]) == 0


def test_verify_refuses_a_negative_seed(capsys):
    assert main(["verify", "--design", str(DESIGN), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, blocked, directory", [
    ("solve", "", False),
    ("sweep", "", False),
    ("sweep", "item_000", False),
    ("solve", "report.json", True),
    ("sweep", "item_001/solution.csv", True),
], ids=["solve", "sweep", "sweep_item_dir", "solve_report_json", "sweep_item_solution_csv"])
def test_output_path_naming_a_file_exits_with_parse_error(tmp_path, capsys, command, blocked,
                                                          directory):
    # an output directory cannot be made where a regular file stands, nor an
    # output file written where a directory stands; either leaves the
    # blocking entry as it was, and a sweep stops without sweep.csv
    out = tmp_path / "taken"
    taken = out / blocked
    taken.parent.mkdir(parents=True, exist_ok=True)
    if directory:
        taken.mkdir()
        taken = taken / "kept"
    taken.write_text("keep")
    scenario = write_json(tmp_path / "s.json", tension_scenario([3.0, 1.0]))
    argv = [command, "--design", str(DESIGN), "--scenario", scenario, "--out", str(out)]
    if command == "sweep":
        argv += ["--sweep", write_json(tmp_path / "w.json",
                                       {"parameter": "actuation.tau.0", "values": [3.0, 2.0]})]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert taken.read_text() == "keep"
    assert not directory or list(taken.parent.iterdir()) == [taken]
    assert not (out / "sweep.csv").exists()


def test_solve_exit_codes(tmp_path):
    # unreadable scenario
    assert main(["solve", "--design", str(DESIGN), "--scenario",
                 str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 2
    # malformed scenario
    bad = write_json(tmp_path / "bad.json", {"actuation": {"mode": "warp"}})
    assert main(["solve", "--design", str(DESIGN), "--scenario", bad,
                 "--out", str(tmp_path / "o")]) == 2
    # iteration starvation
    scenario = write_json(tmp_path / "s.json",
                          {**tension_scenario([3.0, 1.0]), "solver": {"max_iters": 1}})
    assert main(["solve", "--design", str(DESIGN), "--scenario", scenario,
                 "--out", str(tmp_path / "o")]) == 3
    # domains too narrow for the commanded ratio: contact rolls off
    narrow_path = tmp_path / "narrow.json"
    save_design(standard_link_chain(5, half_domain=4.0), narrow_path)
    scenario31 = write_json(tmp_path / "s31.json", tension_scenario([3.0, 1.0]))
    assert main(["solve", "--design", str(narrow_path), "--scenario", scenario31,
                 "--out", str(tmp_path / "o")]) == 4


def test_svg_contains_geometry(tmp_path):
    scenario = write_json(tmp_path / "s.json", tension_scenario(
        [6.0, 3.0],
        loads=[{"variant": "constant_workspace", "target_link": 5, "force": [1.0, 0.0]}]))
    out = tmp_path / "out"
    assert main(["solve", "--design", str(DESIGN), "--scenario", scenario,
                 "--out", str(out), "--svg"]) == 0
    svg = (out / "config.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") > 10
    assert "#ff7f0e" in svg  # the load arrow


def test_svg_samples_each_surface_once(monkeypatch):
    # the sampled surface outlines are body-frame points, looked up through
    # the design's surface stack (no per-surface frame_at call), however
    # many configurations are drawn
    from rolljoint.render import render_svg
    from rolljoint.solver_tension import solve_tension
    from rolljoint.surface import CircularArc

    design = demo_five_link()
    configs = [solve_tension(design, tau)[0] for tau in ((3.0, 1.0), (1.0, 1.0), (1.0, 3.0))]
    frame_at = CircularArc.frame_at
    calls = []
    monkeypatch.setattr(CircularArc, "frame_at", lambda self, s: calls.append(s) or frame_at(self, s))
    svg = render_svg(design, configs)
    assert calls == []
    # per configuration: one quadrilateral per link, one curve per surface
    # and two tendon polylines
    per_config = design.n + 2 * design.joint_count + 2
    assert svg.count("<polyline") == len(configs) * per_config


def test_gram_force_conversion():
    scenario = scenario_from_dict(
        {"actuation": {"mode": "tension", "tau_gram": [300.0, 900.0]}}
    )
    np.testing.assert_allclose(scenario.tau, [300.0 * GRAM_FORCE_N, 900.0 * GRAM_FORCE_N])
    assert scenario.tau[0] == pytest.approx(2.94, abs=0.01)


def test_scenario_parsing_errors():
    with pytest.raises(ParseError):
        scenario_from_dict({"actuation": {"mode": "tension", "tau": [1.0, -1.0]}})
    with pytest.raises(ParseError):
        scenario_from_dict({"actuation": {"mode": "displacement"}})
    with pytest.raises(ParseError):
        scenario_from_dict({"actuation": {"mode": "tension", "tau": [1, 1]},
                            "loads": [{"variant": "mystery", "target_link": 1}]})
    for solver in ({"warp_speed": 9}, {"s_clamp": False}, {"line_search": False}):
        with pytest.raises(ParseError, match=next(iter(solver))):
            scenario_from_dict({"actuation": {"mode": "tension", "tau": [1, 1]},
                                "solver": solver})
    displacement = {"mode": "displacement", "lengths": [90.0, 100.0]}
    with pytest.raises(ParseError, match="max_outer_iters"):
        scenario_from_dict({"actuation": displacement, "solver": {"max_outer_iters": -1}})
    # the step-control values are constants of the solvers, not options,
    # even when a scenario gives them at their former defaults
    for actuation in ({"mode": "tension", "tau": [1, 1]}, displacement):
        for key, value in (("backtrack_factor", 0.5), ("max_backtracks", 20),
                           ("alpha", 1.0), ("alpha_growth", 10.0)):
            with pytest.raises(ParseError, match=key):
                scenario_from_dict({"actuation": actuation, "solver": {key: value}})
    # malformed structure
    tension = {"mode": "tension", "tau": [1, 1]}
    for scenario, message in (
        ({"actuation": 5}, "actuation must be a JSON object"),
        ({"actuation": tension, "loads": [3]}, "load 0 must be a JSON object"),
        ({"actuation": tension, "loads": [{"variant": "constant_body",
                                           "target_link": [5]}]}, "bad load"),
        ({"actuation": tension, "solver": [1]}, "solver a JSON object"),
        ({"actuation": tension, "solver": {"tol_residual": "x"}}, "bad solver options"),
        ({"actuation": displacement, "solver": {"grad_tol": None}}, "bad solver options"),
        ({"actuation": displacement, "solver": {"max_outer_iters": 1.5}}, "bad solver options"),
        ({"actuation": displacement, "solver": {"max_outer_iters": True}}, "max_outer_iters"),
        ({"actuation": tension, "solver": {"max_iters": 2.5}}, "max_iters"),
        ({"actuation": tension, "solver": {"max_iters": True}}, "max_iters"),
    ):
        with pytest.raises(ParseError, match=message):
            scenario_from_dict(scenario)
    for key, tau_init in (("tau_init", [1.0]), ("tau_init", [1, 1, 1]),
                          ("tau_init", [1e-4, 1.0]), ("tau_init_gram", [100.0])):
        with pytest.raises(ParseError, match="initial tensions"):
            scenario_from_dict({"actuation": {**displacement, key: tau_init}})
    with pytest.raises(ParseError, match="initial tensions"):
        # the default initial tensions (1, 1) N lie below a raised floor
        scenario_from_dict({"actuation": displacement, "solver": {"tension_floor": 2.0}})


@pytest.mark.parametrize("actuation, solver", [
    ({"mode": "displacement", "lengths": [90.52, 100.88]}, {"max_outer_iters": -1}),
    ({"mode": "displacement", "lengths": [90.52, 100.88], "tau_init": [1.0]}, {}),
    ({"mode": "displacement", "lengths": [90.52, 100.88], "tau_init": [1, 1, 1]}, {}),
    ({"mode": "displacement", "lengths": [90.52, 100.88], "tau_init": [1e-4, 1.0]}, {}),
], ids=["negative_outer_budget", "one_tension", "three_tensions", "below_floor"])
def test_bad_displacement_scenario_exits_with_parse_error(tmp_path, capsys, actuation, solver):
    scenario = write_json(tmp_path / "s.json", {"actuation": actuation, "solver": solver})
    assert main(["solve", "--design", str(DESIGN), "--scenario", scenario,
                 "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _set_design_value(data, path, value):
    set_by_path(data, path, value)
    return data


@pytest.mark.parametrize("design, sweep, field", [
    (None, ["actuation.tau", [[3.0, 1.0]]], None),
    (None, {"parameter": "loads.3.force.0", "values": [1.0]}, None),
    (None, {"parameter": "actuation.tau.5", "values": [1.0]}, None),
    # integer fields are never truncated: link 4.7 is not link 4, and true
    # is not link 1 (the fixed base, whose loads are ignored)
    (None, {"parameter": "loads.0.target_link", "values": [4.7]}, "target_link"),
    (None, {"parameter": "loads.0.target_link", "values": [True]}, "target_link"),
    (None, {"parameter": "actuation.tau.0"}, "missing 'values' in sweep file"),
    ({"links": [1, 2]}, None, None),
    ({**design_to_dict(demo_five_link()), "base_pose": {"angle": "x"}}, None, None),
    # a fractional sign would otherwise be truncated to +1 and pass verify
    (_set_design_value(design_to_dict(demo_five_link()),
                       "links.1.parent_surface.orientation_sign", 1.9), None, "orientation_sign"),
], ids=["sweep_list", "sweep_load_index", "sweep_tau_index", "sweep_fractional_target_link",
        "sweep_bool_target_link", "sweep_no_values", "design_link_not_object", "design_pose_angle",
        "design_fractional_orientation_sign"])
def test_malformed_file_structure_exits_with_parse_error(tmp_path, capsys, design, sweep, field):
    # design cases run `verify`, sweep cases `sweep` on the shipped design
    if design is not None:
        argv = ["verify", "--design", write_json(tmp_path / "d.json", design)]
    else:
        scenario = write_json(tmp_path / "s.json", tension_scenario(
            [3.0, 1.0], loads=[{"variant": "constant_workspace", "target_link": 5}]))
        argv = ["sweep", "--design", str(DESIGN), "--scenario", scenario,
                "--sweep", write_json(tmp_path / "w.json", sweep), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert field is None or field in err


def test_scenario_solver_keys_match_option_fields():
    # a key without its field would make replace() raise TypeError at parse time
    assert _SOLVER_KEYS == {f.name for f in fields(SolverOptions)}
    assert _DISPLACEMENT_KEYS == {f.name for f in fields(DisplacementOptions)} - {"inner"}


TENSION_31 = {"mode": "tension", "tau": [3.0, 1.0]}


@pytest.mark.parametrize("scenario", [
    {"actuation": {"mode": "tension", "tau": [math.nan, 1.0]}},
    {"actuation": {"mode": "tension", "tau_gram": [100.0, math.inf]}},
    {"actuation": {"mode": "displacement", "lengths": [math.nan, 100.0]}},
    {"actuation": {"mode": "displacement", "lengths": [90.0, 100.0],
                   "tau_init": [1.0, math.nan]}},
    {"actuation": TENSION_31, "loads": [
        {"variant": "constant_workspace", "target_link": 5, "force": [math.nan, 0.0]}]},
    {"actuation": TENSION_31, "loads": [
        {"variant": "constant_body", "target_link": 5, "moment": -math.inf}]},
    {"actuation": TENSION_31, "loads": [
        {"variant": "linear_spring", "target_link": 5, "stiffness": 0.1,
         "anchor": [math.nan, 90.0]}]},
], ids=["tau", "tau_gram", "lengths", "tau_init", "force", "moment", "anchor"])
def test_non_finite_scenario_values_are_parse_errors(scenario):
    with pytest.raises(ParseError):
        scenario_from_dict(scenario)


def test_solve_nan_tension_exits_with_parse_error(tmp_path, capsys):
    # json accepts the NaN token; the scenario must still be refused
    scenario = tmp_path / "s.json"
    scenario.write_text('{"actuation": {"mode": "tension", "tau": [NaN, 1.0]}}')
    out = tmp_path / "out"
    assert main(["solve", "--design", str(DESIGN), "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_displacement_report_gives_length_error(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "displacement_pose1.json"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    gap = np.abs(np.array(report["lengths_mm"]) - np.array(report["target_lengths_mm"]))
    assert report["length_error_mm"] == pytest.approx(gap.max(), abs=1e-9)
    assert report["length_error_mm"] > 1.0   # converged, but short of the target


def test_set_by_path_nested():
    data = {"loads": [{"force": [0.0, 0.0]}], "actuation": {"tau": [1.0, 2.0]}}
    set_by_path(data, "loads.0.force.0", 1.5)
    set_by_path(data, "actuation.tau", [9.0, 9.0])
    assert data["loads"][0]["force"][0] == 1.5
    assert data["actuation"]["tau"] == [9.0, 9.0]
    with pytest.raises(ParseError):
        set_by_path(data, "actuation.warp", 1.0)


def test_paper_displacement_targets_are_finite():
    scenario = scenario_from_dict(json.loads((SCENARIOS / "displacement_pose1.json").read_text()))
    assert np.all(np.isfinite(scenario.lengths))
    np.testing.assert_allclose(scenario.lengths, [90.52, 100.88])


def test_out_of_range_load_target_is_parse_error(tmp_path):
    scenario = write_json(tmp_path / "s.json", tension_scenario(
        [2.0, 1.0],
        loads=[{"variant": "constant_body", "target_link": 9, "moment": 1.0}]))
    assert main(["solve", "--design", str(DESIGN), "--scenario", scenario,
                 "--out", str(tmp_path / "o")]) == 2


@pytest.fixture
def degenerate_design(tmp_path):
    # passes validate, but both tendons run through the contact point, so the
    # gap segments have zero length and the solver raises DegenerateTendonError
    design = polynomial_link_chain(2, channel_x=0.0, entry_inset=0.0)
    assert validate(design) == []
    path = tmp_path / "degenerate.json"
    save_design(design, path)
    return str(path)


def test_solve_other_solver_error_exits_3(tmp_path, capsys, degenerate_design):
    scenario = write_json(tmp_path / "s.json", tension_scenario([1.0, 1.0]))
    out = tmp_path / "out"
    assert main(["solve", "--design", degenerate_design, "--scenario", scenario,
                 "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "solve_error"
    assert "tendon segment" in report["message"]


def test_sweep_other_solver_error_rows(tmp_path, degenerate_design):
    scenario = write_json(tmp_path / "s.json", tension_scenario([1.0, 1.0]))
    sweep = write_json(tmp_path / "w.json", {"parameter": "actuation.tau",
                                             "values": [[1.0, 1.0], [2.0, 1.0]]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--design", degenerate_design, "--scenario", scenario,
                 "--sweep", sweep, "--out", str(out)]) == 3
    lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == ["solve_error"] * 2
    for idx in range(2):
        report = json.loads((out / f"item_{idx:03d}" / "report.json").read_text())
        assert report["status"] == "solve_error"


def test_displacement_sweep_items_warm_start(tmp_path):
    # nearby targets: each item after the first starts its tension search
    # from the previous item's tensions and needs fewer outer iterations
    sweep = write_json(tmp_path / "w.json", {
        "parameter": "actuation.lengths",
        "values": [[90.52, 100.88], [90.6, 100.8], [90.7, 100.7]],
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "displacement_pose1.json"),
                 "--sweep", sweep, "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [row[2] for row in rows] == ["ok"] * 3
    outer = [int(row[6]) for row in rows]
    assert outer[1] < outer[0] and outer[2] < outer[0]


def test_displacement_sweep_item_starts_from_previous_configuration(tmp_path, monkeypatch):
    # the first inner solve of a warm item starts from the configuration the
    # previous item returned; the first item starts cold
    from rolljoint import solver_displacement

    solve_displacement = solver_displacement.solve_displacement
    solve_tension = solver_displacement.solve_tension
    first_inits = []
    returned = []

    def spy_displacement(*args, **kwargs):
        first_inits.append("pending")
        out = solve_displacement(*args, **kwargs)
        returned.append(out[1])
        return out

    def spy_tension(*args, **kwargs):
        if first_inits[-1] == "pending":
            first_inits[-1] = kwargs.get("init")
        return solve_tension(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_displacement", spy_displacement)
    monkeypatch.setattr(solver_displacement, "solve_tension", spy_tension)
    sweep = write_json(tmp_path / "w.json", {
        "parameter": "actuation.lengths",
        "values": [[90.52, 100.88], [90.6, 100.8], [90.7, 100.7]],
    })
    assert main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "displacement_pose1.json"),
                 "--sweep", sweep, "--out", str(tmp_path / "sweep")]) == 0
    assert len(first_inits) == len(returned) == 3
    assert first_inits[0] is None
    assert first_inits[1] is returned[0] and first_inits[2] is returned[1]


def test_sweep_item_lengths_build_no_geometry(tmp_path, monkeypatch, joint_geometry_calls):
    # each item's lengths read the geometry its solve returned
    built = []

    def counted(design, config):
        before = joint_geometry_calls[0]
        lengths = tendon_lengths(design, config)
        built.append(joint_geometry_calls[0] - before)
        return lengths

    monkeypatch.setattr(cli, "tendon_lengths", counted)
    assert main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "tension_31.json"),
                 "--sweep", str(SCENARIOS / "sweep_fig3.json"),
                 "--out", str(tmp_path / "sweep")]) == 0
    assert built == [0, 0, 0]


def test_sweep_builds_one_geometry_per_residual(tmp_path, monkeypatch, joint_geometry_calls):
    # the cold first item fits its forces on its start iterate's geometry;
    # each of the two warm items takes its tangent step from the blocks the
    # previous item's solve returned, evaluates one predicted iterate and
    # fits its forces on it; every block assembly is one evaluated iterate's,
    # whose balance rows are its residual, so no residual is computed on its
    # own
    from conftest import count_calls
    from rolljoint.solver_tension import tangent_start
    from rolljoint.statics import assemble_blocks, residual

    residual_calls = count_calls(monkeypatch, residual)
    block_calls = count_calls(monkeypatch, assemble_blocks)
    tangent_calls = count_calls(monkeypatch, tangent_start)
    assert main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "tension_31.json"),
                 "--sweep", str(SCENARIOS / "sweep_fig3.json"),
                 "--out", str(tmp_path / "sweep")]) == 0
    assert residual_calls[0] == 0 and tangent_calls[0] == 2
    assert block_calls[0] > 3 + tangent_calls[0]
    assert joint_geometry_calls[0] == block_calls[0]


def test_sweep_computes_item_lengths_once(tmp_path, monkeypatch):
    # solution.csv and report.json of an item share one tendon_lengths call
    calls = []

    def counted(design, config):
        calls.append(config)
        return tendon_lengths(design, config)

    monkeypatch.setattr(cli, "tendon_lengths", counted)
    out = tmp_path / "sweep"
    assert main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "tension_31.json"),
                 "--sweep", str(SCENARIOS / "sweep_fig3.json"),
                 "--out", str(out)]) == 0
    assert len(calls) == 3
    for idx, config in enumerate(calls):
        summary = (out / f"item_{idx:03d}" / "solution.csv").read_text().strip().splitlines()[-1]
        report = json.loads((out / f"item_{idx:03d}" / "report.json").read_text())
        assert summary.split(",")[-2:] == [f"{v:.12g}" for v in report["lengths_mm"]]


def test_unloaded_sweep_builds_no_poses(tmp_path, monkeypatch):
    # solution.csv rows, the sweep's tip rows and the rendered outlines read
    # the configurations' link arrays and the design's surface stack, so an
    # unloaded sweep builds no Pose2 beyond those of loading the design
    from rolljoint.geometry import Pose2

    calls = []
    post_init = Pose2.__post_init__
    monkeypatch.setattr(Pose2, "__post_init__", lambda self: calls.append(self) or post_init(self))
    load_design(DESIGN)
    design_poses, calls[:] = len(calls), []
    assert main(["sweep", "--design", str(DESIGN),
                 "--scenario", str(SCENARIOS / "tension_31.json"),
                 "--sweep", str(SCENARIOS / "sweep_fig3.json"),
                 "--out", str(tmp_path / "sweep"), "--svg"]) == 0
    assert len(calls) == design_poses


@pytest.mark.parametrize("path, value", [
    ("links.1.parent_surface.radius", math.nan),
    ("links.0.child_surface.center.1", math.nan),
    ("base_pose.translation", [math.inf, 0.0]),
    ("base_pose.angle", math.nan),
], ids=["nan_arc_radius", "nan_arc_center", "inf_base_translation", "nan_base_angle"])
def test_non_finite_design_numbers_exit_with_parse_error(tmp_path, capsys, path, value):
    # json writes and reads the NaN and Infinity tokens; the design must
    # still be refused before any solve
    design = write_json(tmp_path / "d.json",
                        _set_design_value(design_to_dict(demo_five_link()), path, value))
    out = tmp_path / "out"
    assert main(["solve", "--design", design, "--scenario", str(SCENARIOS / "tension_31.json"),
                 "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("coeffs", [[], [[0.02, 0.003]]], ids=["empty", "nested"])
def test_malformed_profile_coefficients_exit_with_parse_error(tmp_path, capsys, coeffs):
    design = write_json(tmp_path / "d.json", _set_design_value(
        design_to_dict(polynomial_link_chain(3)), "links.0.child_surface.curvature_coeffs", coeffs))
    out = tmp_path / "out"
    assert main(["solve", "--design", design, "--scenario", str(SCENARIOS / "tension_31.json"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "coefficients" in err
    assert not (out / "solution.csv").exists()


def test_non_finite_results_are_never_written_as_json(tmp_path, monkeypatch, capsys):
    from rolljoint.errors import NonFiniteResultError
    from rolljoint.geometry import Pose2
    from rolljoint.mechanism import MechanismDesign

    report = tmp_path / "report.json"
    with pytest.raises(NonFiniteResultError):
        cli._write_report(report, {"final_residual_norm": math.nan})
    assert not report.exists()
    design_path = tmp_path / "d.json"
    unbounded = MechanismDesign(demo_five_link().links, Pose2(0.0, (math.inf, 0.0)))
    with pytest.raises(NonFiniteResultError):
        save_design(unbounded, design_path)
    assert not design_path.exists()

    # a solve whose report would hold NaN fails with exit code 3 and a
    # strict-JSON failure report, and leaves no solution.csv behind
    solve = cli._solve_scenario

    def nan_report(design, scenario, init=None):
        config, tau, extra, blocks = solve(design, scenario, init)
        return config, tau, {**extra, "final_residual_norm": math.nan}, blocks

    monkeypatch.setattr(cli, "_solve_scenario", nan_report)
    out = tmp_path / "out"
    assert main(["solve", "--design", str(DESIGN), "--scenario",
                 str(SCENARIOS / "tension_31.json"), "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    text = (out / "report.json").read_text()
    assert "NaN" not in text and json.loads(text)["status"] == "solve_error"
    assert not (out / "solution.csv").exists()


def test_sweep_tip_pull_warm_starts_without_cold_retry(tmp_path, monkeypatch):
    # a tip pull raised from 0.15 to 0.6 N at tau = (4, 1.9) N: the second
    # item converges from its tangent-predicted start, so the sweep runs one
    # cold solve (the first item) and one warm one
    starts = []
    solve_scenario = cli._solve_scenario

    def recorded(design, scenario, init=None):
        starts.append(init is not None)
        return solve_scenario(design, scenario, init=init)

    monkeypatch.setattr(cli, "_solve_scenario", recorded)
    pull = {"variant": "constant_workspace", "target_link": 5, "force": [0.15, 0.0]}
    scenario = write_json(tmp_path / "s.json", tension_scenario([4.0, 1.9], [pull]))
    sweep = write_json(tmp_path / "w.json", {"parameter": "loads.0.force.0", "values": [0.15, 0.6]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--design", str(DESIGN), "--scenario", scenario,
                 "--sweep", sweep, "--out", str(out)]) == 0
    assert starts == [False, True]
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["ok", "ok"]
    assert int(rows[1].split(",")[6]) <= 5
