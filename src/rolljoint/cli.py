"""Command-line front end: solve, sweep and verify.

Exit codes: 0 success, 2 parse/validation error or an output file or
directory that cannot be made or written (a sweep stops at that item,
without sweep.csv), 3 no convergence, another solver error or a non-finite
result (report.json is strict JSON and never holds NaN), 4 contact rolled
off a surface domain, 5 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ContactRolloffError, RolljointError, SolveError
from .fileio import (
    ParseError,
    Scenario,
    _require,
    load_design,
    load_scenario,
    read_json,
    scenario_from_dict,
    set_by_path,
    strict_json,
)
from .loads import check_targets
from .mechanism import Configuration, MechanismDesign, tendon_lengths
from .render import _fmt, render_svg
from .solver_displacement import solve_displacement
from .solver_tension import solve_tension, tangent_start

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ROLLOFF = 4
EXIT_VERIFY_FAILED = 5


def _fmt_value(value) -> str:
    """Sweep values may be vectors; keep the CSV cell comma-free."""
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return _fmt(value)


CSV_COLUMNS = ("link_index", "x_mm", "y_mm", "theta_rad", "s_mm",
               "f_x_N", "f_y_N", "l_left_mm", "l_right_mm")


def write_solution_csv(path: Path, config: Configuration, lengths) -> None:
    """One row per link (its pose, then the contact parameter and force of
    the joint below it, blank on the base link) and a summary row of the
    tendon lengths; cells a row has no value for stay blank."""
    lines = [",".join(CSV_COLUMNS)]
    s, f = config.s.tolist(), config.f.tolist()
    links = zip(config.link_translations.tolist(), config.link_angles.tolist())
    for k, (translation, angle) in enumerate(links):
        joint = [s[k - 1], *f[k - 1]] if k else []
        cells = [str(k + 1), *map(_fmt, [*translation, angle, *joint])]
        lines.append(",".join(cells + [""] * (len(CSV_COLUMNS) - len(cells))))
    lines.append(",".join(["summary", *[""] * 6, *map(_fmt, lengths)]))
    path.write_text("\n".join(lines) + "\n")


def read_solution_csv(path: Path):
    """(poses as (n,3) x/y/theta array, s array) back from a solution file."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    poses = []
    svals = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        if cells["link_index"] == "summary":
            continue
        poses.append([float(cells["x_mm"]), float(cells["y_mm"]), float(cells["theta_rad"])])
        if cells["s_mm"]:
            svals.append(float(cells["s_mm"]))
    return np.array(poses), np.array(svals)


def _write_report(path: Path, data: dict) -> None:
    path.write_text(strict_json(data, indent=2, sort_keys=True) + "\n")


def _solve_scenario(design: MechanismDesign, scenario: Scenario,
                    init: Configuration | None = None):
    """Returns (config, tau, report dict, blocks): the blocks of a tension
    solve's equilibrium, None for a displacement solve."""
    if scenario.mode == "tension":
        config, rep = solve_tension(
            design, scenario.tau, scenario.loads, init=init, opts=scenario.solver.inner,
        )
        extra = {
            "converged": rep.converged,
            "iterations": rep.iterations,
            "final_residual_norm": rep.final_residual_norm,
            "backtrack_count": rep.backtrack_count,
            "clamped_joints": list(rep.clamped_joints),
        }
        return config, np.asarray(scenario.tau), extra, rep.blocks
    tau, config, rep = solve_displacement(
        design, scenario.lengths, scenario.loads,
        tau_init=scenario.tau_init, opts=scenario.solver, init=init,
    )
    extra = {
        "converged": rep.converged,
        "outer_iterations": rep.outer_iterations,
        "inner_iterations": rep.inner_iterations,
        "final_residual_norm": rep.final_residual_norm,
        "gradient_norm": rep.gradient_norm,
        "objective_mm2": rep.objective,
        "length_error_mm": rep.length_error_mm,
        "target_lengths_mm": list(rep.target_lengths),
        "backtrack_count": rep.backtrack_count,
    }
    return config, tau, extra, None


def cmd_solve(args) -> int:
    try:
        design = load_design(args.design)
        scenario = load_scenario(args.scenario)
        check_targets(scenario.loads, design.n)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result, _, code = _solve_into(out_dir, design, scenario)
    if code != EXIT_OK:
        print(f"error: {result}", file=sys.stderr)
        return code
    if args.svg:
        (out_dir / "config.svg").write_text(render_svg(design, [result[0]], [scenario.loads]))
    return EXIT_OK


def _solve_warm(design: MechanismDesign, scenario: Scenario, previous):
    """Solve one sweep item from the previous item's (configuration,
    tensions, scenario, blocks); an item whose warm start fails is retried
    cold.  Returns what `_solve_scenario` returns.

    A tension item starts from `tangent_start`: the previous equilibrium
    moved by its first-order change towards this item's tensions and loads,
    read from the blocks its solve returned, with the contact forces refitted
    on the predicted geometry."""
    if previous is not None:
        prev_config, prev_tau, prev_scenario, prev_blocks = previous
        try:
            if scenario.mode == "tension":
                init = tangent_start(design, prev_config, prev_blocks, prev_tau,
                                     prev_scenario.loads, scenario.tau, scenario.loads)
                return _solve_scenario(design, scenario, init=init)
            # the previous configuration balances the previous tensions,
            # which are also the first tensions of this item's search
            floor = scenario.solver.tension_floor
            warm = replace(scenario, tau_init=np.maximum(prev_tau, floor))
            return _solve_scenario(design, warm, init=prev_config)
        except RolljointError:
            pass
    return _solve_scenario(design, scenario)


def _solve_into(out_dir: Path, design: MechanismDesign, scenario: Scenario,
                previous=None):
    """Solve one scenario by `_solve_warm` (cold without `previous`) and
    write its files into `out_dir`: report.json (status `ok`) and
    solution.csv, or the failure report.json; a non-finite report value
    fails the solve before either file is written.  Returns (what
    `_solve_scenario` returns or the error, status, exit code)."""
    try:
        result = config, tau, extra, _ = _solve_warm(design, scenario, previous)
        lengths = tendon_lengths(design, config)
        _write_report(out_dir / "report.json", {
            **extra, "mode": scenario.mode, "status": "ok",
            "tau_N": tau.tolist(), "lengths_mm": lengths.tolist()})
        write_solution_csv(out_dir / "solution.csv", config, lengths)
        return result, "ok", EXIT_OK
    except RolljointError as exc:
        rolloff = isinstance(exc, ContactRolloffError)
        status = "contact_rolloff" if rolloff else (
            "no_convergence" if isinstance(exc, SolveError) else "solve_error")
        _write_report(out_dir / "report.json",
                      {"mode": scenario.mode, "status": status, "message": str(exc)})
        return exc, status, EXIT_ROLLOFF if rolloff else EXIT_NO_CONVERGENCE


def cmd_sweep(args) -> int:
    try:
        design = load_design(args.design)
        template = read_json(args.scenario, "scenario")
        sweep = read_json(args.sweep, "sweep")
        if not isinstance(sweep, dict) or not isinstance(sweep.get("parameter"), str):
            raise ParseError('a sweep file is {"parameter": path, "values": [...]}')
        parameter = sweep["parameter"]
        values = _require(sweep, "values", "sweep file")
        if not isinstance(values, list) or not values:
            raise ParseError("sweep needs a non-empty list of values")
        scenarios = []
        for value in values:
            # a number or a non-empty list of numbers; a bool is neither
            items = value if isinstance(value, list) and value else [value]
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
                raise ParseError(f"sweep value {json.dumps(value)} of {parameter} is not "
                                 "a number or a non-empty list of numbers")
            item = copy.deepcopy(template)
            set_by_path(item, parameter, value)
            scenario = scenario_from_dict(item)
            check_targets(scenario.loads, design.n)
            scenarios.append(scenario)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out_dir = Path(args.out)
    item_dirs = [out_dir / f"item_{idx:03d}" for idx in range(len(values))]
    for item_dir in item_dirs:
        item_dir.mkdir(parents=True, exist_ok=True)

    lines = ["index,value,status,tip_x_mm,tip_y_mm,tip_theta_rad,iterations,residual"]
    solved = []
    previous = None
    # items run in order, each warm-started from the last solution found
    for idx, (value, scenario) in enumerate(zip(values, scenarios)):
        result, status, _ = _solve_into(item_dirs[idx], design, scenario, previous)
        if status != "ok":
            lines.append(f"{idx},{_fmt_value(value)},{status},,,,,")
            continue
        config, tau, extra, blocks = result
        tip = [*config.link_translations[-1].tolist(), config.link_angles[-1]]
        lines.append(",".join([
            str(idx), _fmt_value(value), "ok", *map(_fmt, tip),
            str(extra.get("iterations", extra.get("outer_iterations", 0))),
            _fmt(extra["final_residual_norm"]),
        ]))
        solved.append((config, scenario.loads))
        previous = config, tau, scenario, blocks
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")

    if args.svg and solved:
        configs, loads = zip(*solved)
        (out_dir / "sweep.svg").write_text(render_svg(design, configs, loads))
    return EXIT_OK if len(solved) == len(values) else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    try:
        if args.seed < 0:
            raise ParseError(f"seed must be a non-negative integer, got {args.seed}")
        design = load_design(args.design)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # imported here, so that solve and sweep never compile or run it
    from .verification import run_verification

    try:
        rows = run_verification(design, seed=args.seed)
    except RolljointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    width = max(len(f"{r.suite}:{r.name}") for r in rows)
    failures = 0
    for row in rows:
        mark = "PASS" if row.passed else "FAIL"
        if not row.passed:
            failures += 1
        print(f"{row.suite + ':' + row.name:<{width}}  {mark}  {row.detail}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolljoint",
        description="Quasi-static solver for tendon-driven rolling-contact joint mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one scenario")
    solve.add_argument("--design", required=True)
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--out", required=True)
    solve.add_argument("--svg", action="store_true", help="also render config.svg")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="solve a scenario across parameter values")
    sweep.add_argument("--design", required=True)
    sweep.add_argument("--scenario", required=True, help="scenario template JSON")
    sweep.add_argument("--sweep", required=True, help='JSON {"parameter": path, "values": [...]}')
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--svg", action="store_true", help="render all poses overlaid")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the self-check suites on a design")
    verify.add_argument("--design", required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
