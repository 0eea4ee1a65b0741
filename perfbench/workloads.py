"""Seeded workloads of the rolljoint benchmark.

Every input is drawn from `random.Random` seeded with the workload seed, so
the same seed gives the same inputs on any machine, and the program receives
only those inputs.  The ranges below are fixed before any run, each with its
reason, and no draw is ever filtered by how its solve turns out.

Each workload runs as a closed loop with one client: the next request is
sent only after the previous one returned.  `prepare` (input construction)
and `check` (the correctness gate) run outside the timed region; only `run`
is timed.

The benchmark reaches the program only through public names, looked up on
the modules at call time, so the traced run sees every call it makes.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

import rolljoint as rj
import rolljoint.cli as rj_cli
import rolljoint.fileio as rj_fileio

GRAM_FORCE_N = 9.80665e-3
# scaled residual tolerance of the library's default solver options [N]
RESIDUAL_TOL = 1e-9
# acceptance criterion 4: |dE/ds| within 1e-6 * (tau_l + tau_r)
ENERGY_BOUND_PER_N = 1e-6
# acceptance criterion 6: lengths [mm], poses [mm, rad], loaded tensions [N]
LENGTH_TOL = 1e-6
POSE_TOL = 1e-6
TENSION_TOL = 1e-4

PAPER5_FILE = Path("src") / "rolljoint" / "designs" / "paper5.json"


class Workload:
    """One benchmark workload: designs built at set-up and a seeded stream
    of independent operations."""

    name = ""
    # operations per pass of the traced run; a fixed count, so that the
    # traced counts repeat exactly for a given seed
    trace_ops = 1
    # sweep items per operation (for the warm-start ratio of the CLI layer)
    items_per_op = 0
    # operations after which the mix of designs and kinds repeats, and the
    # seconds one cycle takes on the machine the benchmark was tuned on; the
    # number of end-to-end requests is a whole number of cycles
    cycle = 1
    cycle_seconds = 1.0

    def __init__(self, seed: int, root: Path, work_dir: Path | None = None):
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.designs = self.build_designs()

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{tag}")

    def build_designs(self) -> dict:
        raise NotImplementedError

    def op(self, index: int) -> dict:
        """Inputs of operation `index`, drawn from the seed alone."""
        raise NotImplementedError

    def prepare(self, op: dict) -> None:
        """Turn drawn numbers into program inputs (untimed)."""

    def run(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, result) -> list[str]:
        """Correctness gate; returns the problems found (empty when correct)."""
        raise NotImplementedError

    def counts(self, op: dict, result) -> dict[str, int]:
        """Exact work counts of a successful operation."""
        return {}

    def cleanup(self, op: dict) -> None:
        pass


def _gravity(design, grams: float) -> tuple:
    """One world-fixed weight per moving link, pulling along world -y."""
    if grams <= 0.0:
        return ()
    weight = rj.Wrench2(0.0, (0.0, -grams * GRAM_FORCE_N))
    return tuple(
        rj.ConstantWorkspace(target_link=k, wrench=weight) for k in range(2, design.n + 1)
    )


def _chain_pool(sizes, hanging: bool) -> dict:
    """Circular-arc and curvature-profile chains of the given sizes.  With
    `hanging` the base is mounted upside down, so gravity pulls each link
    away from the base."""
    base = rj.Pose2(math.pi, (0.0, 0.0)) if hanging else None
    pool = {}
    for n in sizes:
        pool[("arc", n)] = rj.catalog.standard_link_chain(n, base_pose=base)
        pool[("profile", n)] = rj.catalog.polynomial_link_chain(n, base_pose=base)
    return pool


def _tension_pair(rng: random.Random, low: float, high: float, max_ratio: float):
    """The smaller tension in [low, high], the larger one up to `max_ratio`
    times it, on a random side."""
    small = rng.uniform(low, high)
    large = small * rng.uniform(1.0, max_ratio)
    return (large, small) if rng.random() < 0.5 else (small, large)


def _check_tension_solve(design, tau, loads, result, energy: bool) -> list[str]:
    config, report = result
    problems = []
    if not report.converged:
        problems.append("report not converged")
    rows = rj.residual(design, config, tau, loads)
    worst = float(np.abs(rows).max())
    if not worst <= RESIDUAL_TOL:
        problems.append(f"residual re-check {worst:.3e} N above {RESIDUAL_TOL:g}")
    # the paper's cost structure: n-2 interior 3x3 inversions and one 6x6
    # boundary solve per Newton iteration
    if report.inversions_3x3 != report.iterations * (design.n - 2):
        problems.append(
            f"{report.inversions_3x3} 3x3 inversions for {report.iterations} "
            f"iterations of an n={design.n} chain"
        )
    if report.solves_6x6 != report.iterations:
        problems.append(f"{report.solves_6x6} 6x6 solves for {report.iterations} iterations")
    if energy:
        grad = rj.energy_gradient_fd(design, config.s, tau, loads)
        bound = ENERGY_BOUND_PER_N * float(sum(tau))
        if not float(np.abs(grad).max()) <= bound:
            problems.append(f"energy gradient {float(np.abs(grad).max()):.3e} above {bound:.3e}")
    return problems


class LongChain(Workload):
    """Cold `solve_tension` requests on hanging chains of 10 to 50 links.

    Per-link work dominates: statics, mechanism, loads and the n-2 block
    inversions.  The profile half makes `surface` heavy; the arc half keeps
    it light.  Not listed in BENCHMARK.json (see README.md); run it by name
    for ROADMAP item 3.  Ranges and reasons:

    - design: n = 10, 15, ..., 50 (the ROADMAP's n = 10 and n = 50 cases
      and an even grid between them) x {circular arc, curvature profile};
      requests visit them round-robin, each design twice in a row, first
      under gravity and then without, so every cycle of 36 requests has the
      same mix;
    - tensions: smaller one in [2, 6] N (the shipped scenarios' range),
      ratio in [1, 1.2] (near equal, so 50-link chains curl less than a
      turn), on a random side;
    - gravity: one 0.5 to 2.5 g weight per moving link (light printed
      links).  The base hangs, so gravity is a restoring load; the upright
      chains the seed fails on are in `hard_cases`;
    - energy oracle on a seeded twentieth of the requests (it costs up to
      0.6 s).
    """

    name = "long_chain"
    trace_ops = 36
    cycle = 36
    cycle_seconds = 2.7

    def build_designs(self) -> dict:
        return _chain_pool(range(10, 51, 5), hanging=True)

    def op(self, index: int) -> dict:
        rng = self.rng(index)
        keys = sorted(self.designs)
        loaded = index % 2 == 0
        tau = _tension_pair(rng, 2.0, 6.0, 1.2)
        grams = rng.uniform(0.5, 2.5)
        return {
            "key": keys[(index // 2) % len(keys)],
            "tau": tau,
            "grams": grams if loaded else 0.0,
            "energy": rng.random() < 0.05,
        }

    def prepare(self, op: dict) -> None:
        op["loads"] = _gravity(self.designs[op["key"]], op["grams"])

    def run(self, op: dict):
        return rj.solve_tension(self.designs[op["key"]], op["tau"], op["loads"])

    def check(self, op: dict, result) -> list[str]:
        design = self.designs[op["key"]]
        return _check_tension_solve(design, op["tau"], op["loads"], result, op["energy"])

    def counts(self, op: dict, result) -> dict[str, int]:
        report = result[1]
        return {"newton_iterations": report.iterations, "backtracks": report.backtrack_count}


class GeneratorError(Exception):
    """The seeded case that defines a displacement target did not solve."""


def _check_displacement(design, op: dict, result) -> list[str]:
    tau, config, report = result
    problems = []
    if not report.converged:
        problems.append("report not converged")
    target = op["target"]
    for label, lengths in (
        ("reported", np.asarray(report.achieved_lengths)),
        ("re-computed", rj.tendon_lengths(design, config)),
    ):
        gap = float(np.abs(lengths - target).max())
        if not gap <= LENGTH_TOL:
            problems.append(f"{label} lengths {gap:.3e} mm from target")
    pose_gap = max(
        max(rj.pose_difference(a, b)) for a, b in zip(op["generator"].poses, config.poses)
    )
    if not pose_gap <= POSE_TOL:
        problems.append(f"poses {pose_gap:.3e} from the generator")
    if op["loads"]:
        tau_gap = float(np.abs(np.asarray(tau) - np.asarray(op["tau_gen"])).max())
        if not tau_gap <= TENSION_TOL:
            problems.append(f"tensions {tau_gap:.3e} N from the generator")
    return problems


def _prepare_displacement(design, op: dict, loads) -> None:
    """Target lengths come from solving a seeded tension (and load) case, so
    every target is reachable."""
    op["loads"] = loads
    generator, _ = rj.solve_tension(design, op["tau_gen"], loads)
    op["generator"] = generator
    op["target"] = rj.tendon_lengths(design, generator)


class Displacement(Workload):
    """Unloaded `solve_displacement` requests with the library defaults.

    The outer descent loop and the impulse-test Jacobian dominate; the inner
    solves are short, warm-started chains dominated by fixed per-iteration
    overhead, the opposite of `long_chain`.  Ranges and reasons:

    - design: `demo_five_link()` (paper5) and `polynomial_link_chain(3)`,
      alternating, one arc and one profile design;
    - generator tensions: the smaller one in [1, 2] N, the larger up to 3
      times it, on a random side, so both bend directions and the straight
      stack are covered.  Ratios above about 5 roll the profile chain's
      contacts off their 8 mm surfaces; 3 is the largest shipped ratio.

    Loaded requests are in `hard_cases`: at the seed every one of them stops
    at the 500-iteration default, so they measure only the budget.
    """

    name = "displacement"
    trace_ops = 20
    cycle = 2
    cycle_seconds = 0.2

    def build_designs(self) -> dict:
        return {
            "paper5": rj.catalog.demo_five_link(),
            "poly3": rj.catalog.polynomial_link_chain(3),
        }

    def op(self, index: int) -> dict:
        rng = self.rng(index)
        return {
            "key": ("paper5", "poly3")[index % 2],
            "tau_gen": _tension_pair(rng, 1.0, 2.0, 3.0),
        }

    def prepare(self, op: dict) -> None:
        _prepare_displacement(self.designs[op["key"]], op, ())

    def run(self, op: dict):
        return rj.solve_displacement(self.designs[op["key"]], op["target"], op["loads"])

    def check(self, op: dict, result) -> list[str]:
        return _check_displacement(self.designs[op["key"]], op, result)

    def counts(self, op: dict, result) -> dict[str, int]:
        report = result[2]
        return {
            "outer_iterations": report.outer_iterations,
            "inner_iterations": report.inner_iterations,
        }


class Sweep(Workload):
    """`rolljoint sweep --svg` commands on the shipped paper5 design, run
    in-process through `rolljoint.cli.main`.

    The only workload through `fileio`, the CLI writers and `render`, and the
    only one whose solves warm-start from the previous item.  Ranges and
    reasons (6 items per command, so that a run holds enough commands for a
    latency tail):

    - even commands sweep the tip pull (`loads.0.force.0`) over sorted draws
      in [0, tau_l / 4] N at tau_l in [4, 7] N, tau_r = tau_l x [0.4, 0.6]
      (the regime of the shipped `tension_63_pull` scenario; weaker tensions
      let the pull roll a contact off its surface);
    - odd commands sweep the tension pair (`actuation.tau`), each tension in
      [1, 6] N, ordered by falling ratio as in `sweep_fig3`.

    `--jobs` is not passed: the threaded path is planned for removal.
    """

    name = "sweep"
    trace_ops = 8
    cycle = 2
    cycle_seconds = 0.26
    items_per_op = 6

    def build_designs(self) -> dict:
        return {"paper5": rj_fileio.load_design(self.root / PAPER5_FILE)}

    def op(self, index: int) -> dict:
        rng = self.rng(index)
        if index % 2 == 0:
            tau_l = rng.uniform(4.0, 7.0)
            tau = [tau_l, tau_l * rng.uniform(0.4, 0.6)]
            scenario = {
                "actuation": {"mode": "tension", "tau": tau},
                "loads": [{"variant": "constant_workspace", "target_link": 5,
                           "force": [0.0, 0.0], "attach": [0.0, 0.0]}],
            }
            values = sorted(rng.uniform(0.0, tau_l / 4.0) for _ in range(self.items_per_op))
            parameter = "loads.0.force.0"
        else:
            scenario = {"actuation": {"mode": "tension", "tau": [1.0, 1.0]}}
            pairs = [[rng.uniform(1.0, 6.0), rng.uniform(1.0, 6.0)]
                     for _ in range(self.items_per_op)]
            values = sorted(pairs, key=lambda p: p[0] / p[1], reverse=True)
            parameter = "actuation.tau"
        return {
            "index": index,
            "scenario": scenario,
            "sweep": {"parameter": parameter, "values": values},
        }

    def prepare(self, op: dict) -> None:
        op_dir = self.work_dir / f"sweep_{op['index']:05d}"
        op_dir.mkdir(parents=True, exist_ok=True)
        (op_dir / "scenario.json").write_text(json.dumps(op["scenario"]))
        (op_dir / "sweep.json").write_text(json.dumps(op["sweep"]))
        op["dir"] = op_dir
        op["argv"] = [
            "sweep",
            "--design", str(self.root / PAPER5_FILE),
            "--scenario", str(op_dir / "scenario.json"),
            "--sweep", str(op_dir / "sweep.json"),
            "--out", str(op_dir / "out"),
            "--svg",
        ]

    def run(self, op: dict):
        return rj_cli.main(op["argv"])

    def check(self, op: dict, result) -> list[str]:
        problems = []
        if result != 0:
            problems.append(f"exit code {result}")
        out = op["dir"] / "out"
        try:
            lines = (out / "sweep.csv").read_text().strip().splitlines()
        except OSError as exc:
            return problems + [f"sweep.csv unreadable: {exc}"]
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) != self.items_per_op:
            problems.append(f"{len(rows)} sweep rows for {self.items_per_op} values")
        for row in rows:
            if row.get("status") != "ok":
                problems.append(f"item {row.get('index')} status {row.get('status')}")
            elif not float(row["residual"]) <= RESIDUAL_TOL:
                problems.append(f"item {row['index']} residual {row['residual']}")
        for idx in range(self.items_per_op):
            path = out / f"item_{idx:03d}" / "report.json"
            try:
                report = json.loads(path.read_text(), parse_constant=_reject_constant)
            except (OSError, ValueError) as exc:
                problems.append(f"{path.parent.name}/report.json: {exc}")
                continue
            if report.get("status") != "ok":
                problems.append(f"{path.parent.name} report status {report.get('status')}")
        svg = out / "sweep.svg"
        if not svg.is_file() or not svg.read_text().lstrip().startswith("<svg"):
            problems.append("sweep.svg missing")
        return problems

    def counts(self, op: dict, result) -> dict[str, int]:
        lines = (op["dir"] / "out" / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        return {
            "items": len(rows),
            "item_iterations": sum(int(r["iterations"] or 0) for r in rows),
        }

    def cleanup(self, op: dict) -> None:
        shutil.rmtree(op["dir"] / "out", ignore_errors=True)


def _reject_constant(token: str):
    raise ValueError(f"non-JSON constant {token}")


class HardCases(Workload):
    """The inputs the seed is known to fail on, kept measurable.

    Not a workload of BENCHMARK.json, whose workloads must run without
    failures; run it by name to follow ROADMAP items 2 and 4.

    - even requests: loaded `solve_displacement` with the library defaults
      on paper5 and `polynomial_link_chain(3)`: a tip pull of -0.5 to 0.5 N
      or a 0.05 to 0.2 N/mm spring anchored beside the tip.  At the seed
      every one stops at the 500-iteration default (NoConvergenceError);
    - odd requests: cold `solve_tension` on upright chains of 10, 30 and 50
      links with 1 to 5 g per link and tension ratios up to 1.2.  At the
      seed about one in six raises NoConvergenceError.
    """

    name = "hard_cases"
    trace_ops = 4
    cycle = 4
    cycle_seconds = 7.5

    def build_designs(self) -> dict:
        designs = {
            "paper5": rj.catalog.demo_five_link(),
            "poly3": rj.catalog.polynomial_link_chain(3),
        }
        designs.update(_chain_pool((10, 30, 50), hanging=False))
        return designs

    def op(self, index: int) -> dict:
        rng = self.rng(index)
        if index % 2 == 0:
            key = ("paper5", "poly3")[(index // 2) % 2]
            return {
                "kind": "displacement",
                "key": key,
                "tau_gen": _tension_pair(rng, 1.0, 2.0, 3.0),
                "spring": rng.random() < 0.5,
                "pull": rng.uniform(-0.5, 0.5),
                "stiffness": rng.uniform(0.05, 0.2),
                "anchor_dx": rng.uniform(-20.0, 20.0),
            }
        chains = sorted(k for k in self.designs if isinstance(k, tuple))
        return {
            "kind": "chain",
            "key": chains[(index // 2) % len(chains)],
            "tau": _tension_pair(rng, 2.0, 6.0, 1.2),
            "grams": rng.uniform(1.0, 5.0),
            "energy": False,
        }

    def prepare(self, op: dict) -> None:
        design = self.designs[op["key"]]
        if op["kind"] == "chain":
            op["loads"] = _gravity(design, op["grams"])
            return
        if op["spring"]:
            straight = rj.forward_poses(design, np.zeros(design.joint_count))[-1]
            anchor = straight.translation + np.array([op["anchor_dx"], 0.0])
            load = rj.LinearSpring(target_link=design.n, stiffness=op["stiffness"],
                                   anchor=anchor)
        else:
            load = rj.ConstantWorkspace(target_link=design.n,
                                        wrench=rj.Wrench2(0.0, (op["pull"], 0.0)))
        try:
            _prepare_displacement(design, op, (load,))
        except rj.RolljointError as exc:
            # loads can push a drawn case off its surfaces; the request is
            # then counted as failed.GeneratorError, not dropped
            op["generator_error"] = f"{type(exc).__name__}: {exc}"

    def run(self, op: dict):
        design = self.designs[op["key"]]
        if "generator_error" in op:
            raise GeneratorError(op["generator_error"])
        if op["kind"] == "chain":
            return rj.solve_tension(design, op["tau"], op["loads"])
        return rj.solve_displacement(design, op["target"], op["loads"])

    def check(self, op: dict, result) -> list[str]:
        design = self.designs[op["key"]]
        if op["kind"] == "chain":
            return _check_tension_solve(design, op["tau"], op["loads"], result, False)
        return _check_displacement(design, op, result)


WORKLOADS = {cls.name: cls for cls in (LongChain, Displacement, Sweep, HardCases)}
