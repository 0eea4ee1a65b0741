"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rolljoint import Configuration  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# long_chain is run by name, outside BENCHMARK.json, and must keep working
LISTED = [w["name"] for w in BENCHMARK["workloads"]]
SMOKE = LISTED + ["long_chain"]
SEED = 3


def bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", SMOKE)
def test_smoke_end_to_end(workload):
    proc, result = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
                         "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    # each request is sent once; a run far slower than --seconds stops early
    sent, planned = map(int, re.search(r"requests sent=(\d+) of (\d+) planned",
                                       proc.stdout).groups())
    assert sent == result["attempted"] and sent <= planned
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


@pytest.mark.parametrize("workload", SMOKE)
def test_smoke_traced(workload):
    proc, result = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert "absent" not in proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # a listed time is measured on every listed workload; counts may be 0
    for metric in BENCHMARK["per_layer"]:
        if metric["unit"] == "ms" and workload in LISTED:
            assert metrics[metric["name"]] > 0, metric["name"]
    # the paper's cost structure, on every workload
    assert metrics["solver_tension.solves_6x6_per_iteration"] == 1.0
    assert metrics["solver_tension.inversions_3x3_per_iteration"] >= 1.0


def test_traced_counts_repeat_exactly():
    args = ("--workload", "displacement", "--seed", str(SEED), "--seconds", "0",
            "--trace", "1")
    first, second = bench(*args)[1], bench(*args)[1]
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        if metric["unit"] != "ms" and name != "trace.overhead_share":
            assert first["metrics"][name] == second["metrics"][name], name


def test_hard_cases_report_typed_failures():
    proc, result = bench("--workload", "hard_cases", "--seed", str(SEED), "--seconds", "0.1",
                         "--trace", "0")
    # the first request is a loaded displacement solve, which the seed
    # cannot finish within the default iteration budget
    assert result["failed"] >= 1 and result["correct"]
    assert "failed.NoConvergenceError=" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_gate_rejects_perturbed_tension_result():
    wl = workloads.LongChain(SEED, ROOT)
    op = wl.op(1)
    wl.prepare(op)
    config, report = wl.run(op)
    assert wl.check(op, (config, report)) == []
    design = wl.designs[op["key"]]
    moved = Configuration.from_unknowns(design, config.s + 1e-4, config.f)
    assert any("residual" in p for p in wl.check(op, (moved, report)))
    miscounted = dataclasses.replace(report, inversions_3x3=report.inversions_3x3 + 1)
    assert any("inversions" in p for p in wl.check(op, (config, miscounted)))


def test_gate_rejects_perturbed_displacement_result():
    wl = workloads.Displacement(SEED, ROOT)
    op = wl.op(0)
    wl.prepare(op)
    tau, config, report = wl.run(op)
    assert wl.check(op, (tau, config, report)) == []
    lengths = np.asarray(report.achieved_lengths) + np.array([2e-6, 0.0])
    off = dataclasses.replace(report, achieved_lengths=tuple(lengths))
    assert wl.check(op, (tau, config, off)) == ["reported lengths 2.000e-06 mm from target"]


def test_gate_rejects_non_json_report(tmp_path):
    wl = workloads.Sweep(SEED, ROOT, tmp_path)
    op = wl.op(0)
    wl.prepare(op)
    code = wl.run(op)
    assert wl.check(op, code) == []
    report = op["dir"] / "out" / "item_004" / "report.json"
    report.write_text(report.read_text().replace('"ok"', 'NaN', 1))
    problems = wl.check(op, code)
    assert problems and all("item_004" in p for p in problems)


def test_tracer_reports_missing_functions_as_absent():
    import rolljoint.statics as statics

    original = statics.residual
    targets = tracer.TARGETS + (
        ("statics.gone", "rolljoint.statics", "no_such_function"),
        ("surface.gone.frame_at", "rolljoint.surface", "NoSuchSurface.frame_at"),
        ("gone.module", "rolljoint.no_such_module", "anything"),
    )
    wl = workloads.Displacement(SEED, ROOT)
    op = wl.op(0)
    wl.prepare(op)
    with tracer.Tracer(targets) as tr:
        assert statics.residual is not original
        tr.op = 0
        wl.run(op)
        tr.op = None
    assert statics.residual is original
    assert tr.status["statics.gone"] == "absent"
    assert tr.status["surface.gone.frame_at"] == "absent"
    assert tr.status["gone.module"] == "absent"
    assert tr.status["statics.residual"].startswith("wrapped")
    metrics = tracer.pass_metrics(tr.take(), ops=1, items=0)
    assert metrics["solver_displacement.solve_displacement.calls_per_op"] == 1
    assert metrics["solver_tension.solves_6x6_per_iteration"] == 1.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, count = run.tail([float(v) for v in range(1, 101)])
    assert (value, percentile, count) == (90.0, 90.0, 100)
