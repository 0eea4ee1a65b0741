"""rolljoint benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload displacement --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Workloads: displacement and sweep (listed in BENCHMARK.json),
long_chain and hard_cases (run by name; see README.md).

`--trace 0` runs a closed loop with one client over a fixed number of
distinct seeded requests (the number follows from the workload and
`--seconds`), times every execution, gates every result outside the timed
region, and reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
runs a fixed, seeded list of operations in alternating untraced and traced
passes and reports the per-layer metrics of BENCHMARK.json plus the
printed-only ones of tracer.py.  Human-readable lines come first; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 10
# a run that is this many times slower than `--seconds` stops sending
# requests, so that a much slower commit still ends in time
TIME_CAP = 2.5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import rolljoint from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rolljoint" / "__init__.py").is_file():
        raise BenchError(f"no rolljoint sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import rolljoint

    if Path(rolljoint.__file__).resolve().parent != (src / "rolljoint").resolve():
        raise BenchError(f"rolljoint imported from {rolljoint.__file__}, not {src}")
    import tracer
    import workloads

    return workloads, tracer


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the BENCHMARK.json metrics of one kind
    (`end_to_end` or `per_layer`)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- noise diagnostics -------------------------------------------------------

def reference_ms() -> float:
    """Median time of a fixed mix of small numpy solves and Python
    arithmetic, the kind of work the solvers do; it moves only with the
    machine."""
    import numpy as np

    matrix = np.eye(6) * 4.0 + np.arange(36.0).reshape(6, 6) * 1e-2
    rhs = np.ones((6, 1))
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(400):
            np.linalg.solve(matrix, rhs)
        total = 0.0
        for k in range(40000):
            total += (k % 7) * 0.5
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = "unknown"
    threads = [f"{var}={os.environ[var]}" for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if var in os.environ]
    facts["blas_threads"] = ",".join(threads) or "library default (no thread variable set)"
    return facts


# --- measurement -------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Outcome:
    """Result of one operation: its latency, and the failure if any."""

    __slots__ = ("latency", "error", "problems", "counts")

    def __init__(self, latency, error, problems, counts):
        self.latency = latency
        self.error = error
        self.problems = problems
        self.counts = counts

    @property
    def failure(self):
        if self.error is not None:
            return self.error
        return "gate" if self.problems else None


def execute(wl, op: dict, gate: bool = True) -> Outcome:
    """Run one prepared operation; only the call itself is timed."""
    start = time.perf_counter()
    try:
        result = wl.run(op)
    except Exception as exc:  # every failure is counted by its type
        latency = time.perf_counter() - start
        return Outcome(latency, type(exc).__name__, [str(exc)], {})
    latency = time.perf_counter() - start
    problems = wl.check(op, result) if gate else []
    counts = wl.counts(op, result) if not problems else {}
    return Outcome(latency, None, problems, counts)


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples)."""
    ordered = sorted(latencies_ms)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def run_end_to_end(workloads, name: str, seed: int, seconds: float, work_dir: Path):
    """Closed loop, one client: requests 0, 1, 2, ... of the seeded stream,
    each prepared, sent once, gated and cleaned up in turn.  The number of
    requests is fixed by the workload and `--seconds` (whole input cycles,
    as many as take about `--seconds` on the machine the benchmark was
    tuned on), so every commit runs the same requests and the tail is the
    same percentile.  Every execution is timed, the first one too; only a
    commit more than TIME_CAP times slower stops early."""
    setup = setup_seconds(name, seed)
    wl = workloads.WORKLOADS[name](seed, ROOT, work_dir)
    count = wl.cycle * max(1, round(seconds / wl.cycle_seconds))
    outcomes: list[Outcome] = []
    timed = 0.0
    for index in range(count):
        if timed >= TIME_CAP * seconds:
            break
        op = wl.op(index)
        wl.prepare(op)
        outcome = execute(wl, op)
        wl.cleanup(op)
        outcomes.append(outcome)
        timed += outcome.latency
    return setup, outcomes, count


def run_traced(workloads, tracer_mod, name: str, seed: int, seconds: float, work_dir: Path):
    """Alternate untraced and traced passes over the same seeded operations
    until `seconds` are used (at least one pair).  The untraced passes are
    gated; the traced ones are not, so the gate's own calls stay out of the
    spans."""
    wl = workloads.WORKLOADS[name](seed, ROOT, work_dir)
    ops = [wl.op(i) for i in range(wl.trace_ops)]
    for op in ops:
        wl.prepare(op)

    def timed_pass(gate):
        outcomes = []
        for op in ops:
            outcomes.append(execute(wl, op, gate))
            wl.cleanup(op)
        return outcomes

    def traced_pass(tracer):
        tracer.op = None
        wl.build_designs()
        outcomes = []
        for i, op in enumerate(ops):
            tracer.op = i
            outcomes.append(execute(wl, op, gate=False))
            wl.cleanup(op)
        tracer.op = None
        return outcomes

    timed_pass(gate=False)  # the overhead pairs compare warm passes
    passes, overheads, gated = [], [], []
    used = 0.0
    while not passes or used < seconds:
        plain = timed_pass(gate=True)
        with tracer_mod.Tracer() as tracer:
            traced = traced_pass(tracer)
            status = dict(tracer.status)
        passes.append(tracer_mod.pass_metrics(
            tracer.take(), len(ops), wl.items_per_op * len(ops)))
        plain_s = sum(o.latency for o in plain)
        traced_s = sum(o.latency for o in traced)
        overheads.append(traced_s / plain_s - 1.0)
        used += plain_s + traced_s
        gated += plain
    merged = tracer_mod.median_metrics(passes)
    merged["trace.overhead_share"] = statistics.median(overheads)
    return merged, gated, status, len(passes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failure_summary(outcomes: list[Outcome]) -> Counter:
    return Counter(o.failure for o in outcomes if o.failure is not None)


def print_json(outcomes, failures, metrics: dict) -> None:
    result = {
        "correct": not failures.get("gate"),
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads, tracer_mod = import_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2

    facts = machine_facts()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    ref_start = reference_ms()
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            merged, outcomes, status, passes = run_traced(
                workloads, tracer_mod, args.workload, args.seed, args.seconds, work_dir)
        else:
            setup, outcomes, planned = run_end_to_end(
                workloads, args.workload, args.seed, args.seconds, work_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    ref_end = reference_ms()
    print(f"machine.ref_ms start={ref_start:.4f} end={ref_end:.4f}")

    for i, outcome in enumerate(outcomes):
        for problem in outcome.problems if outcome.failure == "gate" else ():
            print(f"gate: op {i}: {problem}")
    failures = failure_summary(outcomes)
    attempted = len(outcomes)
    print(f"ops attempted={attempted} failed={sum(failures.values())} "
          f"failed_share={sum(failures.values()) / attempted:.6g} "
          + " ".join(f"failed.{k}={v}" for k, v in sorted(failures.items())))
    totals = Counter()
    for o in outcomes:
        totals.update(o.counts)
    print("counts (exact, all gated ops) " + " ".join(f"{k}={v}" for k, v in sorted(totals.items())))
    print(f"gate: {'pass' if not failures.get('gate') else 'FAIL'} "
          f"({failures.get('gate', 0)} of {attempted} ops rejected)")

    if args.trace:
        print(f"trace passes={passes} ops_per_pass={attempted // passes}")
        for name, state in status.items():
            print(f"trace.target {name}: {state}")
        merged["failed.gate"] = float(failures.get("gate", 0))
        for key in sorted(merged):
            print(f"layer {key} = {merged[key]:.6g}")
        units = metric_units("per_layer")
        missing = sorted(set(units) - set(merged))
        if missing:
            print(f"perfbench: no per-layer value for {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {key: {"value": merged[key], "unit": unit} for key, unit in units.items()}
        print_json(outcomes, failures, metrics)
        return 0

    latencies = [o.latency * 1e3 for o in outcomes]
    tail_ms, tail_pct, samples = tail(latencies)
    ok = sum(1 for o in outcomes if o.failure is None)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / sum(o.latency for o in outcomes),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    units = metric_units("end_to_end")
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
    for key, unit in units.items():
        print(f"metric {key} = {values[key]:.6g} {unit}")
    print(f"metric failed_share = {sum(failures.values()) / attempted:.6g} ratio")
    print(f"latency_ms_tail is p{tail_pct:.2f} of {samples} samples")
    print(f"requests sent={attempted} of {planned} planned, timed seconds="
          f"{sum(o.latency for o in outcomes):.3f}")
    # drift within the run: the same mix of requests, slower in one tenth
    # than another with identical counts, is the machine
    tenths = [latencies[k * attempted // 10:(k + 1) * attempted // 10] for k in range(10)]
    print("latency_ms_p50 per tenth of the run "
          + " ".join(f"{statistics.median(t):.2f}" for t in tenths if t))
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print_json(outcomes, failures, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
