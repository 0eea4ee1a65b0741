"""Span tracer for the traced benchmark run.

The tracer wraps the public functions listed in TARGETS, from the
benchmark's own files, without changing anything under `src/`.  Each
function is replaced by identity in every `rolljoint.*` namespace, because
modules bind names with `from .statics import residual`; surface `frame_at`
is patched on the classes.  A listed function that no longer exists is
reported as `absent`.

A span records its name, start, end, parent span and operation id; spans
stay in memory until the pass ends.  A span's self time is its duration
minus the time its child spans cover, so private helpers (not wrapped) and
`rolljoint.geometry` (called too often to wrap) count in their callers' self
time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" attributes are patched on
# the class
TARGETS = (
    ("surface.arc.frame_at", "rolljoint.surface", "CircularArc.frame_at"),
    ("surface.profile.frame_at", "rolljoint.surface", "CurvatureProfile.frame_at"),
    ("catalog.standard_link_chain", "rolljoint.catalog", "standard_link_chain"),
    ("catalog.polynomial_link_chain", "rolljoint.catalog", "polynomial_link_chain"),
    ("catalog.demo_five_link", "rolljoint.catalog", "demo_five_link"),
    ("statics.joint_geometry", "rolljoint.statics", "joint_geometry"),
    ("statics.residual", "rolljoint.statics", "residual"),
    ("statics.assemble_blocks", "rolljoint.statics", "assemble_blocks"),
    ("mechanism.forward_poses", "rolljoint.mechanism", "forward_poses"),
    ("mechanism.tendon_lengths", "rolljoint.mechanism", "tendon_lengths"),
    ("loads.net_wrench", "rolljoint.loads", "net_wrench"),
    ("loads.net_derivative", "rolljoint.loads", "net_derivative"),
    ("solver_tension.solve_tension", "rolljoint.solver_tension", "solve_tension"),
    ("solver_tension.newton_step", "rolljoint.solver_tension", "newton_step"),
    ("solver_tension.initial_forces", "rolljoint.solver_tension", "initial_forces"),
    ("solver_displacement.solve_displacement", "rolljoint.solver_displacement",
     "solve_displacement"),
    ("fileio.load_design", "rolljoint.fileio", "load_design"),
    ("fileio.scenario_from_dict", "rolljoint.fileio", "scenario_from_dict"),
    ("cli.cmd_sweep", "rolljoint.cli", "cmd_sweep"),
    ("cli.write_solution_csv", "rolljoint.cli", "write_solution_csv"),
    ("render.render_svg", "rolljoint.render", "render_svg"),
)

SOLVE_TENSION = "solver_tension.solve_tension"
SOLVE_DISPLACEMENT = "solver_displacement.solve_displacement"


def _tension_note(bound, outcome):
    report = outcome[1] if isinstance(outcome, tuple) else getattr(outcome, "report", None)
    return {
        "warm": bound.get("init") is not None,
        "ok": isinstance(outcome, tuple),
        "iterations": getattr(report, "iterations", 0),
        "backtracks": getattr(report, "backtrack_count", 0),
        "inversions_3x3": getattr(report, "inversions_3x3", 0),
        "solves_6x6": getattr(report, "solves_6x6", 0),
    }


def _displacement_note(bound, outcome):
    report = outcome[2] if isinstance(outcome, tuple) else getattr(outcome, "report", None)
    return {
        "outer": getattr(report, "outer_iterations", 0),
        "inner": getattr(report, "inner_iterations", 0),
        "backtracks": getattr(report, "backtrack_count", 0),
    }


# spans of these functions keep a summary of their arguments and result
NOTES = {SOLVE_TENSION: _tension_note, SOLVE_DISPLACEMENT: _displacement_note}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.note = None


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.op = None          # id of the operation in progress
        self.status: dict[str, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        for name, module_name, attr in self.targets:
            self.status[name] = self._install(name, module_name, attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _install(self, name, module_name, attr) -> str:
        module = sys.modules.get(module_name)
        if module is None:
            return "absent"
        if "." in attr:
            cls_name, method = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                return "absent"
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))
            return "wrapped (class)"
        original = getattr(module, attr, None)
        if original is None:
            return "absent"
        wrapper = self._wrap(name, original)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rolljoint" or mod_name.startswith("rolljoint.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    patched += 1
        return f"wrapped ({patched} namespaces)"

    def _wrap(self, name, func):
        tracer = self
        noter = NOTES.get(name)
        signature = inspect.signature(func) if noter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1, tracer.op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            outcome = None
            span.start = time.perf_counter()
            try:
                outcome = func(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if noter is not None:
                    bound = signature.bind_partial(*args, **kwargs).arguments
                    span.note = noter(bound, outcome)

        return traced

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], ops: int, items: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over `ops` operations.

    Spans outside an operation (op id None) are design builds; they feed
    `catalog.build_ms` only.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    build_ms = 0.0
    for idx, span in enumerate(spans):
        if span.op is None:
            if span.parent < 0 and span.name.startswith("catalog."):
                build_ms += (span.end - span.start) * 1e3
            continue
        calls[span.name] += 1
        self_ms[span.name] += (span.end - span.start - child[idx]) * 1e3

    def indices(name):
        return {i for i, s in enumerate(spans) if s.name == name and s.op is not None}

    tension_idx = indices(SOLVE_TENSION)
    tension = [spans[i] for i in sorted(tension_idx)]
    iterations = sum(s.note["iterations"] for s in tension)
    # every residual evaluation inside solve_tension but the initial one is
    # a line-search trial
    trials = sum(
        1 for s in spans if s.name == "statics.residual" and s.parent in tension_idx
    ) - len(tension)
    displacement_idx = indices(SOLVE_DISPLACEMENT)
    displacement = [spans[i] for i in sorted(displacement_idx)]
    inner_solves = sum(1 for s in tension if s.parent in displacement_idx)
    sweep_idx = indices("cli.cmd_sweep")
    warm_hits = sum(
        1 for s in tension if s.parent in sweep_idx and s.note["warm"] and s.note["ok"]
    )
    outer = sum(s.note["outer"] for s in displacement)

    m: dict[str, float] = {}
    for name, _, _ in TARGETS:
        if name.startswith("catalog."):
            continue
        m[f"{name}.calls_per_op"] = _ratio(calls[name], ops)
        m[f"{name}.self_ms_per_op"] = _ratio(self_ms[name], ops)
    m["catalog.build_ms"] = build_ms
    m["statics.joint_geometry.calls_per_iteration"] = _ratio(
        calls["statics.joint_geometry"], iterations)
    m["solver_tension.iterations_per_solve"] = _ratio(iterations, len(tension))
    m["solver_tension.backtracks_per_solve"] = _ratio(
        sum(s.note["backtracks"] for s in tension), len(tension))
    m["solver_tension.ms_per_iteration"] = _ratio(
        sum(s.end - s.start for s in tension) * 1e3, iterations)
    m["solver_tension.inversions_3x3_per_iteration"] = _ratio(
        sum(s.note["inversions_3x3"] for s in tension), iterations)
    m["solver_tension.solves_6x6_per_iteration"] = _ratio(
        sum(s.note["solves_6x6"] for s in tension), iterations)
    m["solver_tension.trial_accept_ratio"] = _ratio(iterations, trials)
    m["solver_displacement.outer_iterations_per_op"] = _ratio(outer, ops)
    m["solver_displacement.inner_iterations_per_op"] = _ratio(
        sum(s.note["inner"] for s in displacement), ops)
    m["solver_displacement.backtracks_per_op"] = _ratio(
        sum(s.note["backtracks"] for s in displacement), ops)
    m["solver_displacement.solve_tension_calls_per_op"] = _ratio(inner_solves, ops)
    m["solver_displacement.step_accept_ratio"] = _ratio(
        outer, inner_solves - len(displacement))
    m["cli.warm_start_hit_ratio"] = _ratio(warm_hits, items)
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
