"""In-process span tracer for the mmlab layers.

The tracer replaces a function by a timing wrapper *in the module that
calls it*.  mmlab modules import each other with ``from .x import f``,
so ``simulate.stacked_eigenvalues`` and ``linalg.stacked_eigenvalues``
are two names for one function, and only the first is looked up by the
engine at call time; wrapping ``linalg`` alone would record nothing.

Spans are kept in memory.  A span's self time is its duration minus the
part of it that its child spans cover.  Worker processes started by
``montecarlo.run_batch`` re-import mmlab and do not see the wrappers, so
a trace of a multi-worker run covers the parent process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call of a wrapped function."""

    group: str
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``install`` wraps functions, ``restore`` unwraps them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, group, name, fn, args, kwargs, around=None):
        """Run ``fn`` inside a span; ``around(fn, args, kwargs, counts)``
        may replace the plain call to record counts."""
        parent = self._stack[-1] if self._stack else None
        span = Span(group, name, self.clock(), parent=parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            if around is None:
                return fn(*args, **kwargs)
            return around(fn, args, kwargs, span.counts)
        finally:
            self._stack.pop()
            span.end = self.clock()

    def wrap(self, module, attr: str, group: str, around=None) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(group, name, original, args, kwargs, around)

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def install(self, bindings) -> "Tracer":
        for module_name, attr, group, around in bindings:
            self.wrap(importlib.import_module(module_name), attr, group, around)
        return self

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# --- what to count at each boundary -------------------------------------


def _count_matrices(fn, args, kwargs, counts):
    a = args[0] if args else kwargs["a"]
    counts["matrices"] = math.prod(a.shape[:-2])
    return fn(*args, **kwargs)


def _count_bytes(fn, args, kwargs, counts):
    text = fn(*args, **kwargs)
    counts["bytes"] = len(text.encode())
    return text


def _count_resamples(fn, args, kwargs, counts):
    """Resamples actually drawn: calls of the statistic minus the point
    estimate (a constant sample returns before resampling)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    statistic = bound.arguments["statistic"]
    calls = 0

    def counted(values):
        nonlocal calls
        calls += 1
        return statistic(values)

    bound.arguments["statistic"] = counted
    try:
        return fn(*bound.args, **bound.kwargs)
    finally:
        counts["resamples"] = max(calls - 1, 0)


def _count_blocks(fn, args, kwargs, counts):
    """Block schedule implied by run_batch's arguments: one block per
    ``block_size`` paths, handed to min(workers, blocks) processes one
    block at a time (a single process when workers == 1)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    config, workers = bound.arguments["config"], bound.arguments["workers"]
    blocks = -(-config.paths // config.block_size)
    procs = 1 if workers == 1 else min(workers, blocks)
    counts["blocks"] = blocks
    counts["max_blocks_per_worker"] = -(-blocks // procs)
    return fn(*args, **kwargs)


# (calling module, name bound there, metric group, counter)
BINDINGS = (
    ("mmlab.cli", "parse_settings", "config", None),
    ("mmlab.cli", "run_verify", "report.verify", None),
    ("mmlab.cli", "emit_report", "report.write", None),
    ("mmlab.report", "render_csv", "report", _count_bytes),
    ("mmlab.report", "render_json", "report", _count_bytes),
    ("mmlab.checks", "run_batch", "batch", _count_blocks),
    ("mmlab.checks", "evaluate_checks", "checks", None),
    ("mmlab.checks", "bootstrap_ci", "interval", _count_resamples),
    ("mmlab.checks", "wilson_interval", "interval", None),
    ("mmlab.montecarlo", "simulate_block", "engine", None),
    ("mmlab.simulate", "brownian_increments", "rng", None),
    ("mmlab.simulate", "stacked_eigenvalues", "eigen", _count_matrices),
    ("mmlab.simulate", "schatten_from_eigenvalues", "collectors", None),
    ("mmlab.simulate", "feedback_sum_squares", "integrand", None),
    ("mmlab.simulate", "feedback_sum", "integrand", None),
    ("mmlab.simulate", "deterministic_sum_squares", "integrand", None),
    ("mmlab.simulate", "deterministic_sum", "integrand", None),
)

# per-layer metric -> unit; the order is the order of the report
LAYER_UNITS = {
    "eigen.busy_s": "s",
    "eigen.calls": "count",
    "eigen.matrices": "count",
    "eigen.matrices_per_path_step": "1/path-step",
    "interval.busy_s": "s",
    "interval.calls": "count",
    "interval.resamples": "count",
    "rng.busy_s": "s",
    "rng.calls": "count",
    "integrand.busy_s": "s",
    "integrand.calls": "count",
    "collectors.busy_s": "s",
    "engine.self_s": "s",
    "batch.wall_s": "s",
    "batch.self_s": "s",
    "batch.blocks": "count",
    "batch.max_blocks_per_worker": "count",
    "checks.self_s": "s",
    "report.busy_s": "s",
    "report.bytes": "B",
    "config.busy_s": "s",
    "trace.coverage": "share",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between traced runs of one workload
EXACT_COUNTS = ("eigen.calls", "eigen.matrices", "interval.resamples")

# metric prefixes of the layers inside simulate_block, which run in the
# pool workers when workers > 1
WORKER_LAYERS = ("eigen.", "rng.", "integrand.", "collectors.", "engine.")


def layer_metrics(spans: list[Span], wall: float, path_steps: int) -> dict[str, float]:
    """Per-layer figures of one traced CLI run that took ``wall`` seconds.

    ``trace.overhead_s`` needs an untraced run and is added by the caller.
    """
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        busy[s.group] = busy.get(s.group, 0.0) + s.duration
        own[s.group] = own.get(s.group, 0.0) + st
        calls[s.group] = calls.get(s.group, 0) + 1
        for key, value in s.counts.items():
            counts[f"{s.group}.{key}"] = counts.get(f"{s.group}.{key}", 0) + value
    return {
        "eigen.busy_s": busy.get("eigen", 0.0),
        "eigen.calls": calls.get("eigen", 0),
        "eigen.matrices": counts.get("eigen.matrices", 0),
        "eigen.matrices_per_path_step": counts.get("eigen.matrices", 0) / path_steps,
        "interval.busy_s": busy.get("interval", 0.0),
        "interval.calls": calls.get("interval", 0),
        "interval.resamples": counts.get("interval.resamples", 0),
        "rng.busy_s": busy.get("rng", 0.0),
        "rng.calls": calls.get("rng", 0),
        "integrand.busy_s": busy.get("integrand", 0.0),
        "integrand.calls": calls.get("integrand", 0),
        "collectors.busy_s": busy.get("collectors", 0.0),
        "engine.self_s": own.get("engine", 0.0),
        "batch.wall_s": busy.get("batch", 0.0),
        "batch.self_s": own.get("batch", 0.0),
        "batch.blocks": counts.get("batch.blocks", 0),
        "batch.max_blocks_per_worker": counts.get("batch.max_blocks_per_worker", 0),
        "checks.self_s": own.get("checks", 0.0),
        "report.busy_s": busy.get("report", 0.0),
        "report.bytes": counts.get("report.bytes", 0),
        "config.busy_s": busy.get("config", 0.0),
        "trace.coverage": sum(selfs) / wall,
    }
