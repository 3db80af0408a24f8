"""Spans around the public functions of each spavg layer, recorded from outside.

The benchmark does not touch the package: `install` replaces module globals
and class attributes with wrappers that record one span per call. A span is
(name, start, end, parent, macro_steps, micro_steps); the parent is the index
of the enclosing span, -1 for the root. Spans stay in memory and are written
once, with the run id, when the traced run ends.

Layers are the package modules. The root span `experiments` covers the whole
`spavg.cli.main` call, so its self time is the command line, the loops of
the run_* experiment functions and the CSV writers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

ROOT = "experiments"


def _coupled_steps(result, args, kwargs):
    path = result[1]
    if path is None:
        return 0, 0
    return path.n_macro, path.n_macro * path.n_sub


def _averaged_steps(result, args, kwargs):
    return result.x.shape[0] - 1, 0


def _replayed_steps(result, args, kwargs):
    noise = args[2] if len(args) > 2 else kwargs["noise"]
    return noise.n_macro, noise.n_macro * noise.n_sub


# (module[:class], attribute, span name, work counter). The run_* functions
# reach integrators, blocks and averaging through names bound in
# spavg.experiments; slow_drift and estimate_fbar are called from inside
# integrators and averaging, so they are wrapped where those modules bind them.
TARGETS = (
    ("spavg.experiments", "simulate_coupled", "integrators.simulate_coupled", _coupled_steps),
    ("spavg.experiments", "simulate_averaged", "integrators.simulate_averaged", _averaged_steps),
    ("spavg.experiments", "strong_error", "integrators.strong_error", None),
    ("spavg.integrators:TrajectoryStats", "__init__", "integrators.trajectory_stats", None),
    ("spavg.integrators:TrajectoryStats", "increment_integral", "integrators.trajectory_stats", None),
    ("spavg.integrators", "slow_drift", "operators.slow_drift", None),
    ("spavg.averaging", "estimate_fbar", "averaging.estimate_fbar", None),
    ("spavg.averaging:OracleFbar", "__call__", "averaging.oracle_fbar", None),
    ("spavg.averaging:MemoizedFbar", "__call__", "averaging.memoized_fbar", None),
    ("spavg.experiments", "ergodicity_decay", "averaging.ergodicity_decay", None),
    ("spavg.experiments", "build_auxiliary", "blocks.build_auxiliary", _replayed_steps),
    ("spavg.experiments", "deviation_statistic", "blocks.deviation_statistic", None),
)
NORM_SPAN = "grid.norm_values"
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(t[2] for t in TARGETS)) + (NORM_SPAN,)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4], span[5] = work(result, args, kwargs)
            return result

        return traced

    def run_root(self, fn, *args):
        return self.wrap(ROOT, fn)(*args)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent", "macro_steps", "micro_steps"],
                    "spans": self.spans,
                },
                fh,
            )


def install(tracer: Tracer) -> None:
    """Wrap every target; call once, after spavg is imported."""
    for owner_path, attribute, name, work in TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), work))
    grid = importlib.import_module("spavg.grid")
    norm_values = grid.norm_values
    traced_norm = tracer.wrap(NORM_SPAN, norm_values)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("spavg") and getattr(module, "norm_values", None) is norm_values:
            module.norm_values = traced_norm


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, self time and step counts per span name, plus the traced wall.

    Self time is a span's duration minus the durations of its direct children;
    spans nest strictly, so the self times add up to the root durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "macro_steps": 0, "micro_steps": 0}
    )
    wall = 0.0
    for index, (name, start, end, parent, macro, micro) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        entry["macro_steps"] += macro
        entry["micro_steps"] += micro
        if parent < 0:
            wall += end - start
    summary = {name: dict(totals[name]) for name in SPAN_NAMES}
    summary["trace"] = {"wall_s": wall}
    return summary


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json (apart from the run-level ones).

    Self times of functions that only some workloads call are given as
    shares of the traced wall, so a function a workload never calls reads
    as a share of 0 rather than as a time.
    """
    wall = summary["trace"]["wall_s"]
    coupled = summary["integrators.simulate_coupled"]
    averaged = summary["integrators.simulate_averaged"]
    drift = summary["operators.slow_drift"]
    oracle = summary["averaging.oracle_fbar"]
    memoized = summary["averaging.memoized_fbar"]
    estimator = summary["averaging.estimate_fbar"]
    replay = summary["blocks.build_auxiliary"]
    norms = summary[NORM_SPAN]
    provider_calls = oracle["calls"] + memoized["calls"]
    slow_steps = coupled["macro_steps"] + averaged["macro_steps"]
    metrics = {
        "integrators.micro_steps": (coupled["micro_steps"], "count"),
        "integrators.simulate_coupled.calls": (coupled["calls"], "count"),
        "integrators.simulate_averaged.calls": (averaged["calls"], "count"),
        "integrators.averaged_macro_steps": (averaged["macro_steps"], "count"),
        "operators.slow_drift.calls": (drift["calls"], "count"),
        "operators.slow_drift.calls_per_macro_step": (
            drift["calls"] / slow_steps if slow_steps else 0.0,
            "1/step",
        ),
        "averaging.fbar_provider.calls": (provider_calls, "count"),
        "averaging.estimate_fbar.calls": (estimator["calls"], "count"),
        "averaging.fbar_hit_ratio": (
            1.0 - estimator["calls"] / provider_calls if provider_calls else 1.0,
            "ratio",
        ),
        "blocks.build_auxiliary.calls": (replay["calls"], "count"),
        "blocks.replay_micro_steps": (replay["micro_steps"], "count"),
        "grid.norm_values.calls": (norms["calls"], "count"),
        "integrators.simulate_coupled.self_s": (coupled["self_s"], "s"),
        "integrators.coupled_us_per_micro_step": (
            1e6 * coupled["self_s"] / coupled["micro_steps"] if coupled["micro_steps"] else 0.0,
            "us",
        ),
        "grid.norm_values.self_s": (norms["self_s"], "s"),
        "experiments.self_s": (summary[ROOT]["self_s"], "s"),
        "trace.wall_s": (wall, "s"),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.share"] = (summary[name]["self_s"] / wall, "frac")
    return metrics
