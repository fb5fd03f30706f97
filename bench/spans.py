"""Spans around chatterlab's public functions, and per-module metrics from them.

`Tracer.install()` replaces each traced function by a wrapper that records a
span (name, start, end, parent, operation).  chatterlab modules import
library functions by name (`from .solver import regularization_path`), so
the wrapper replaces the binding in every loaded chatterlab module that
holds the original, not only in the defining module.  `uninstall()` puts
the originals back.  Spans stay in memory until `write()`.

A span's self time is its duration minus the durations of its traced
children; calls never overlap (one thread), so children tile part of their
parent's interval.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict


def _arcs_of_control(result, args, kw, exc):
    return {"fuller.arcs": len(result[0].values)} if exc is None else {}


def _infeasible(result, args, kw, exc):
    if exc is not None and type(exc).__name__ == "AllStartsInfeasible":
        return {"solver.infeasible_subproblems": 1}
    return {}


def _oracle_cells(result, args, kw, exc):
    # the grid the numpy evaluator scores: (cells + 1) ** free durations
    n_switches = args[0]
    resolution = kw.get("resolution", args[4] if len(args) > 4 else 1e-3)
    cells = max(2, int(round(1.0 / resolution)))
    return {"solver.oracle_cells": (cells + 1) ** (n_switches - 1) if n_switches > 1 else 0}


def _simulated_arcs(result, args, kw, exc):
    return {"controls.arcs_simulated": len(result.arcs)} if exc is None else {}


def _execution(result, args, kw, exc):
    traj = result if exc is None else getattr(exc, "trajectory", None)
    if traj is None:
        return {}
    # one RK4 step per grid interval; bisection probes are not stored
    return {"hybrid.events": traj.n_events,
            "hybrid.rk4_steps": sum(len(arc.times) - 1 for arc in traj.arcs)}


def _frozen_steps(result, args, kw, exc):
    return {"hybrid.frozen_steps": len(result.arcs[-1].times) - 1} if exc is None else {}


def _written_bytes(result, args, kw, exc):
    return {"records.bytes": result.stat().st_size} if exc is None else {}


def _samples_of(whole: bool):
    def count(result, args, kw, exc):
        if exc is not None:
            return {}
        arcs = args[0].arcs if whole else args[0].arcs[-2:]
        return {"hybrid.quadrature_samples": sum(len(arc.times) for arc in arcs)}
    return count


#: (defining module, function, span name, counter of the call's work)
TARGETS = (
    ("chatterlab.cli", "main", "cli.self", None),
    ("chatterlab.fuller", "synthesize_chattering", "fuller.synth", _arcs_of_control),
    ("chatterlab.solver", "regularization_path", "solver.path", None),
    ("chatterlab.solver", "optimize_durations", "solver.subproblem", _infeasible),
    ("chatterlab.solver", "brute_force_oracle", "solver.oracle", _oracle_cells),
    ("chatterlab.truncation", "truncate", "truncation.truncate", None),
    ("chatterlab.truncation", "sup_state_deviation", "truncation.sup_dev", None),
    ("chatterlab.truncation", "l1_control_distance", "truncation.l1", None),
    ("chatterlab.truncation", "composite_rate_bound", "truncation.bound", None),
    ("chatterlab.controls", "simulate", "controls.simulate", _simulated_arcs),
    ("chatterlab.controls", "lagrangian_cost", "controls.cost", None),
    ("chatterlab.hybrid", "execute", "hybrid.execute", _execution),
    ("chatterlab.hybrid", "detect_zeno", "hybrid.detect", None),
    ("chatterlab.hybrid", "truncate_zeno", "hybrid.truncate", _frozen_steps),
    ("chatterlab.hybrid", "hybrid_cost", "hybrid.quadrature", _samples_of(True)),
    ("chatterlab.hybrid", "zeno_tail_cost", "hybrid.quadrature", _samples_of(False)),
    ("chatterlab.hybrid", "zeno_rate_sweep", "hybrid.sweep_self", None),
    ("chatterlab.ratefit", "fit_power_law", "ratefit.fit", None),
    ("chatterlab.records", "write_csv", "records.write", _written_bytes),
    ("chatterlab.records", "write_manifest", "records.write", _written_bytes),
)

#: per-module metrics (name, unit), reported per traced operation; an "ms"
#: metric is the self time of the span named by dropping "_ms"
METRICS = (
    ("cli.self_ms", "ms"),
    ("fuller.synth_ms", "ms"), ("fuller.synth_calls", "count"), ("fuller.arcs", "count"),
    ("solver.path_ms", "ms"),
    ("solver.subproblem_ms", "ms"), ("solver.subproblems", "count"),
    ("solver.infeasible_subproblems", "count"),
    ("solver.oracle_ms", "ms"), ("solver.oracle_cells", "count"),
    ("truncation.truncate_ms", "ms"), ("truncation.truncations", "count"),
    ("truncation.sup_dev_ms", "ms"), ("truncation.sup_dev_calls", "count"),
    ("truncation.l1_ms", "ms"), ("truncation.bound_ms", "ms"),
    ("controls.simulate_ms", "ms"), ("controls.arcs_simulated", "count"),
    ("controls.cost_ms", "ms"),
    ("hybrid.execute_ms", "ms"), ("hybrid.events", "count"), ("hybrid.rk4_steps", "count"),
    ("hybrid.detect_ms", "ms"), ("hybrid.truncate_ms", "ms"), ("hybrid.frozen_steps", "count"),
    ("hybrid.quadrature_ms", "ms"), ("hybrid.quadrature_samples", "count"),
    ("hybrid.sweep_self_ms", "ms"),
    ("ratefit.fit_ms", "ms"), ("ratefit.fits", "count"),
    ("records.write_ms", "ms"), ("records.bytes", "bytes"),
)

#: metrics that count spans of one name
_CALL_COUNTS = {
    "fuller.synth_calls": "fuller.synth",
    "solver.subproblems": "solver.subproblem",
    "truncation.truncations": "truncation.truncate",
    "truncation.sup_dev_calls": "truncation.sup_dev",
    "ratefit.fits": "ratefit.fit",
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(float)
        self.op = None           # identifier shared by the spans of one operation
        self._stack = []
        self._child_time = []
        self._self_time = defaultdict(float)
        self._calls = defaultdict(int)
        self._patched = []       # (module, attribute, original)

    def _wrap(self, span_name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append([span_name, 0.0, 0.0, parent, tracer.op])
            tracer._stack.append(index)
            tracer._child_time.append(0.0)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kw)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                children = tracer._child_time.pop()
                duration = end - start
                if tracer._child_time:
                    tracer._child_time[-1] += duration
                span = tracer.spans[index]
                span[1], span[2] = start, end
                tracer._self_time[span_name] += duration - children
                tracer._calls[span_name] += 1
                if counter is not None:
                    for key, value in counter(result, args, kw, exc).items():
                        tracer.counts[key] += value

        return traced

    def install(self):
        """Wrap every target in every loaded chatterlab module binding it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "chatterlab" or name.startswith("chatterlab.")]
        for mod_name, attr, span_name, counter in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def metrics(self, n_ops: int) -> dict:
        """Per-operation self times (ms) and counts for every METRICS name."""
        out = {}
        for name, unit in METRICS:
            if name in _CALL_COUNTS:
                value = self._calls[_CALL_COUNTS[name]]
            elif unit == "ms":
                value = self._self_time[name[:-3]] * 1e3
            else:
                value = self.counts[name]
            out[name] = {"value": value / n_ops, "unit": unit}
        return out

    def write(self, path):
        """Spans as JSON lines: name, start and end (s), parent index, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
        return path


def overhead_pct(untraced_ms, traced_ms) -> float:
    """Median over operations of the traced/untraced time ratio, as a
    percentage above 1; the two lists run the same inputs pairwise."""
    ratios = [t / u for u, t in zip(untraced_ms, traced_ms) if u > 0.0]
    return (statistics.median(ratios) - 1.0) * 100.0 if ratios else math.nan
