"""The traced benchmark's hold on the program.

`bench/spans.py` wraps chatterlab functions by module and name and counts
their work from what they return (for instance `HybridArc.times`).  A
renamed function or a dropped field would first show as a failed benchmark;
this test makes it fail here: one traced zeno-rate run per built-in model
and one truncation-rate run must resolve every target and give a finite
value for every per-module metric.
"""

import importlib.util
import math
import sys
from pathlib import Path

from chatterlab import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_resolve_every_target_and_give_finite_metrics(tmp_path):
    spans = _load_spans()
    runs = [["zeno-rate", "--model", "water-tank", "--n", "2:12"],
            ["zeno-rate", "--model", "bouncing-ball", "--n", "2:8"],
            ["truncation-rate", "--x0", "1,0"]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(mod.__name__, attr) for mod, attr, _ in tracer._patched}
        for mod_name, attr, _, _ in spans.TARGETS:
            assert (mod_name, attr) in patched, f"{mod_name}.{attr} not traced"
        for k, argv in enumerate(runs):
            tracer.op = k
            assert cli.main(argv + ["--out", str(tmp_path / str(k))]) == 0
    finally:
        tracer.uninstall()
    for mod_name, attr, _, _ in spans.TARGETS:
        assert not hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__")
    metrics = tracer.metrics(len(runs))
    assert [name for name, _ in spans.METRICS] == list(metrics)
    assert all(math.isfinite(m["value"]) for m in metrics.values()), metrics
    assert metrics["hybrid.events"]["value"] > 0
    assert metrics["truncation.sup_dev_calls"]["value"] > 0
