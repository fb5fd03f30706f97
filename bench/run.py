"""chatterlab benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload reg-path --seed 1 --trace 0
    python3 bench/run.py --seed 1                     # every workload in turn

The run length is `run_seconds` of BENCHMARK.json; `--seconds` is accepted
only with that value, so both sides of a comparison measure equally long.

Run from the root of a source checkout; chatterlab is imported from its
`src/` directory and nothing is installed.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_ms_p50, peak_rss_mb); with --trace 1 they are the per-module metrics of
spans.METRICS plus setup.import_ms, setup.constant_ms and the tracing
overhead.  A run record (machine, versions, per-operation times, CSV
digests) is written under bench/out/runs/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: the caller's environment, which the set-up children get: setup_s is the
#: start-up a user sees, BLAS thread start included
USER_ENV = dict(os.environ)

# one thread: numpy's BLAS would otherwise start a worker per CPU, and the
# timed loop is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the thread settings)

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: the one run length, shared with the harness that calls this script
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

#: fresh interpreters timed per run for setup_s, spread evenly over the
#: timed loop so that no single phase of the host decides the median
SETUP_REPEATS = 15

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}

# Fresh interpreter: import the CLI, then the cold Fuller constant.  Times
# are CLOCK_MONOTONIC, which the parent shares, so the parent can measure
# from just before it spawned the child.
_SETUP_CHILD = """
import json, sys, time
clock = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
t0 = clock()
sys.path.insert(0, sys.argv[1])
import chatterlab.cli
t1 = clock()
chatterlab.cli.default_synthesis()
t2 = clock()
print(json.dumps({"start": t0, "imported": t1, "done": t2,
                  "file": chatterlab.__file__}))
"""


def _inside(path, directory: Path) -> bool:
    try:
        Path(path).resolve().relative_to(directory.resolve())
        return True
    except ValueError:
        return False


def setup_sample():
    """One fresh interpreter: (total s, import ms, cold constant ms)."""
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)],
                          env=USER_ENV, capture_output=True, text=True, timeout=120,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    stamp = json.loads(proc.stdout.strip().splitlines()[-1])
    if not _inside(stamp["file"], SRC):
        raise RuntimeError(f"setup child imported {stamp['file']}, not {SRC}")
    return (stamp["done"] - t_spawn, (stamp["imported"] - stamp["start"]) * 1e3,
            (stamp["done"] - stamp["imported"]) * 1e3)


def summarize_setup(samples):
    """Medians of the set-up samples, and the samples themselves."""
    totals, imports, constants = zip(*samples)
    return {"setup_s": statistics.median(totals),
            "import_ms": statistics.median(imports),
            "constant_ms": statistics.median(constants),
            "samples_s": list(totals)}


def import_chatterlab():
    """Import chatterlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "chatterlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no chatterlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chatterlab
    if not _inside(chatterlab.__file__, SRC):
        raise SystemExit(f"error: imported {chatterlab.__file__}, not {SRC}")
    return chatterlab


def git_head():
    """Commit of the checkout from .git files (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def attempt(op, tracer=None):
    """Run one operation and check its outputs.

    Returns (ms, failed, csv digests, problem text or None); an operation
    fails when the program raises or exits nonzero, and a failed check is a
    problem with the outputs of an operation that did not fail."""
    if tracer is not None:
        tracer.op = op.index
        tracer.install()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            outcome = op.run()
        ms = (time.perf_counter() - start) * 1e3
    except Exception:
        ms = (time.perf_counter() - start) * 1e3
        return ms, True, None, "failed:\n" + traceback.format_exc() + err.getvalue()
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        return ms, False, op.check(outcome), None
    except checks.CheckFailed as exc:
        return ms, False, None, str(exc)


def run_workload(args, workload_class, chatterlab, t_process: float) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    work = OUT / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    workload = workload_class(args.seed, work)
    chatterlab.default_synthesis()  # the cold constant belongs to setup_s
    tracer = spans.Tracer() if args.trace else None

    ops, problems, setup_samples = [], [], []
    correct = True
    # one untimed, uncounted operation on an input of its own (index -1),
    # so that first-call costs stay out of the timed loop
    _, failed, _, problem = attempt(workload.op(-1))
    if problem is not None:
        correct = correct and failed  # a failed op is counted, not wrong
        problems.append(f"warm-up op: {problem}")
    k = 0
    loop_s = 0.0  # time in the loop's rounds; set-up spawns are not counted
    while loop_s < RUN_SECONDS:
        due = 1 + int(SETUP_REPEATS * loop_s / RUN_SECONDS)
        while len(setup_samples) < due:
            setup_samples.append(setup_sample())
        round_start = time.perf_counter()
        for _ in range(workload.round_size):
            op = workload.op(k)
            k += 1
            record = {"index": op.index, "label": op.label, "inputs": op.inputs}
            if tracer is None:
                ms, failed, digests, problem = attempt(op)
            else:
                # untraced and traced back to back on the same input, in
                # alternating order, for a paired overhead estimate; tracing
                # must leave the written CSVs byte for byte the same
                order = (None, tracer) if op.index % 2 == 0 else (tracer, None)
                pair = {t is not None: attempt(op, t) for t in order}
                ms, failed, digests, problem = pair[False]
                t_ms, t_failed, t_digests, t_problem = pair[True]
                record["traced_ms"] = t_ms
                failed = failed or t_failed
                problem = problem or t_problem
                if problem is None and digests != t_digests:
                    problem = f"traced run wrote other CSVs: {t_digests} vs {digests}"
            record.update(ms=ms, failed=failed, csv_sha256=digests, **op.notes)
            if problem is not None:
                correct = correct and failed  # a failed op is counted, not wrong
                problems.append(f"op {op.index} ({op.label} {op.inputs}): {problem}")
            ops.append(record)
        loop_s += time.perf_counter() - round_start
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(setup_sample())
    setup = summarize_setup(setup_samples)

    try:
        extra = workload.extra_checks()
    except Exception as exc:  # a raise here leaves the identities unverified
        correct = False
        extra = {"failed": repr(exc)}
        problems.append(f"extra check: {exc!r}")

    done = [r for r in ops if not r["failed"]]
    attempted, failed = len(ops), len(ops) - len(done)
    # per-(count, sign) solver-vs-oracle misses (oracle workload only)
    misses = sum(r.get("collapsed_misses", 0) for r in done)
    oracle = {"collapsed_misses": misses,
              "ops_with_miss": sum(1 for r in done if r.get("collapsed_misses")),
              "worst_rel_excess": max((r.get("worst_rel_excess", 0.0) for r in done),
                                      default=0.0)}
    if tracer is None:
        busy_s = sum(r["ms"] for r in done) / 1e3
        values = {
            "setup_s": setup["setup_s"],
            "ops_per_s": len(done) / busy_s if busy_s > 0 else 0.0,
            "op_ms_p50": statistics.median(r["ms"] for r in done) if done else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    else:
        metrics = tracer.metrics(max(1, len(done)))
        metrics["setup.import_ms"] = {"value": setup["import_ms"], "unit": "ms"}
        metrics["setup.constant_ms"] = {"value": setup["constant_ms"], "unit": "ms"}
        metrics["solver.collapsed_misses"] = {"value": misses / max(1, len(done)),
                                              "unit": "count"}
        metrics["trace.overhead_pct"] = {
            "value": spans.overhead_pct([r["ms"] for r in done],
                                        [r["traced_ms"] for r in done]),
            "unit": "%"}
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{tag}.jsonl")

    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": RUN_SECONDS,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "chatterlab": chatterlab.__version__, "git_head": git_head(),
        "attempted": attempted, "failed": failed, "correct": correct,
        "loop_s": loop_s, "elapsed_s": time.perf_counter() - t_process,
        "setup": setup, "extra_checks": extra, "oracle_collapsed": oracle,
        "metrics": metrics,
        "problems": problems, "ops": ops,
    }
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{tag}.json").write_text(json.dumps(run_record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for line in problems:
        print(line, file=sys.stderr)
    if oracle["collapsed_misses"]:
        print(f"oracle: the solver missed {misses} collapsed optima of their own "
              f"(count, sign) in {oracle['ops_with_miss']} of {len(done)} operations; "
              f"worst excess {oracle['worst_rel_excess']:.3g} relative", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own fresh process; prints one table."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names) + 2
    print(f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:>14}" for w in results))
    for metric in names:
        unit = results[next(iter(results))]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>14.4g}" for r in results.values())
        print(f"{metric:<{width}}{unit:<8}{cells}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<{width}}{'':<8}" + "".join(f"{str(r[key]):>14}" for r in results.values()))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="reg-path, oracle, truncation, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"must be run_seconds of BENCHMARK.json ({RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_process = time.perf_counter()
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}, the run_seconds of BENCHMARK.json")
    chatterlab = import_chatterlab()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(args, WORKLOADS[args.workload], chatterlab, t_process)


if __name__ == "__main__":
    sys.exit(main())
