"""Summarize run records: per workload and metric, the median of the runs
and their spread (distance between first and third quartile over the
median, as statistics.quantiles(values, n=4) gives them).

    python3 bench/spread.py bench/out/runs                 # one set
    python3 bench/spread.py SET_A_DIR SET_B_DIR            # two sets

With two sets it also prints the change of each median from the first set
to the second, the share of failed operations in each, and whether every
CSV digest recorded for the same (workload, seed, operation) agrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["trace"])].append(record)
    return runs


def summarize(runs):
    out = {}
    for key, records in sorted(runs.items()):
        metrics = defaultdict(list)
        for r in records:
            for name, m in r["metrics"].items():
                metrics[name].append(m["value"])
        rows = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
            else:
                spread = float("nan")
            rows[name] = (med, spread, len(values))
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        missed = sum(r["oracle_collapsed"]["ops_with_miss"] for r in records)
        out[key] = (rows, failed, attempted, all(r["correct"] for r in records), missed)
    return out


def digests(runs):
    table = {}
    for (workload, _), records in runs.items():
        for r in records:
            for op in r["ops"]:
                if op.get("csv_sha256"):
                    table[(workload, r["seed"], op["index"])] = op["csv_sha256"]
    return table


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    sums = [summarize(s) for s in sets]
    for key in sorted(sums[0]):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for i, summary in enumerate(sums):
            if key not in summary:
                continue
            rows, failed, attempted, correct, missed = summary[key]
            print(f"  set {i + 1}: {attempted} attempted, {failed} failed "
                  f"({failed / max(attempted, 1):.4%}), correct={correct}, "
                  f"{missed} with a collapsed oracle miss")
        rows_a = sums[0][key][0]
        rows_b = sums[1][key][0] if len(sums) == 2 and key in sums[1] else {}
        for name, (med, spread, n) in rows_a.items():
            line = f"  {name:32s} median {med:12.5g}  spread {spread:7.4f}  n={n}"
            if name in rows_b:
                med_b, spread_b, _ = rows_b[name]
                change = (med_b - med) / med if med else float("nan")
                line += f" | set 2 median {med_b:12.5g} spread {spread_b:7.4f} change {change:+.4f}"
            print(line)
    if len(sets) == 2:
        a, b = digests(sets[0]), digests(sets[1])
        common = set(a) & set(b)
        differ = sorted(k for k in common if a[k] != b[k])
        print(f"CSV digests: {len(common)} operations in both sets, {len(differ)} differ")
        for k in differ[:10]:
            print(f"  differs: {k}")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
