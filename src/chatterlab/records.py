"""Sweep records and deterministic CSV / JSON manifest output."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

CSV_COLUMNS = ("param", "cost_gap", "sup_dev", "l1_dev", "tv", "wall_ms")


@dataclass(frozen=True)
class RateRecord:
    """One sweep sample: a parameter value and the deviations measured at it."""

    param: float
    cost_gap: float
    sup_dev: float
    l1_dev: float
    tv: float
    wall_ms: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write(path, text: str) -> Path:
    """Write `text` to `path` in place: an existing file is overwritten from
    its start and then truncated to the new length, which on ext4 costs a
    fraction of the truncate to zero that opening with mode "w" does; a
    missing file is created."""
    path = Path(path)
    try:
        fh = open(path, "r+")
    except FileNotFoundError:
        fh = open(path, "w")
    with fh:
        fh.write(text)
        fh.truncate()
    return path


def write_csv(path, records) -> Path:
    """Write records sorted by parameter value, 17 significant digits.

    Wall times are written as zero so repeated runs of the same
    configuration are byte identical; the measured timings belong in the
    JSON manifest instead.
    """
    lines = [",".join(CSV_COLUMNS)]
    for rec in sorted(records, key=lambda r: r.param):
        lines.append(",".join(_fmt(v) for v in (
            rec.param, rec.cost_gap, rec.sup_dev, rec.l1_dev, rec.tv, 0.0)))
    return _write(path, "\n".join(lines) + "\n")


def write_manifest(path, payload: dict) -> Path:
    return _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
