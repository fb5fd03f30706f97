"""Power-law fitting on log-log axes, used to quantify convergence rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit

#: cost gaps at or below this are indistinguishable from closed-form roundoff
GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    constant: float
    max_rel_residual: float
    n_points: int

    def predict(self, x: float) -> float:
        return self.constant * x ** self.exponent


def fit_power_law(records, x: str = "param", y: str = "cost_gap") -> PowerLawFit:
    """Least-squares fit of y = C * x^a on log-log axes.

    `records` is either a sequence of objects carrying the named attributes
    or a sequence of (x, y) pairs.  Points with nonpositive or nonfinite
    coordinates are unusable; fewer than three usable points raise
    DegenerateFit.  The residual reported is max |C x^a - y| / y.
    """
    pts = []
    for rec in records:
        if hasattr(rec, x):
            xv, yv = getattr(rec, x), getattr(rec, y)
        else:
            xv, yv = rec
        if xv > 0.0 and yv > 0.0 and math.isfinite(xv) and math.isfinite(yv):
            pts.append((float(xv), float(yv)))
    if len(pts) < 3:
        raise DegenerateFit(f"need >= 3 usable points, got {len(pts)}")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    design = np.column_stack([np.ones_like(lx), lx])
    (intercept, slope), *_ = np.linalg.lstsq(design, ly, rcond=None)
    constant = math.exp(intercept)
    resid = max(abs(constant * xv ** slope - yv) / yv for xv, yv in pts)
    return PowerLawFit(exponent=float(slope), constant=constant,
                       max_rel_residual=float(resid), n_points=len(pts))
