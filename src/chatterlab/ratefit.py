"""Power-law fitting on log-log axes, used to quantify convergence rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateFit

#: cost gaps at or below this are indistinguishable from closed-form roundoff
GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    constant: float
    max_rel_residual: float
    n_points: int


def fit_line(xs, ys) -> tuple[float, float]:
    """Least-squares line y = intercept + slope * x through the pairs of xs
    and ys, in closed form from sums about the means (`math.fsum`)."""
    xs, ys = list(xs), list(ys)
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    slope = (math.fsum(d * (y - y_mean) for d, y in zip(dx, ys))
             / math.fsum(d * d for d in dx))
    return y_mean - slope * x_mean, slope


def fit_power_law(points) -> PowerLawFit:
    """Least-squares fit of y = C * x^a on log-log axes to (x, y) pairs.

    Points with nonpositive or nonfinite coordinates are unusable; fewer
    than three usable points raise DegenerateFit.  The residual reported is
    max |C x^a - y| / y.
    """
    pts = []
    for xv, yv in points:
        if xv > 0.0 and yv > 0.0 and math.isfinite(xv) and math.isfinite(yv):
            pts.append((float(xv), float(yv)))
    if len(pts) < 3:
        raise DegenerateFit(f"need >= 3 usable points, got {len(pts)}")
    intercept, slope = fit_line([math.log(p[0]) for p in pts],
                                [math.log(p[1]) for p in pts])
    constant = math.exp(intercept)
    resid = max(abs(constant * xv ** slope - yv) / yv for xv, yv in pts)
    return PowerLawFit(exponent=slope, constant=constant,
                       max_rel_residual=resid, n_points=len(pts))
