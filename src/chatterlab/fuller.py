"""Chattering synthesis for the double-integrator problem with running cost
x1^2 and a two-sided unit control bound.

The optimal feedback switches on a curve x1 + zeta * x2|x2| = 0 and the
switch points contract geometrically: one arc maps a switch state (x1, x2)
to (-lam^2 x1, -lam x2), with lam = sqrt((1 - 2 zeta)/(1 + 2 zeta)).  That
crossing relation holds for every curve coefficient, so the coefficient
itself is pinned by optimality: along an optimal arc the switch function of
the adjoint system must vanish at both endpoints.  With the free-time
normalization (the Hamiltonian is zero along optimal trajectories) the start
adjoint is fixed and a single scalar residual in zeta remains; its root is
found by bisection and never hard-coded.

The synthesized control switches infinitely often in finite time; it is cut
at a small radius around the origin and closed with the exact two-arc
minimum-time tail, whose cost contribution scales like radius^(5/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .controls import (
    PiecewiseConstantControl,
    ProblemSpec,
    di_arc,
    lagrangian_cost,
    simulate,
)
from .errors import NoRootBracket, TolTooSmall
from .truncation import min_time_steer

#: search interval for the switching-curve coefficient
ZETA_BRACKET = (0.40, 0.50)

#: relative half-width of the on-curve tie band of the feedback
CURVE_TIE_BAND = 1e-14

#: spare switch count; a tol of 1e-13 needs ~30 arcs from unit scale
_MAX_ARCS = 400


def curve_residual(x, zeta: float) -> float:
    """Signed distance-like residual of the switching curve x1 + zeta*x2|x2|."""
    return x[0] + zeta * x[1] * abs(x[1])


def contraction_ratio(zeta: float) -> float:
    """Per-arc contraction of |x2| between consecutive switch points."""
    return math.sqrt((1.0 - 2.0 * zeta) / (1.0 + 2.0 * zeta))


def feedback_sign(x, zeta: float) -> float:
    """Feedback value: -1 above the curve, +1 below; on the curve the
    post-switch sign that continues the spiral."""
    sigma = curve_residual(x, zeta)
    scale = max(1.0, abs(x[0]) + x[1] * x[1])
    if sigma > CURVE_TIE_BAND * scale:
        return -1.0
    if sigma < -CURVE_TIE_BAND * scale:
        return 1.0
    return -1.0 if x[1] > 0.0 else 1.0


def _quad_roots(a: float, b: float, c: float):
    """Real roots of a t^2 + b t + c, numerically stable form."""
    if a == 0.0:
        return () if b == 0.0 else (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    if q == 0.0:
        return (0.0, 0.0)
    return (q / a, c / q)


def first_crossing(x, u: float, zeta: float) -> float:
    """Time of the next switching-curve crossing along a constant-control arc.

    On each side of x2 = 0 the curve residual along the flow is a quadratic
    polynomial in time, so the crossing is a filtered quadratic root.  Roots
    below a tiny fraction of the arc's characteristic time are skipped: they
    are the start point itself when the arc begins on the curve.
    """
    z1, z2 = x
    t_scale = abs(z2) + math.sqrt(abs(z1)) + math.sqrt(abs(z2))
    skip = 1e-12 * max(t_scale, 1e-280)
    pieces = []
    if z2 * u < 0.0:
        t_zero = -z2 / u
        sgn = math.copysign(1.0, z2)
        pieces.append((0.0, t_zero, sgn))
        pieces.append((t_zero, math.inf, -sgn))
    else:
        sgn = math.copysign(1.0, z2) if z2 != 0.0 else math.copysign(1.0, u)
        pieces.append((0.0, math.inf, sgn))
    for lo, hi, eps in pieces:
        a = 0.5 * u + zeta * eps
        b = z2 * (1.0 + 2.0 * zeta * eps * u)
        c = z1 + zeta * eps * z2 * z2
        lo_eff = max(lo, skip)
        hi_eff = hi if hi is math.inf else hi * (1.0 + 1e-15) + 1e-300
        degenerate = (abs(a) < 1e-15
                      and abs(b) <= 1e-14 * (abs(z2) + 1.0)
                      and abs(c) <= 1e-14 * (abs(z1) + z2 * z2 + 1e-280))
        if degenerate and hi is not math.inf:
            # the arc rides the curve (coefficient exactly 1/2): the
            # crossing degenerates to the vertex of the parabola
            return hi
        hits = [t for t in _quad_roots(a, b, c) if lo_eff < t <= hi_eff]
        if hits:
            return min(hits)
    raise ArithmeticError(f"no curve crossing from {x} with u={u}")


def _adjoint_switch_residual(zeta: float, scale: float = 1.0) -> float:
    """Switch-function value at the next switch point, started from a switch.

    From the curve point (-zeta s^2, s) with u = -1 the costate starts at
    (zeta^2 s^3, 0): the switch component vanishes at a switch and the zero
    Hamiltonian of the free-time problem fixes the other component.  The
    costate obeys p1' = 2 x1, p2' = -p1, so along the arc both components
    are polynomials in time.  At the optimal coefficient the switch
    component returns to zero exactly at the next crossing.  Normalized by
    scale^4 so the residual is scale-free.
    """
    s = scale
    x = (-zeta * s * s, s)
    d = first_crossing(x, -1.0, zeta)
    p2 = -d * (zeta * zeta * s ** 3
               - zeta * s * s * d
               + s * d * d / 3.0
               - d ** 3 / 12.0)
    return p2 / s ** 4


def compute_fuller_constant(tol: float = 1e-12, start_scale: float = 1.0):
    """Switching-curve coefficient and contraction ratio, by bisection of the
    adjoint switch residual on (0.40, 0.50).

    Raises NoRootBracket when the residual does not change sign there.  The
    root is independent of start_scale; recomputing from several scales is
    the scaling-invariance oracle used in tests.
    """
    if tol < 1e-12:
        raise ValueError("tol below 1e-12 is not resolvable in double precision")
    lo, hi = ZETA_BRACKET
    r_lo = _adjoint_switch_residual(lo, start_scale)
    r_hi = _adjoint_switch_residual(hi, start_scale)
    if r_lo == 0.0:
        zeta = lo
    elif r_hi == 0.0 or r_lo * r_hi > 0.0:
        # the upper endpoint residual vanishes identically in exact
        # arithmetic, so rescue the bracket just inside before giving up
        for hi_try in (0.4999, 0.499, 0.495, 0.49, 0.47, 0.45):
            r_hi = _adjoint_switch_residual(hi_try, start_scale)
            if r_lo * r_hi < 0.0:
                hi = hi_try
                break
        else:
            raise NoRootBracket(
                f"residual has signs ({r_lo:.3g}, {r_hi:.3g}) on {ZETA_BRACKET}")
    if r_lo != 0.0:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            r_mid = _adjoint_switch_residual(mid, start_scale)
            if r_mid == 0.0:
                lo = hi = mid
                break
            if r_lo * r_mid < 0.0:
                hi = mid
            else:
                lo, r_lo = mid, r_mid
        zeta = 0.5 * (lo + hi)
    x = (-zeta * start_scale ** 2, start_scale)
    d = first_crossing(x, -1.0, zeta)
    rho = -di_arc(x[0], x[1], -1.0, d)[1] / start_scale
    return zeta, rho


@dataclass(frozen=True)
class FullerSynthesis:
    """Computed synthesis data: curve coefficient, contraction ratio, and the
    radius at which chattering is cut and closed by the minimum-time tail."""

    zeta: float
    rho: float
    truncation_tol: float = 1e-10

    def __post_init__(self):
        if not ZETA_BRACKET[0] < self.zeta < ZETA_BRACKET[1]:
            raise ValueError(f"zeta={self.zeta} outside {ZETA_BRACKET}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("contraction ratio must lie in (0, 1)")
        if self.truncation_tol <= 0.0:
            raise ValueError("truncation_tol must be positive")


@lru_cache(maxsize=8)
def _cached_constant(tol: float) -> tuple[float, float]:
    return compute_fuller_constant(tol)


def default_synthesis(truncation_tol: float = 1e-10,
                      tol: float = 1e-12) -> FullerSynthesis:
    zeta, rho = _cached_constant(tol)
    return FullerSynthesis(zeta=zeta, rho=rho, truncation_tol=truncation_tol)


def synthesize_chattering(x0, synth: FullerSynthesis):
    """Generate the optimal control from x0 by the switching-curve feedback.

    Each curve crossing is found by the closed-form quadratic solve of the
    arc polynomial; once the state enters the truncation radius the exact
    two-arc minimum-time steering closes the control at the origin.  Returns
    (control, final time).
    """
    x = (float(x0[0]), float(x0[1]))
    if x == (0.0, 0.0):
        raise ValueError("x0 must differ from the origin")
    if synth.truncation_tol < 1e-13:
        raise TolTooSmall(
            f"truncation radius {synth.truncation_tol} underflows arc durations")
    breakpoints = [0.0]
    values: list[float] = []
    t = 0.0
    while math.hypot(*x) >= synth.truncation_tol:
        u = feedback_sign(x, synth.zeta)
        d = first_crossing(x, u, synth.zeta)
        t += d
        breakpoints.append(t)
        values.append(u)
        x = di_arc(x[0], x[1], u, d)[:2]
        if len(values) > _MAX_ARCS:
            raise ArithmeticError("switching cascade failed to contract")
    tail, _ = min_time_steer(x)
    if tail is not None:
        for i, v in enumerate(tail.values):
            d = tail.breakpoints[i + 1] - tail.breakpoints[i]
            t += d
            breakpoints.append(t)
            values.append(v)
    if not values:
        raise ValueError("x0 is indistinguishable from the origin at this tol")
    control = PiecewiseConstantControl(tuple(breakpoints), tuple(values))
    return control, control.duration


def optimal_cost(x0, synth: FullerSynthesis, spec: ProblemSpec | None = None) -> float:
    """Running cost of the synthesized solution from x0; obeys the scaling
    law J(lam^2 x1, lam x2) = lam^5 J(x1, x2).  Zero at the origin."""
    if float(x0[0]) == 0.0 and float(x0[1]) == 0.0:
        return 0.0
    if spec is None:
        spec = ProblemSpec(x0=tuple(x0))
    control, _ = synthesize_chattering(x0, synth)
    traj = simulate(spec, control)
    return lagrangian_cost(traj, control, spec)
