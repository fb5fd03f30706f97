"""Output checks for the benchmark, computed apart from chatterlab.

Every check takes plain numbers (read from the program's CSV and manifest
files or from returned objects), compares them with an independent
computation or with a law the method must obey, and raises CheckFailed when
they disagree.  A passing check returns its worst residual so the run record
can show how much margin there was.  Nothing here imports chatterlab.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

#: Fuller's switching-curve constant, x1 + zeta * x2|x2| = 0, to the ten
#: decimals in which the literature states it
LITERATURE_ZETA = 0.4446235602

#: absolute tie-break band of the path selection: values within it go to
#: the lower switch count, so an exchange inequality may fail by this much
PATH_TIE_BREAK = 1e-12

_ULP = np.finfo(float).eps


class CheckFailed(AssertionError):
    """A program output disagrees with its independent check."""


def _fail(what: str, detail: str):
    raise CheckFailed(f"{what}: {detail}")


def close_rel(measured: float, expected: float, rel: float, what: str) -> float:
    """Relative agreement |measured - expected| <= rel * |expected|."""
    err = abs(measured - expected) / max(abs(expected), 1e-300)
    if not err <= rel:
        _fail(what, f"{measured!r} vs {expected!r}, relative error {err:.3g} > {rel:g}")
    return err


def exchange_inequalities(points, tie: float = PATH_TIE_BREAK) -> float:
    """Each path point minimizes over the same candidate table, so for all
    pairs V(eps_i) <= L_j + eps_i * TV_j.  `points` holds (eps, lagrangian,
    tv, value) rows.  Returns the largest excess (<= tie plus rounding)."""
    worst = -math.inf
    for eps_i, _, _, v_i in points:
        for _, l_j, tv_j, _ in points:
            rhs = l_j + eps_i * tv_j
            excess = v_i - rhs
            if excess > tie + 4.0 * _ULP * max(abs(v_i), abs(rhs)):
                _fail("exchange inequality",
                      f"V({eps_i:g}) = {v_i!r} exceeds L + eps*TV = {rhs!r} by {excess:.3g}")
            worst = max(worst, excess)
    return worst


def path_monotone(points, tie: float = PATH_TIE_BREAK) -> None:
    """With eps ascending, TV is nonincreasing and the running cost is
    nondecreasing.  `points` holds (eps, lagrangian, tv, value) rows."""
    rows = sorted(points)
    for (e1, l1, tv1, _), (e2, l2, tv2, _) in zip(rows, rows[1:]):
        if tv2 > tv1:
            _fail("TV monotone", f"TV rises from {tv1} at eps={e1:g} to {tv2} at eps={e2:g}")
        if l2 < l1 - tie:
            _fail("running cost monotone",
                  f"L falls from {l1!r} at eps={e1:g} to {l2!r} at eps={e2:g}")


def all_positive(values, what: str) -> float:
    """Every value strictly positive; returns the smallest."""
    low = min(values)
    if not low > 0.0:
        _fail(what, f"smallest value {low!r} is not positive")
    return low


def all_at_least(values, floor: float, what: str) -> float:
    low = min(values)
    if not low >= floor:
        _fail(what, f"smallest value {low!r} is below {floor!r}")
    return low


def is_true(flag, what: str) -> None:
    if flag is not True:
        _fail(what, f"reported {flag!r}")


def two_arc_steering(x, sign: float):
    """Durations (d_a, d_b) of the control sign then -sign that brings the
    double integrator from x exactly to the origin, or None when no such
    pair of nonnegative durations exists.

    With d_b = d_a + sign*x2 the terminal condition on x1 is the quadratic
    d_a^2 + 2*sign*x2*d_a + (sign*x1 + x2^2/2) = 0; its roots are found by
    numpy and the admissible one is kept.
    """
    x1, x2 = float(x[0]), float(x[1])
    roots = np.roots([1.0, 2.0 * sign * x2, sign * x1 + 0.5 * x2 * x2])
    best = None
    for r in roots:
        if abs(r.imag) > 1e-12 * (1.0 + abs(r.real)):
            continue
        d_a = r.real
        d_b = d_a + sign * x2
        scale = 1e-9 * (1.0 + abs(x2))
        if d_a >= -scale and d_b >= -scale:
            best = (max(d_a, 0.0), max(d_b, 0.0))
    return best


def exact_cost(x0, sign: float, durations):
    """Integral of x1^2 and the end state of the alternating bang-bang
    control (sign, -sign, ...) with the given arc durations, from x0.

    Each arc's x1 is the quadratic a + b*s + u*s^2/2; its square is
    integrated exactly with numpy's polynomial class."""
    x1, x2 = float(x0[0]), float(x0[1])
    u = float(sign)
    total = 0.0
    for d in durations:
        p = Polynomial([x1, x2, 0.5 * u])
        total += float((p * p).integ()(d))
        x1, x2 = float(p(d)), x2 + u * d
        u = -u
    return total, (x1, x2)


def candidate_cost(x0, sign: float, durations, lagrangian: float,
                   rel: float = 1e-10) -> float:
    """The reported running cost of a bang-bang candidate equals the exact
    integral of its own durations, and the candidate ends at the origin."""
    cost, end = exact_cost(x0, sign, durations)
    scale = max(1.0, math.hypot(*x0))
    if not math.hypot(*end) <= 1e-8 * scale:
        _fail("candidate terminal state", f"ends at {end} instead of the origin")
    return close_rel(lagrangian, cost, rel, "candidate exact cost")


def no_worse_than(value: float, reference: float, rel: float, what: str) -> float:
    """value <= reference up to a relative slack; returns (value-ref)/|ref|."""
    excess = (value - reference) / max(abs(reference), 1e-300)
    if not excess <= rel:
        _fail(what, f"{value!r} worse than {reference!r} by {excess:.3g} relative (> {rel:g})")
    return excess


def water_tank_tau_inf(levels, drain, inflow: float) -> float:
    """Accumulation time of the two-tank model with zero thresholds: the
    total level drains at the net rate v1 + v2 - inflow."""
    return (levels[0] + levels[1]) / (drain[0] + drain[1] - inflow)


def bouncing_ball_tau_inf(height: float, gravity: float, restitution: float) -> float:
    """Accumulation time of a ball dropped from rest: the first fall takes
    sqrt(2h/g) and each later flight 2e^k times that."""
    e = restitution
    return math.sqrt(2.0 * height / gravity) * (1.0 + 2.0 * e / (1.0 - e))


def fuller_constant(zeta: float, tol: float = 1e-10) -> float:
    """The computed curve coefficient matches the literature value."""
    err = abs(zeta - LITERATURE_ZETA)
    if not err <= tol:
        _fail("Fuller constant", f"zeta = {zeta!r}, literature {LITERATURE_ZETA}, error {err:.3g}")
    return err


def contraction_ratio(zeta: float) -> float:
    """Per-arc contraction of the chattering cascade, sqrt((1-2z)/(1+2z))."""
    return math.sqrt((1.0 - 2.0 * zeta) / (1.0 + 2.0 * zeta))


def interval_ratios(switch_times, rho: float, rel: float = 1e-7,
                    min_interval: float = 1e-5, tail_arcs: int = 2) -> float:
    """Consecutive switch intervals of the chattering cascade contract by rho.

    `switch_times` are the switch instants t_1 < t_2 < ..., so the first arc
    (from the initial state onto the curve) is no interval between them.
    The last `tail_arcs` intervals may belong to the minimum-time closing
    tail and are left out, as are intervals shorter than `min_interval`,
    whose ratio the rounding of the switch times would dominate."""
    t = np.asarray(switch_times, dtype=float)
    d = np.diff(t)[:max(0, len(t) - 1 - tail_arcs)]
    pairs = [(a, b) for a, b in zip(d, d[1:]) if a >= min_interval and b >= min_interval]
    if len(pairs) < 3:
        _fail("interval ratios", f"only {len(pairs)} cascade intervals to compare")
    worst = 0.0
    for a, b in pairs:
        worst = max(worst, close_rel(b / a, rho, rel, "interval ratio"))
    return worst


def slope_near(slope: float, target: float, tol: float, what: str) -> float:
    err = abs(slope - target)
    if not err <= tol:
        _fail(what, f"fitted slope {slope!r} is {err:.3g} from {target}")
    return err


def tail_tv_budget(switch_times, t_star: float, etas, tvs,
                   budget: float = 4.0) -> float:
    """A truncation keeps the reference control up to t_star - eta and adds
    at most `budget` of total variation; every reference jump has size 2.
    Returns the smallest unused budget."""
    t = sorted(switch_times)
    slack = math.inf
    for eta, tv in zip(etas, tvs):
        prefix_tv = 2.0 * sum(1 for s in t if s <= t_star - eta)
        room = prefix_tv + budget - tv
        if room < 0.0:
            _fail("tail TV budget",
                  f"eta={eta:g}: TV {tv} exceeds prefix {prefix_tv} + {budget}")
        slack = min(slack, room)
    return slack


def same_counts(a, b, what: str) -> None:
    if list(a) != list(b):
        _fail(what, f"switch counts {list(a)} vs {list(b)}")


def values_scale(base, other, factor: float, rel: float, what: str) -> float:
    """other[i] == factor * base[i] to a relative tolerance, elementwise."""
    worst = 0.0
    for v, w in zip(base, other):
        worst = max(worst, close_rel(w, factor * v, rel, what))
    return worst
