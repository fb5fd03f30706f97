"""Minimum-time steering and quasi-optimal truncation.

The double integrator admits a global two-arc bang-bang minimum-time law:
one switch on the curve x1 + x2|x2|/2 = 0, durations from a quadratic solve.
Truncation cuts a reference control close to its final time and closes the
gap with that tail, keeping the added total variation at most 4 (one jump
onto the tail, one internal switch, each of size at most 2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .controls import (
    PiecewiseConstantControl,
    ProblemSpec,
    Trajectory,
    motion_gap,
    simulate,
    tv,
)
from .errors import ConfigError, CutTooLarge, DegenerateFit
from .ratefit import GAP_FLOOR, fit_power_law
from .records import RateRecord

#: added total variation of the closing tail, junction jumps included
TAIL_TV_BUDGET = 4.0

#: radius of the steering neighborhood every cut state must lie in
STEERING_RADIUS = 1.0

#: Hoelder exponent of the truncation lag in the composite rate bound, that
#: of the minimum time to the origin
HOLDER_EXPONENT = 0.5


def steer_floor(z2, root):
    """Least admissible first terminal duration d_a: a rounding band below 0,
    inside which `steer_durations` takes d_a as 0.  Plain arithmetic, so the
    scalar solve and the solver's numpy grids share it."""
    return -1e-12 * (abs(z2) + root + 1.0)


def steer_durations(state, first_sign: float):
    """Durations (d_a, d_b) >= 0 so that first_sign then -first_sign steers
    the double integrator from `state` to the origin exactly, or None when
    the quadratic has no admissible root for that sign.

    Eliminating the terminal constraint gives
    d_a^2 + 2*s*x2*d_a + (s*x1 + x2^2/2) = 0 with d_b = d_a + s*x2, and only
    the larger root can make d_b nonnegative.
    """
    z1, z2 = state
    s = first_sign
    disc = 0.5 * z2 * z2 - s * z1
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    a = -s * z2 + root
    if a < 0.0:
        if a <= steer_floor(z2, root):
            return None
        a = 0.0
    return (a, root)


def _finite_state(y) -> tuple[float, float]:
    """The planar state y, or ValueError when a component is not finite
    (NaN fails every comparison, so it would pass for the origin)."""
    z1, z2 = y
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise ValueError(f"state {tuple(y)} must be finite")
    return z1, z2


def min_time_to_origin(y) -> float:
    """Minimum time for the double integrator to steer y to the origin.

    Closed form: above the min-time curve the time is x2 + 2*sqrt(x1 + x2^2/2),
    mirrored below; on the curve it is |x2|.  Hoelder-1/2 near the origin.
    """
    z1, z2 = _finite_state(y)
    curve = z1 + 0.5 * z2 * abs(z2)
    if curve > 0.0:
        return z2 + 2.0 * math.sqrt(z1 + 0.5 * z2 * z2)
    if curve < 0.0:
        return -z2 + 2.0 * math.sqrt(-z1 + 0.5 * z2 * z2)
    return abs(z2)


def min_time_steer(y):
    """Two-arc minimum-time control steering y to the origin.

    Returns (control, tau); at the origin itself there is nothing to do and
    the control is None with tau = 0.  The control has at most one internal
    switch, so its total variation is at most 2.
    """
    z1, z2 = _finite_state(y)
    if z1 == 0.0 and z2 == 0.0:
        return None, 0.0
    curve = z1 + 0.5 * z2 * abs(z2)
    if curve > 0.0:
        s = -1.0
    elif curve < 0.0:
        s = 1.0
    else:
        s = -math.copysign(1.0, z2)
    pair = steer_durations(y, s)
    if pair is None:  # only reachable through roundoff exactly on the curve
        s = -s
        pair = steer_durations(y, s)
        if pair is None:
            raise ArithmeticError(f"two-arc steering failed at {y}")
    a, b = pair
    control = PiecewiseConstantControl.from_ends((a, a + b), (s, -s))
    return (None, 0.0) if control is None else (control, a + b)


# ---------------------------------------------------------------------------
# truncation of a reference control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationResult:
    eta: float
    control: PiecewiseConstantControl
    t_final: float
    tail_time: float
    cost_gap: float
    sup_dev: float
    l1_dev: float
    cut_state: tuple[float, float]
    prefix_tv: float


def _motions(traj: Trajectory, cuts):
    """motion_gap's (x1, v, u, x2, w) of traj on each piece [lo, hi] between
    consecutive cuts, which lies inside one arc or past the horizon, where
    the state rests at the final state (admissible controls end at the
    origin, an equilibrium).

    One forward walk over the arcs: the state at lo comes from the first
    arc ending at or after lo, the control from the first arc ending after
    the piece's midpoint, or from the last arc when the midpoint rounds
    onto the horizon.  Both indices only grow with lo, so each arc is
    passed once.
    """
    arcs, ends = traj.arcs, traj.ends
    last = len(arcs) - 1
    i = j = 0
    for lo, hi in zip(cuts, cuts[1:]):
        if lo >= traj.duration:
            x1, x2 = traj.final_state
            yield (x1, 0.0, 0.0, x2, 0.0)
            continue
        while lo > ends[i]:
            i += 1
        x1, x2 = arcs[i].state_at(lo - arcs[i].t0)
        mid = 0.5 * (lo + hi)
        while j < last and not mid < ends[j]:
            j += 1
        u = arcs[j].u
        yield (x1, x2, u, x2, u)


def sup_state_deviation(traj_a: Trajectory, traj_b: Trajectory,
                        t_from: float = 0.0) -> float:
    """Exact sup-norm distance between two trajectories on [t_from, T], T the
    larger horizon, extending each by its terminal equilibrium.

    The cuts are t_from, T and every arc end (`Trajectory.ends`) of either
    trajectory between them.  On each piece between two cuts the difference
    is one polynomial motion, whose sup motion_gap gives from its ends and
    vertex; `_motions` reads both trajectories' pieces in one forward pass,
    so the cost is linear in the arcs.
    """
    horizon = max(traj_a.duration, traj_b.duration)
    cuts = sorted({t_from, horizon, *(t for t in traj_a.ends + traj_b.ends
                                      if t_from <= t <= horizon)})
    return max(map(motion_gap, _motions(traj_a, cuts), _motions(traj_b, cuts),
                   [hi - lo for lo, hi in zip(cuts, cuts[1:])]), default=0.0)


def _values(control: PiecewiseConstantControl, cuts):
    """The control's value on each piece between consecutive cuts, 0 past
    its horizon: the value of the first arc whose right breakpoint lies
    after the piece's midpoint, found by one forward walk."""
    bp, values = control.breakpoints, control.values
    i = 0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        if not mid < bp[-1]:
            yield 0.0
            continue
        while not mid < bp[i + 1]:
            i += 1
        yield values[i]


def l1_control_distance(u: PiecewiseConstantControl,
                        v: PiecewiseConstantControl) -> float:
    """Exact integral of |u(t) - v(t)| on [0, max horizon], the shorter
    control extended by zero: both controls are constant between
    consecutive breakpoints of either, and `_values` reads each control's
    pieces in one forward pass."""
    horizon = max(u.duration, v.duration)
    cuts = sorted(set(u.breakpoints) | set(v.breakpoints) | {horizon})
    total = 0.0
    for lo, hi, a, b in zip(cuts, cuts[1:], _values(u, cuts), _values(v, cuts)):
        total += abs(a - b) * (hi - lo)
    return total


def truncate(u_star: PiecewiseConstantControl, traj_star: Trajectory,
             eta: float, spec: ProblemSpec) -> TruncationResult:
    """Cut the reference control eta before its final time and close with the
    minimum-time tail, recording cost gap and control/state deviations.

    Both controls agree before the cut, so the cost gap is the tail's cost
    minus the reference's cost after the cut; neither sum passes through
    J*, whose rounding would otherwise swamp the gaps of small windows or
    large states.

    The cut state must lie inside the steering neighborhood |x| <=
    STEERING_RADIUS, otherwise CutTooLarge is raised.  Cuts landing exactly
    on a switch time keep the arc ending there (half-open restriction).
    """
    t_star = u_star.duration
    if not 0.0 < eta < t_star:
        raise CutTooLarge(f"eta={eta} outside (0, {t_star})")
    t_cut = t_star - eta
    cut_state = traj_star.state_at(t_cut)
    if math.hypot(*cut_state) > STEERING_RADIUS:
        raise CutTooLarge(
            f"|x({t_cut:.6g})| = {math.hypot(*cut_state):.6g} leaves the "
            f"steering neighborhood (radius {STEERING_RADIUS})")
    prefix = u_star.restrict(t_cut)
    tail, tau = min_time_steer(cut_state)
    control = prefix if tail is None else prefix.concat(tail)
    traj = simulate(spec, control)
    tail_cost = sum(arc.cost_x1sq() for arc in reversed(traj.arcs[prefix.n_arcs:]))
    gap = tail_cost - traj_star.cost_after(t_cut)
    return TruncationResult(
        eta=eta,
        control=control,
        t_final=control.duration,
        tail_time=tau,
        cost_gap=gap,
        sup_dev=sup_state_deviation(traj, traj_star, t_from=t_cut),
        l1_dev=l1_control_distance(control, u_star),
        cut_state=cut_state,
        prefix_tv=tv(prefix),
    )


@dataclass(frozen=True)
class TruncationSweep:
    records: tuple[RateRecord, ...]
    results: tuple[TruncationResult, ...]
    exponent: float
    constant: float
    max_rel_residual: float
    n_dropped: int
    monotone: dict = field(default_factory=dict)


def truncation_rate_sweep(u_star: PiecewiseConstantControl, traj_star: Trajectory,
                          etas, spec: ProblemSpec) -> TruncationSweep:
    """Run truncations over a grid of cut windows and fit the cost-gap decay
    as a power of the window.  Every cut state must lie in `truncate`'s
    steering neighborhood of radius STEERING_RADIUS.

    Points whose gap sits at the arithmetic floor are dropped from the fit;
    DegenerateFit is raised when fewer than three usable points remain.  The
    deviation columns are checked for monotone decay toward zero.  A grid
    of fewer than 5 windows, or not positive and finite, or repeating a
    window, or spanning less than two decades (largest / smallest < 99)
    raises ConfigError.
    """
    etas = sorted(float(e) for e in etas)
    if len(etas) < 5:
        raise ConfigError("need at least 5 cut windows")
    if not all(0.0 < e < math.inf for e in etas):  # NaN fails it too
        raise ConfigError("cut windows must be positive and finite")
    if any(b == a for a, b in zip(etas, etas[1:])):
        raise ConfigError("cut windows must not repeat")
    if etas[-1] / etas[0] < 99.0:
        raise ConfigError("cut windows must span at least two decades")
    results = []
    records = []
    for eta in etas:
        t0 = time.perf_counter()
        res = truncate(u_star, traj_star, eta, spec)
        wall = (time.perf_counter() - t0) * 1e3
        results.append(res)
        records.append(RateRecord(
            param=eta,
            cost_gap=res.cost_gap,
            sup_dev=res.sup_dev,
            l1_dev=res.l1_dev,
            tv=tv(res.control),
            wall_ms=wall,
        ))
    usable = [(r.param, r.cost_gap) for r in records if r.cost_gap > GAP_FLOOR]
    n_dropped = len(records) - len(usable)
    if len(usable) < 3:
        raise DegenerateFit(
            f"only {len(usable)} cost gaps above the {GAP_FLOOR} floor")
    fit = fit_power_law(usable)

    def _decreasing(values):  # eta ascending, so deviations must ascend too
        return all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    monotone = {
        "t_final": _decreasing([u_star.duration - res.t_final for res in results]),
        "l1_dev": _decreasing([res.l1_dev for res in results]),
        "sup_dev": _decreasing([res.sup_dev for res in results]),
    }
    return TruncationSweep(
        records=tuple(records),
        results=tuple(results),
        exponent=fit.exponent,
        constant=fit.constant,
        max_rel_residual=fit.max_rel_residual,
        n_dropped=n_dropped,
        monotone=monotone,
    )


@dataclass(frozen=True)
class CompositeBoundCheck:
    m_hat: float
    holds: bool
    rows: tuple  # (epsilon, gap, lag, bound) per path point


def composite_rate_bound(path_rows, u_star: PiecewiseConstantControl,
                         j_star: float) -> CompositeBoundCheck:
    """Single-constant bound gap <= M * (lag^a + epsilon), a = HOLDER_EXPONENT,
    across a regularization path, with lag the TV-matched truncation point
    of the reference control.

    M is anchored at the largest epsilon through the dominant lag term:
    gaps are nonincreasing along the path while the anchored bound never
    falls below its anchor value within a constant-TV window, so the single
    constant covers the whole sweep.  `path_rows` supplies (epsilon,
    lagrangian, tv) triples, largest epsilon first.  ValueError when it is
    empty, which would certify nothing, or when j_star is not finite.
    """
    if not math.isfinite(j_star):
        raise ValueError(f"j_star must be finite, got {j_star!r}")
    rows = []
    m_hat = None
    for point in path_rows:
        eps, lagr, tv_eps = point.epsilon, point.lagrangian, point.tv
        gap = lagr - j_star
        lag = truncation_lag_for_budget(u_star, tv_eps)
        if m_hat is None:
            m_hat = gap / lag ** HOLDER_EXPONENT
        rows.append((eps, gap, lag, m_hat * (lag ** HOLDER_EXPONENT + eps)))
    if not rows:
        raise ValueError("path_rows is empty: no point to bound")
    holds = all(gap <= bound * (1.0 + 1e-9) + 1e-15 for _, gap, _, bound in rows)
    return CompositeBoundCheck(m_hat=m_hat, holds=holds, rows=tuple(rows))


def truncation_lag_for_budget(u_star: PiecewiseConstantControl,
                              budget: float) -> float:
    """Largest cut time whose restriction keeps total variation within the
    budget, returned as a lag before the final time.

    The restriction's total variation is a step function of the cut time,
    jumping at each switch; the lag therefore snaps to switch times.  When
    the budget covers every recorded jump the lag is the final arc's length.
    """
    if not budget >= 0.0:
        raise ValueError("budget must be nonnegative")
    t_star = u_star.duration
    acc = 0.0
    for k in range(1, len(u_star.values)):
        jump = abs(u_star.values[k] - u_star.values[k - 1])
        if acc + jump > budget:
            return t_star - u_star.breakpoints[k]
        acc += jump
    return t_star - u_star.breakpoints[-2]
