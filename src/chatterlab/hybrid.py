"""Hybrid automaton execution, Zeno detection, and truncation regularization.

A hybrid system is a finite set of modes, each with a constant-coefficient
planar flow x1' = k x2 + b1, x2' = b2, and edges carrying linear guards
w . x - theta (an event fires when a guard crosses zero from above) and
optional reset maps.  Every arc is a closed form: its first component is a
double-integrator arc (`controls.di_arc`) with velocity k x2 + b1 and control
k b2, its second is linear, and a guard along it is a quadratic in time whose
first downward root is the next event.  Executions that exhaust their event
budget, or whose next arc no longer advances the clock, return the partial
run with hit_max_events set, which is the normal entry point for Zeno
analysis: detect_zeno fits the stored arc durations once per run
(`HybridTrajectory.fit`), the fit's accumulation time sets where
truncate_zeno ends its frozen arc, and its tail, split between the modes of
the last two event arcs, is the one continuation of the run past its last
event that costs and the rate sweep read.

Resets receive the state as a pair of floats and may return any pair of
numbers.  Each arc stores its start time, its duration as computed and its
two end states, all plain floats; its end time is read off the first two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .controls import di_arc, motion_gap
from .errors import ConfigError, Inconclusive
from .fuller import _quad_roots
from .ratefit import GAP_FLOOR, fit_line, fit_power_law
from .records import RateRecord

#: relative residual above which the geometric interval fit is inconclusive
GEOMETRIC_FIT_TOL = 1e-6

#: number of trailing inter-event intervals the geometric fit uses
ZENO_WINDOW = 6


def _floats(values, n: int, what: str) -> tuple:
    out = tuple(float(v) for v in values)
    if len(out) != n:
        raise ValueError(f"{what} needs {n} numbers, got {values!r}")
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{what} must be finite, got {values!r}")
    return out


@dataclass(frozen=True)
class HybridSystem:
    """Modes with one flow (k, b1, b2) each, meaning x1' = k x2 + b1 and
    x2' = b2; edges with linear guards (w1, w2, theta), crossed when
    w1 x1 + w2 x2 - theta falls through zero; optional resets (None means
    identity)."""

    modes: tuple[str, ...]
    flows: dict[str, tuple[float, float, float]]
    edges: tuple[tuple[str, str], ...]
    guards: dict[tuple[str, str], tuple[float, float, float]]
    resets: dict[tuple[str, str], Callable | None]

    def __post_init__(self):
        for q in self.modes:
            if q not in self.flows:
                raise ValueError(f"mode {q!r} has no flow")
        for edge in self.edges:
            if edge[0] not in self.modes or edge[1] not in self.modes:
                raise ValueError(f"edge {edge} uses unknown modes")
            if edge not in self.guards:
                raise ValueError(f"edge {edge} has no guard")
        object.__setattr__(self, "flows", {q: _floats(f, 3, f"flow of {q!r}")
                                           for q, f in self.flows.items()})
        object.__setattr__(self, "guards", {e: _floats(g, 3, f"guard of {e}")
                                            for e, g in self.guards.items()})

    def outgoing(self, q: str):
        return tuple(e for e in self.edges if e[0] == q)

    def motion(self, q: str, x) -> tuple:
        """motion_gap's (x1, v, u, x2, w) of mode q's arc from x."""
        k, b1, b2 = self.flows[q]
        return (x[0], k * x[1] + b1, k * b2, x[1], b2)

    def flow(self, q: str, x, d: float) -> tuple:
        """State reached from x after time d in mode q."""
        x1, v, u, x2, w = self.motion(q, x)
        return (di_arc(x1, v, u, d)[0], x2 + w * d)


def _first_event(guard, motion) -> float:
    """Time of the guard's first downward zero crossing along the arc with
    this motion, or inf: the guard is a quadratic in time, and a state
    resting on its surface does not retrigger."""
    w1, w2, theta = guard
    x1, v, u, x2, w = motion
    c0 = w1 * x1 + w2 * x2 - theta
    c1 = w1 * v + w2 * w
    c2 = 0.5 * w1 * u
    return min((s for s in _quad_roots(c2, c1, c0) if s > 0.0 and c1 + 2.0 * c2 * s < 0.0),
               default=math.inf)


@dataclass(frozen=True)
class HybridArc:
    mode: str
    t0: float
    duration: float
    x0: tuple[float, float]
    end_state: tuple[float, float]

    @property
    def times(self) -> tuple[float, float]:
        """The arc's start and end times."""
        return (self.t0, self.t0 + self.duration)


@dataclass(frozen=True)
class HybridTrajectory:
    """Execution record: event times, one arc per inter-event interval, and
    whether the event budget (or a clock that stopped advancing) cut the
    run short."""

    event_times: list[float]
    arcs: list[HybridArc]
    final_state: tuple[float, float]
    hit_max_events: bool
    guard_residuals: list[float]

    @property
    def n_events(self) -> int:
        return len(self.event_times)

    @property
    def intervals(self) -> list[float]:
        """Durations of the arcs that end in an event, as computed."""
        return [arc.duration for arc in self.arcs[:self.n_events]]

    @cached_property
    def fit(self) -> ZenoFit:
        """The run's one Zeno fit (`detect_zeno`), worked out once."""
        return detect_zeno(self)


def execute(system: HybridSystem, q0: str, x0, horizon: float,
            max_events: int = 64) -> HybridTrajectory:
    """Run the automaton from (q0, x0) until the horizon or the event budget.

    Each event is the earliest first downward guard root over the mode's
    edges.  Exhausting max_events returns the partial run with
    hit_max_events set (the usual signature of a Zeno execution); so does a
    next arc too short to advance the clock (t + d == t).
    """
    if isinstance(max_events, bool) or not (isinstance(max_events, int) and max_events >= 1):
        raise ValueError(f"max_events must be an integer of at least 1, got {max_events!r}")
    if q0 not in system.modes:
        raise ValueError(f"unknown initial mode {q0!r}")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    t = 0.0
    x = _floats(x0, 2, "x0")
    q = q0
    event_times: list[float] = []
    arcs: list[HybridArc] = []
    residuals: list[float] = []
    while True:
        motion = system.motion(q, x)
        d, edge = min(((_first_event(system.guards[e], motion), e)
                       for e in system.outgoing(q)),
                      key=lambda hit: hit[0], default=(math.inf, None))
        if t + d >= horizon:
            end = system.flow(q, x, horizon - t)
            arcs.append(HybridArc(q, t, horizon - t, x, end))
            return HybridTrajectory(event_times, arcs, end, False, residuals)
        if t + d == t:
            return HybridTrajectory(event_times, arcs, x, True, residuals)
        end = system.flow(q, x, d)
        arcs.append(HybridArc(q, t, d, x, end))
        w1, w2, theta = system.guards[edge]
        residuals.append(abs(w1 * end[0] + w2 * end[1] - theta))
        t += d
        event_times.append(t)
        reset = system.resets.get(edge)
        x = end if reset is None else _floats(reset(end), 2, "reset state")
        q = edge[1]
        if len(event_times) >= max_events:
            return HybridTrajectory(event_times, arcs, x, True, residuals)


@dataclass(frozen=True)
class ZenoFit:
    """Geometric model of the last ZENO_WINDOW inter-event intervals: their
    contraction ratio, the accumulation time it implies (+inf unless the
    ratio is below one), the fit's largest relative residual, and the
    fitted time from the last event to the accumulation (its tail)."""

    ratio: float
    tau_inf: float
    residual: float
    tail: float = math.inf

    @property
    def is_zeno(self) -> bool:
        return self.ratio < 1.0 - 1e-9


def detect_zeno(traj: HybridTrajectory) -> ZenoFit:
    """Fit a geometric model to the durations of the last ZENO_WINDOW arcs
    that end in events.

    Raises Inconclusive when the fit's relative residual exceeds
    GEOMETRIC_FIT_TOL, and ValueError when fewer than ZENO_WINDOW + 2 events
    were recorded.
    """
    if traj.n_events < ZENO_WINDOW + 2:
        raise ValueError(f"need at least {ZENO_WINDOW + 2} events, got {traj.n_events}")
    intervals = traj.intervals[-ZENO_WINDOW:]
    intercept, slope = fit_line(range(ZENO_WINDOW), [math.log(d) for d in intervals])
    ratio = math.exp(slope)
    residual = max(abs(math.exp(intercept + slope * i) - d) / d
                   for i, d in enumerate(intervals))
    if residual > GEOMETRIC_FIT_TOL:
        raise Inconclusive(
            f"interval fit residual {residual:.3g} exceeds {GEOMETRIC_FIT_TOL}")
    fit = ZenoFit(ratio, math.inf, residual)
    if not fit.is_zeno:
        return fit
    tail = intervals[-1] * ratio / (1.0 - ratio)
    return ZenoFit(ratio, traj.event_times[-1] + tail, residual, tail)


def truncate_zeno(traj_star: HybridTrajectory, n: int, system: HybridSystem,
                  tau_inf: float) -> HybridTrajectory:
    """Keep the first n events, then freeze the active mode and follow its
    flow up to the accumulation time tau_inf, ignoring guards: one
    closed-form arc."""
    if not 0 <= n < traj_star.n_events:
        raise ValueError(f"n must lie in [0, {traj_star.n_events})")
    src = traj_star.arcs[n]
    if not src.t0 <= tau_inf < math.inf:
        raise ValueError(f"tau_inf must be finite and at least {src.t0}, got {tau_inf!r}")
    duration = tau_inf - src.t0
    end = system.flow(src.mode, src.x0, duration)
    arcs = list(traj_star.arcs[:n]) + [HybridArc(src.mode, src.t0, duration, src.x0, end)]
    return HybridTrajectory(list(traj_star.event_times[:n]), arcs, end,
                            False, list(traj_star.guard_residuals[:n]))


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridLagrangian:
    """One constant running-cost rate per mode, so an arc costs its mode's
    rate times its duration."""

    per_mode: dict[str, float]

    def __post_init__(self):
        if not all(map(math.isfinite, self.per_mode.values())):
            raise ValueError(f"cost rates must be finite, got {self.per_mode!r}")

    def arc_cost(self, arc: HybridArc) -> float:
        return self.per_mode[arc.mode] * arc.duration


def _zeno_tail(traj: HybridTrajectory) -> tuple[ZenoFit, dict[str, float]]:
    """The run's one continuation past its last event: its fit, and the
    fitted tail `ZenoFit.tail` split by mode.

    The continuation alternates between the modes of the last two event
    arcs (period 2), its intervals contracting by the fitted ratio, so the
    last arc's mode gets ratio / (1 + ratio) of the tail and the mode before
    the rest; a single mode gets all of it.  Raises Inconclusive unless the
    run fits as Zeno.
    """
    fit = traj.fit
    if not fit.is_zeno:
        raise Inconclusive("tail extrapolation needs a Zeno trajectory")
    before, last = (arc.mode for arc in traj.arcs[traj.n_events - 2:traj.n_events])
    if before == last:
        return fit, {last: fit.tail}
    share = fit.tail * fit.ratio / (1.0 + fit.ratio)
    return fit, {before: fit.tail - share, last: share}


def zeno_tail_cost(traj: HybridTrajectory, lagrangian: HybridLagrangian):
    """Cost of the run's fitted continuation from its last event to the
    accumulation time: the sum over modes of rate times the mode's share
    of the tail (`_zeno_tail`).  Returns (tail cost, error bound
    10 * GEOMETRIC_FIT_TOL * |tail cost|)."""
    _, tail = _zeno_tail(traj)
    cost = sum(lagrangian.per_mode[q] * t for q, t in tail.items())
    return cost, 10.0 * GEOMETRIC_FIT_TOL * abs(cost)


def hybrid_cost(traj: HybridTrajectory, lagrangian: HybridLagrangian) -> float:
    """Sum of the arc costs; executions cut short get the tail cost of
    their fitted continuation added (`zeno_tail_cost`), so the value
    covers [0, tau_inf]."""
    cost = sum(lagrangian.arc_cost(arc) for arc in traj.arcs)
    return cost + zeno_tail_cost(traj, lagrangian)[0] if traj.hit_max_events else cost


# ---------------------------------------------------------------------------
# truncation sweep
# ---------------------------------------------------------------------------

def _frozen_deviation(traj_star: HybridTrajectory, n: int, system: HybridSystem,
                      duration: float) -> float:
    """Exact sup-norm deviation over the recorded support of traj_star
    within the frozen arc of depth n and the given duration; the
    trajectories agree up to event n, so only the frozen arc is compared,
    one recorded arc at a time."""
    q = traj_star.arcs[n].mode
    x = traj_star.arcs[n].x0
    worst = 0.0
    s = 0.0
    for arc in traj_star.arcs[n:]:
        if s >= duration:
            break
        worst = max(worst, motion_gap(system.motion(q, system.flow(q, x, s)),
                                      system.motion(arc.mode, arc.x0),
                                      min(arc.duration, duration - s)))
        s += arc.duration
    return worst


@dataclass(frozen=True)
class ZenoSweep:
    records: tuple[RateRecord, ...]
    dev_slope: float
    gap_slope: float | None
    gap_constant: float | None
    rate_bound_constant: float
    bound_ok: bool


def zeno_rate_sweep(traj_star: HybridTrajectory, ns, lagrangian: HybridLagrangian,
                    system: HybridSystem) -> ZenoSweep:
    """Truncate the Zeno execution after each requested event count and
    record deviations against the accumulation-time scale tau_inf - tau_n.

    The run is its event arcs continued by its fitted tail (`_zeno_tail`).
    One backward pass over the event arcs, smallest terms first, gives at
    each depth n the time from tau_n to tau_inf (param) and the time each
    mode takes of it, so nothing loses digits to a difference of absolute
    times near the accumulation.  The cost gap is the sum over modes of
    (frozen rate - mode rate) * mode time, and l1_dev is the time spent
    outside the frozen mode; sup_dev compares over the recorded support.
    Log-log slopes are fitted for the sup-norm deviation and for the
    magnitude of the cost gap (the gap's sign alternates with the frozen
    mode's parity when the per-mode cost rates differ at the Zeno point).
    Gaps at the rounding floor are left out of the gap fit; with fewer than
    three left, gap_slope and gap_constant are None.
    The gap is also checked against (sup rate - inf rate) * (tau_inf -
    tau_n), with the rates of the modes the run visits.  A depth grid of
    fewer than 5, not integers (a bool is not one), not increasing or
    outside [0, n_events) raises ConfigError.
    """
    ns = list(ns)
    try:
        depths = [int(n) for n in ns]
    except (OverflowError, ValueError):  # inf, NaN
        raise ConfigError(f"truncation depths must be finite, got {ns!r}") from None
    if any(isinstance(n, bool) or d != n for d, n in zip(depths, ns)):
        raise ConfigError(f"truncation depths must be integers, got {ns!r}")
    ns = depths
    if len(ns) < 5:
        raise ConfigError("need at least 5 truncation depths")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("truncation depths must be strictly increasing")
    if ns[0] < 0 or ns[-1] >= traj_star.n_events:
        raise ConfigError(f"truncation depths must lie in [0, {traj_star.n_events})")
    fit, mode_times = _zeno_tail(traj_star)
    arcs = traj_star.arcs[:traj_star.n_events]
    param = fit.tail
    at_depth = {}
    for k in range(len(arcs) - 1, ns[0] - 1, -1):
        q, d = arcs[k].mode, arcs[k].duration
        param += d
        mode_times[q] = mode_times.get(q, 0.0) + d
        if k in ns:
            at_depth[k] = (param, dict(mode_times))
    rate = lagrangian.per_mode
    rates = [rate[arc.mode] for arc in arcs]
    c_inf, c_sup = min(rates), max(rates)
    records = []
    for n in ns:
        t0 = time.perf_counter()
        param, mode_times = at_depth[n]
        frozen = arcs[n].mode
        records.append(RateRecord(
            param=param,
            cost_gap=sum(((rate[frozen] - rate[q]) * t for q, t in mode_times.items()), 0.0),
            sup_dev=_frozen_deviation(traj_star, n, system, param),
            l1_dev=sum((t for q, t in mode_times.items() if q != frozen), 0.0),
            tv=float(n),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        ))
    bound_ok = all(abs(r.cost_gap) <= (c_sup - c_inf) * r.param + 1e-12 for r in records)
    dev_fit = fit_power_law([(r.param, r.sup_dev) for r in records])
    gaps = [(r.param, abs(r.cost_gap)) for r in records if abs(r.cost_gap) > GAP_FLOOR]
    gap_fit = fit_power_law(gaps) if len(gaps) >= 3 else None
    return ZenoSweep(
        records=tuple(records),
        dev_slope=dev_fit.exponent,
        gap_slope=gap_fit.exponent if gap_fit else None,
        gap_constant=gap_fit.constant if gap_fit else None,
        rate_bound_constant=c_sup - c_inf,
        bound_ok=bound_ok,
    )


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def _physical(name: str, value, rule: str, ok=lambda v: True) -> float:
    """A model parameter as a float; ValueError naming it unless it is
    finite and passes ok (rule says what ok asks)."""
    value = float(value)
    if not (math.isfinite(value) and ok(value)):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def water_tank(inflow: float = 0.75, drain: tuple[float, float] = (0.5, 0.5),
               thresholds: tuple[float, float] = (0.0, 0.0)) -> HybridSystem:
    """Two draining tanks sharing one inflow hose: the hose switches to a
    tank when that tank's level falls to its threshold.  Zeno whenever the
    inflow is less than the total drain; with equal drain rates the
    inter-event intervals contract by (inflow - drain) / drain.  Raises
    ValueError unless the inflow is finite and >= 0, the drain rates finite
    and > 0 and the thresholds finite.
    """
    inflow = _physical("inflow", inflow, "finite and >= 0", lambda v: v >= 0.0)
    v1, v2 = (_physical("drain", v, "finite and > 0", lambda v: v > 0.0) for v in drain)
    th1, th2 = (_physical("thresholds", v, "finite") for v in thresholds)
    return HybridSystem(
        modes=("fill-1", "fill-2"),
        flows={"fill-1": (0.0, inflow - v1, -v2), "fill-2": (0.0, -v1, inflow - v2)},
        edges=(("fill-1", "fill-2"), ("fill-2", "fill-1")),
        guards={("fill-1", "fill-2"): (0.0, 1.0, th2),
                ("fill-2", "fill-1"): (1.0, 0.0, th1)},
        resets={("fill-1", "fill-2"): None, ("fill-2", "fill-1"): None},
    )


def water_tank_lagrangian() -> HybridLagrangian:
    """Mode-dependent constant cost rates, 2 while filling tank 1 and 1
    while filling tank 2.  Distinct rates at the Zeno point make the
    truncation cost gap exactly linear in the remaining time."""
    return HybridLagrangian({"fill-1": 2.0, "fill-2": 1.0})


def bouncing_ball(gravity: float = 1.0, restitution: float = 0.5) -> HybridSystem:
    """Ballistic flight with an impact reset x2 -> -restitution * x2 when the
    height crosses zero while falling (non-identity reset: shown for
    demonstration, the linear-rate guarantee does not cover it).  Raises
    ValueError unless gravity is finite and > 0 and the restitution lies in
    (0, 1)."""
    gravity = _physical("gravity", gravity, "finite and > 0", lambda v: v > 0.0)
    restitution = _physical("restitution", restitution, "in (0, 1)",
                            lambda v: 0.0 < v < 1.0)
    return HybridSystem(
        modes=("flight",),
        flows={"flight": (1.0, 0.0, -gravity)},
        edges=(("flight", "flight"),),
        guards={("flight", "flight"): (1.0, 0.0, 0.0)},
        resets={("flight", "flight"): lambda x: (x[0], -restitution * x[1])},
    )


def bouncing_ball_lagrangian() -> HybridLagrangian:
    return HybridLagrangian({"flight": 1.0})
