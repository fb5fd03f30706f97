"""Hybrid automaton execution, Zeno detection, and truncation regularization.

A hybrid system is a finite set of modes with one vector field each, edges
carrying scalar guard functions (an event fires when a guard crosses zero
from above) and optional reset maps.  Arcs are integrated with fixed-step
classical Runge-Kutta; events are localized by bisection inside the step
that crossed.  Executions that exhaust their event budget before the
horizon return the partial run with hit_max_events set, which is the normal
entry point for Zeno analysis: detect_zeno fits it, and the fit's
accumulation time sets where truncate_zeno ends its frozen arc.

Fields, guards and resets receive the state as a tuple of floats.  A field
or reset may return any length-dim sequence of numbers and a guard any
number; the built-in models return plain floats, which keeps the RK4 kernel
on Python float arithmetic.  Each arc's samples are stored as ndarrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Inconclusive
from .ratefit import GAP_FLOOR, fit_power_law
from .records import RateRecord

#: default integration step as a fraction of the horizon
STEP_FRACTION = 1e-4

#: bisection tolerance on event times (one decade inside the 1e-12 budget so
#: interval differences near the accumulation stay fit-quality)
EVENT_TIME_TOL = 1e-13

#: smallest integration step; an execution whose arcs call for a smaller
#: one stops as if its event budget were spent
STEP_FLOOR = 16.0 * EVENT_TIME_TOL

#: relative residual above which the geometric interval fit is inconclusive
GEOMETRIC_FIT_TOL = 1e-6

#: number of trailing inter-event intervals the geometric fit uses
ZENO_WINDOW = 6


@dataclass(frozen=True)
class HybridSystem:
    """Modes, per-mode vector fields, edges with scalar crossing guards and
    optional resets (None means identity)."""

    modes: tuple[str, ...]
    fields: dict[str, Callable]
    edges: tuple[tuple[str, str], ...]
    guards: dict[tuple[str, str], Callable]
    resets: dict[tuple[str, str], Callable | None]

    def __post_init__(self):
        for q in self.modes:
            if q not in self.fields:
                raise ValueError(f"mode {q!r} has no vector field")
        for edge in self.edges:
            if edge[0] not in self.modes or edge[1] not in self.modes:
                raise ValueError(f"edge {edge} uses unknown modes")
            if edge not in self.guards:
                raise ValueError(f"edge {edge} has no guard")

    def outgoing(self, q: str):
        return tuple(e for e in self.edges if e[0] == q)


@dataclass(frozen=True)
class HybridArc:
    mode: str
    t0: float
    duration: float
    times: np.ndarray
    states: np.ndarray

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    @property
    def end_state(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, t: float) -> np.ndarray:
        return np.array([np.interp(t, self.times, col) for col in self.states.T])


@dataclass(frozen=True)
class HybridTrajectory:
    """Execution record: event times, one arc per inter-event interval, and
    whether the event budget (or the step floor) cut the run short."""

    event_times: list[float]
    arcs: list[HybridArc]
    final_state: np.ndarray
    horizon: float
    hit_max_events: bool
    guard_residuals: list[float]

    @property
    def tau(self) -> tuple[float, ...]:
        """Event-time sequence including tau_0 = 0."""
        return (0.0,) + tuple(self.event_times)

    @property
    def n_events(self) -> int:
        return len(self.event_times)

    @property
    def duration(self) -> float:
        last = self.arcs[-1]
        return last.t0 + last.duration


def _rk4_step(f: Callable, x: tuple, h: float) -> tuple:
    """One classical RK4 step of the state tuple x, component by component.

    Each component sees numpy's elementwise operations of the vector form
    x + h/6 * (k1 + 2 k2 + 2 k3 + k4) in the same order; Python floats and
    float64 arrays both round every operation once, without fused
    multiply-adds, so the steps are the same doubles.
    """
    half = 0.5 * h
    k1 = f(x)
    k2 = f(tuple([xi + half * ki for xi, ki in zip(x, k1)]))
    k3 = f(tuple([xi + half * ki for xi, ki in zip(x, k2)]))
    k4 = f(tuple([xi + h * ki for xi, ki in zip(x, k3)]))
    sixth = h / 6.0
    return tuple([xi + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
                  for xi, a, b, c, d in zip(x, k1, k2, k3, k4)])


def _float_state(x) -> tuple:
    return tuple([float(v) for v in x])


def execute(system: HybridSystem, q0: str, x0, horizon: float,
            max_events: int = 64) -> HybridTrajectory:
    """Run the automaton from (q0, x0) until the horizon or the event budget.

    Guards fire on downward zero crossings and are armed only after being
    observed positive, so a state resting exactly on a guard surface does
    not retrigger.  Each crossing is bisected to a time window of 1e-12.
    Exhausting max_events returns the partial run with hit_max_events set
    (the usual signature of a Zeno execution); so does an inter-event
    interval short enough to hold the step at STEP_FLOOR.
    """
    if max_events < 1:
        raise ValueError("max_events must be at least 1")
    if q0 not in system.modes:
        raise ValueError(f"unknown initial mode {q0!r}")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    base_step = STEP_FRACTION * horizon
    step = base_step
    t = 0.0
    x = _float_state(x0)
    q = q0
    event_times: list[float] = []
    arcs: list[HybridArc] = []
    residuals: list[float] = []
    while True:
        f = system.fields[q]
        edges = system.outgoing(q)
        armed = {e: False for e in edges}
        g_prev = {}
        for e in edges:
            g = float(system.guards[e](x))
            g_prev[e] = g
            if g > 0.0:
                armed[e] = True
        times = [t]
        states = [x]
        t_arc = t
        event = None
        while t_arc < horizon - 1e-15:
            h = min(step, horizon - t_arc)
            x_next = _rk4_step(f, x, h)
            t_next = t_arc + h
            crossings = []
            for e in edges:
                g = float(system.guards[e](x_next))
                if armed[e] and g_prev[e] > 0.0 >= g:
                    crossings.append(e)
                g_prev[e] = g
                if g > 0.0:
                    armed[e] = True
            if crossings:
                best = None
                for e in crossings:
                    lo, hi = 0.0, h
                    g_fn = system.guards[e]
                    while hi - lo > EVENT_TIME_TOL:
                        mid = 0.5 * (lo + hi)
                        if float(g_fn(_rk4_step(f, x, mid))) > 0.0:
                            lo = mid
                        else:
                            hi = mid
                    if best is None or hi < best[0]:
                        best = (hi, e)
                dt_e, edge = best
                x_event = _rk4_step(f, x, dt_e)
                t_event = t_arc + dt_e
                times.append(t_event)
                states.append(x_event)
                residuals.append(abs(float(system.guards[edge](x_event))))
                event = (t_event, edge, x_event)
                break
            x = x_next
            t_arc = t_next
            times.append(t_arc)
            states.append(x)
        arc_times = np.array(times)
        arc_states = np.array(states)
        if event is None:
            arcs.append(HybridArc(q, t, horizon - t, arc_times, arc_states))
            return HybridTrajectory(event_times, arcs, arc_states[-1].copy(),
                                    horizon, False, residuals)
        t_event, edge, x_event = event
        arcs.append(HybridArc(q, t, t_event - t, arc_times, arc_states))
        event_times.append(t_event)
        reset = system.resets.get(edge)
        x = x_event if reset is None else _float_state(reset(x_event))
        q = edge[1]
        # Zeno cascades contract the arcs geometrically; shrink the step with
        # them so a whole arc can never hide inside one integration step
        interval = t_event - (event_times[-2] if len(event_times) > 1 else 0.0)
        step = min(base_step, max(interval / 4.0, STEP_FLOOR))
        t = t_event
        # once the step is held at its floor the next arcs shrink to the
        # bisection tolerance: their guards may never be seen positive, and
        # floor steps would crawl to the horizon
        at_floor = interval / 4.0 <= STEP_FLOOR
        if t < horizon and (len(event_times) >= max_events or at_floor):
            return HybridTrajectory(event_times, arcs, np.array(x), horizon, True,
                                    residuals)


@dataclass(frozen=True)
class ZenoFit:
    """Geometric model of the last ZENO_WINDOW inter-event intervals: their
    contraction ratio, the accumulation time it implies (+inf unless the
    ratio is below one) and the fit's largest relative residual."""

    ratio: float
    tau_inf: float
    residual: float

    @property
    def is_zeno(self) -> bool:
        return self.ratio < 1.0 - 1e-9


def detect_zeno(traj: HybridTrajectory) -> ZenoFit:
    """Fit a geometric model to the last ZENO_WINDOW inter-event intervals.

    Raises Inconclusive when the fit's relative residual exceeds
    GEOMETRIC_FIT_TOL, and ValueError when fewer than ZENO_WINDOW + 2 events
    were recorded.
    """
    if traj.n_events < ZENO_WINDOW + 2:
        raise ValueError(f"need at least {ZENO_WINDOW + 2} events, got {traj.n_events}")
    tau = np.array(traj.tau)
    intervals = np.diff(tau)[-ZENO_WINDOW:]
    idx = np.arange(ZENO_WINDOW, dtype=float)
    design = np.column_stack([np.ones(ZENO_WINDOW), idx])
    (intercept, slope), *_ = np.linalg.lstsq(design, np.log(intervals), rcond=None)
    ratio = math.exp(slope)
    predicted = np.exp(intercept + slope * idx)
    residual = float(np.max(np.abs(predicted - intervals) / intervals))
    if residual > GEOMETRIC_FIT_TOL:
        raise Inconclusive(
            f"interval fit residual {residual:.3g} exceeds {GEOMETRIC_FIT_TOL}")
    fit = ZenoFit(ratio, math.inf, residual)
    if not fit.is_zeno:
        return fit
    tau_inf = traj.event_times[-1] + intervals[-1] * ratio / (1.0 - ratio)
    return ZenoFit(ratio, float(tau_inf), residual)


def truncate_zeno(traj_star: HybridTrajectory, n: int, system: HybridSystem,
                  tau_inf: float) -> HybridTrajectory:
    """Keep the first n events, then freeze the active mode and integrate its
    field up to the accumulation time tau_inf, ignoring guards."""
    if not 0 <= n < traj_star.n_events:
        raise ValueError(f"n must lie in [0, {traj_star.n_events})")
    arcs = list(traj_star.arcs[:n])
    events = list(traj_star.event_times[:n])
    frozen_arc_src = traj_star.arcs[n]
    q = frozen_arc_src.mode
    t0 = traj_star.tau[n]
    f = system.fields[q]
    duration = tau_inf - t0
    step = STEP_FRACTION * max(tau_inf, 1e-12)
    n_steps = max(2, int(math.ceil(duration / step)))
    if n_steps % 2:
        n_steps += 1
    h = duration / n_steps
    times = np.empty(n_steps + 1)
    times[0] = t0
    times[1:] = t0 + np.arange(1, n_steps + 1) * h
    x = tuple(frozen_arc_src.x0.tolist())
    states = [x]
    for _ in range(n_steps):
        x = _rk4_step(f, x, h)
        states.append(x)
    states = np.array(states)
    arcs.append(HybridArc(q, t0, duration, times, states))
    return HybridTrajectory(events, arcs, states[-1].copy(), tau_inf, False,
                            list(traj_star.guard_residuals[:n]))


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridLagrangian:
    """One running-cost integrand per mode, continuous in (t, x)."""

    per_mode: dict[str, Callable]

    def rate(self, mode: str, t: float, x) -> float:
        return float(self.per_mode[mode](t, x))


def _arc_rates(arc: HybridArc, lagrangian: HybridLagrangian) -> np.ndarray:
    """The running-cost rate at every sample of the arc, from plain floats."""
    return np.fromiter((lagrangian.rate(arc.mode, t, x)
                        for t, x in zip(arc.times.tolist(), arc.states.tolist())),
                       dtype=float, count=len(arc.times))


def _simpson(times: np.ndarray, vals: np.ndarray) -> float:
    """Composite Simpson on uniform pairs, trapezoid on the other steps and
    on the odd tail step.

    The leading run of uniform pairs (all of them on a fixed-step arc) is
    summed array-at-a-time, left to right, so the total is bit-identical to
    a scalar loop over the pairs; np.sum would add pairwise.
    """
    n = len(times) - 1
    steps = np.diff(times)
    h1, h2 = steps[0:n - 1:2], steps[1::2]
    uneven = np.flatnonzero(~(np.abs(h1 - h2) <= 1e-9 * np.maximum(h1, h2)))
    pairs = int(uneven[0]) if len(uneven) else len(h1)
    total = 0.0
    if pairs:
        terms = (h1[:pairs] + h2[:pairs]) / 6.0 * (
            vals[0:2 * pairs:2] + 4.0 * vals[1:2 * pairs:2] + vals[2:2 * pairs + 1:2])
        total += np.add.accumulate(terms)[-1]
    i = 2 * pairs
    while i + 2 <= n:
        h1 = times[i + 1] - times[i]
        h2 = times[i + 2] - times[i + 1]
        if abs(h1 - h2) <= 1e-9 * max(h1, h2):
            total += (h1 + h2) / 6.0 * (vals[i] + 4.0 * vals[i + 1] + vals[i + 2])
            i += 2
        else:
            total += 0.5 * h1 * (vals[i] + vals[i + 1])
            i += 1
    if i + 1 <= n:
        h1 = times[i + 1] - times[i]
        total += 0.5 * h1 * (vals[i] + vals[i + 1])
    return total


def _arc_cost(arc: HybridArc, lagrangian: HybridLagrangian) -> float:
    return _simpson(arc.times, _arc_rates(arc, lagrangian))


def _geometric_tail(traj: HybridTrajectory, c_prev: float, c_last: float):
    """zeno_tail_cost from the costs of the last two recorded arcs; the
    trajectory must fit as Zeno."""
    if not detect_zeno(traj).is_zeno:
        raise Inconclusive("tail extrapolation needs a Zeno trajectory")
    tau = traj.tau
    ratio = (tau[-1] - tau[-2]) / (tau[-2] - tau[-3])
    r2 = ratio * ratio
    tail = (c_prev + c_last) * r2 / (1.0 - r2)
    bound = abs(tail) * max(10.0 * GEOMETRIC_FIT_TOL, 1e-12)
    return tail, bound


def zeno_tail_cost(traj: HybridTrajectory, lagrangian: HybridLagrangian):
    """Cost beyond the last resolved event, extrapolated with the fitted
    geometric interval model; returns (tail, error bound).

    Future arcs alternate parity with the recorded ones, so same-parity arc
    costs contract by the squared interval ratio; summing both parities from
    the last two arcs gives the tail in closed form.
    """
    return _geometric_tail(traj, _arc_cost(traj.arcs[-2], lagrangian),
                           _arc_cost(traj.arcs[-1], lagrangian))


def _total_cost(traj: HybridTrajectory, arc_costs: list) -> float:
    """hybrid_cost from the quadrature of each arc of traj, in arc order."""
    total = sum(arc_costs)
    if traj.hit_max_events:
        tail, _ = _geometric_tail(traj, arc_costs[-2], arc_costs[-1])
        total += tail
    return total


def hybrid_cost(traj: HybridTrajectory, lagrangian: HybridLagrangian) -> float:
    """Sum of per-arc quadratures; executions cut by the event budget get the
    geometric tail estimate added so the value covers [0, tau_inf]."""
    return _total_cost(traj, [_arc_cost(arc, lagrangian) for arc in traj.arcs])


# ---------------------------------------------------------------------------
# truncation sweep
# ---------------------------------------------------------------------------

def _frozen_deviation(traj_star: HybridTrajectory, traj_n: HybridTrajectory,
                      n: int) -> float:
    """Sup-norm deviation over the recorded support; the trajectories agree
    up to event n, so only the frozen arc is compared."""
    frozen = traj_n.arcs[-1]
    times = np.concatenate([arc.times for arc in traj_star.arcs[n:]])
    states = np.concatenate([arc.states for arc in traj_star.arcs[n:]])
    keep = times <= frozen.t0 + frozen.duration
    times, states = times[keep], states[keep]
    return max(float(np.max(np.abs(np.interp(times, frozen.times, col) - ref)))
               for col, ref in zip(frozen.states.T, states.T))


def _mode_mismatch_time(traj_star: HybridTrajectory, n: int, frozen_mode: str) -> float:
    total = 0.0
    for arc in traj_star.arcs[n:]:
        if arc.mode != frozen_mode:
            total += arc.duration
    return total


@dataclass(frozen=True)
class ZenoSweep:
    records: tuple[RateRecord, ...]
    dev_slope: float
    gap_slope: float | None
    dev_constant: float
    gap_constant: float | None
    sup_rate_constant: float
    rate_bound_constant: float
    bound_ok: bool
    #: RK4 steps of the frozen arcs, summed over the depths
    frozen_steps: int


def zeno_rate_sweep(traj_star: HybridTrajectory, ns, lagrangian: HybridLagrangian,
                    system: HybridSystem) -> ZenoSweep:
    """Truncate the Zeno execution after each requested event count and
    record deviations against the accumulation-time scale tau_inf - tau_n.

    Log-log slopes are fitted for the sup-norm deviation and for the
    magnitude of the cost gap (the gap's sign alternates with the frozen
    mode's parity when the per-mode cost rates differ at the Zeno point).
    Gaps at the rounding floor are left out of the gap fit; with fewer than
    three left, gap_slope and gap_constant are None.
    The gap is also checked against (sup rate - inf rate) * (tau_inf -
    tau_n), with the rates measured along the run.
    """
    ns = [int(n) for n in ns]
    if len(ns) < 5:
        raise ValueError("need at least 5 truncation depths")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("truncation depths must be strictly increasing")
    fit = detect_zeno(traj_star)
    if not fit.is_zeno:
        raise Inconclusive("rate sweep needs a Zeno trajectory")
    tau_inf = fit.tau_inf
    # every sample's rate is evaluated once: the reference arcs' rates give
    # their quadratures (reused by every depth's kept prefix) and, with the
    # frozen arcs', the cost-rate envelope measured along the run
    rates = [_arc_rates(arc, lagrangian) for arc in traj_star.arcs]
    arc_costs = [_simpson(arc.times, r) for arc, r in zip(traj_star.arcs, rates)]
    cost_star = _total_cost(traj_star, arc_costs)
    c_inf = float(min(r.min() for r in rates))
    c_sup = float(max(r.max() for r in rates))
    records = []
    bound_ok = True
    frozen_steps = 0
    for n in ns:
        t0 = time.perf_counter()
        traj_n = truncate_zeno(traj_star, n, system, tau_inf)
        frozen = traj_n.arcs[-1]
        frozen_steps += len(frozen.times) - 1
        frozen_rates = _arc_rates(frozen, lagrangian)
        # hybrid_cost(traj_n): the kept arcs, then the frozen one (no tail)
        cost_n = sum(arc_costs[:n] + [_simpson(frozen.times, frozen_rates)])
        gap = cost_n - cost_star
        c_sup = max(c_sup, float(frozen_rates.max()))
        param = tau_inf - traj_star.tau[n]
        sup_dev = _frozen_deviation(traj_star, traj_n, n)
        records.append(RateRecord(
            param=param,
            cost_gap=gap,
            sup_dev=sup_dev,
            l1_dev=_mode_mismatch_time(traj_star, n, frozen.mode),
            tv=float(n),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        ))
    for rec in records:
        if abs(rec.cost_gap) > (c_sup - c_inf) * rec.param + 1e-12:
            bound_ok = False
    dev_fit = fit_power_law([(r.param, r.sup_dev) for r in records])
    gaps = [(r.param, abs(r.cost_gap)) for r in records if abs(r.cost_gap) > GAP_FLOOR]
    gap_fit = fit_power_law(gaps) if len(gaps) >= 3 else None
    sup_rate = max(r.sup_dev / r.param for r in records)
    return ZenoSweep(
        records=tuple(records),
        dev_slope=dev_fit.exponent,
        gap_slope=gap_fit.exponent if gap_fit else None,
        dev_constant=dev_fit.constant,
        gap_constant=gap_fit.constant if gap_fit else None,
        sup_rate_constant=sup_rate,
        rate_bound_constant=c_sup - c_inf,
        bound_ok=bound_ok,
        frozen_steps=frozen_steps,
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
    fill_1, fill_2 = (inflow - v1, -v2), (-v1, inflow - v2)
    return HybridSystem(
        modes=("fill-1", "fill-2"),
        fields={
            "fill-1": lambda x: fill_1,
            "fill-2": lambda x: fill_2,
        },
        edges=(("fill-1", "fill-2"), ("fill-2", "fill-1")),
        guards={
            ("fill-1", "fill-2"): lambda x: x[1] - th2,
            ("fill-2", "fill-1"): lambda x: x[0] - th1,
        },
        resets={("fill-1", "fill-2"): None, ("fill-2", "fill-1"): None},
    )


def water_tank_lagrangian(rate_fill_1: float = 2.0,
                          rate_fill_2: float = 1.0) -> HybridLagrangian:
    """Mode-dependent constant cost rates.  Distinct rates at the Zeno point
    make the truncation cost gap exactly linear in the remaining time."""
    return HybridLagrangian({
        "fill-1": lambda t, x: rate_fill_1,
        "fill-2": lambda t, x: rate_fill_2,
    })


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
        fields={"flight": lambda x: (x[1], -gravity)},
        edges=(("flight", "flight"),),
        guards={("flight", "flight"): lambda x: x[0]},
        resets={("flight", "flight"): lambda x: (x[0], -restitution * x[1])},
    )


def bouncing_ball_lagrangian() -> HybridLagrangian:
    return HybridLagrangian({"flight": lambda t, x: 1.0})
