"""Hybrid automaton execution, Zeno detection, and truncation regularization.

A hybrid system is a finite set of modes with one vector field each, edges
carrying scalar guard functions (an event fires when a guard crosses zero
from above) and optional reset maps.  Arcs are integrated with fixed-step
classical Runge-Kutta; events are localized by bisection inside the step
that crossed.  Executions that exhaust their event budget before the
horizon raise EventOverflow with the partial trajectory attached, which is
the normal entry point for Zeno analysis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EventOverflow, Inconclusive
from .ratefit import GAP_FLOOR, fit_power_law
from .records import RateRecord

#: default integration step as a fraction of the horizon
STEP_FRACTION = 1e-4

#: bisection tolerance on event times (one decade inside the 1e-12 budget so
#: interval differences near the accumulation stay fit-quality)
EVENT_TIME_TOL = 1e-13

#: relative residual above which the geometric interval fit is inconclusive
GEOMETRIC_FIT_TOL = 1e-6


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


@dataclass
class HybridTrajectory:
    """Execution record: event times, one arc per inter-event interval, and
    the Zeno annotation filled in by detect_zeno."""

    event_times: list[float]
    arcs: list[HybridArc]
    final_state: np.ndarray
    horizon: float
    hit_max_events: bool
    guard_residuals: list[float] = field(default_factory=list)
    zeno: bool | None = None
    tau_inf: float | None = None

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

    def state_at(self, t: float) -> np.ndarray:
        if t < 0.0 or t > self.duration * (1.0 + 1e-12):
            raise ValueError(f"t={t} outside [0, {self.duration}]")
        for arc in self.arcs:
            if t <= arc.t0 + arc.duration:
                return arc.state_at(t)
        return self.arcs[-1].end_state


def _rk4_step(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(f(x), dtype=float)
    k2 = np.asarray(f(x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(x + h * k3), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def execute(system: HybridSystem, q0: str, x0, horizon: float,
            max_events: int = 64, step_fraction: float = STEP_FRACTION) -> HybridTrajectory:
    """Run the automaton from (q0, x0) until the horizon or the event budget.

    Guards fire on downward zero crossings and are armed only after being
    observed positive, so a state resting exactly on a guard surface does
    not retrigger.  Each crossing is bisected to a time window of 1e-12.
    Exhausting max_events raises EventOverflow carrying the partial
    trajectory (the usual signature of a Zeno execution).
    """
    if max_events < 1:
        raise ValueError("max_events must be at least 1")
    if q0 not in system.modes:
        raise ValueError(f"unknown initial mode {q0!r}")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    base_step = step_fraction * horizon
    step = base_step
    t = 0.0
    x = np.asarray(x0, dtype=float)
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
        states = [x.copy()]
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
                states.append(x_event.copy())
                residuals.append(abs(float(system.guards[edge](x_event))))
                event = (t_event, edge, x_event)
                break
            x = x_next
            t_arc = t_next
            times.append(t_arc)
            states.append(x.copy())
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
        x = x_event.copy() if reset is None else np.asarray(reset(x_event), dtype=float)
        q = edge[1]
        # Zeno cascades contract the arcs geometrically; shrink the step with
        # them so a whole arc can never hide inside one integration step
        interval = t_event - (event_times[-2] if len(event_times) > 1 else 0.0)
        step = min(base_step, max(interval / 4.0, 16.0 * EVENT_TIME_TOL))
        t = t_event
        if len(event_times) >= max_events and t < horizon:
            traj = HybridTrajectory(event_times, arcs, x.copy(), horizon, True,
                                    residuals)
            raise EventOverflow(
                f"{max_events} events before t={t:.6g} < horizon {horizon:.6g}",
                trajectory=traj)


def run_until_overflow(system: HybridSystem, q0: str, x0, horizon: float,
                       max_events: int = 64,
                       step_fraction: float = STEP_FRACTION) -> HybridTrajectory:
    """Execute and hand back the partial trajectory when the event budget is
    exhausted; convenience wrapper around the EventOverflow signal."""
    try:
        return execute(system, q0, x0, horizon, max_events, step_fraction)
    except EventOverflow as exc:
        return exc.trajectory


def detect_zeno(traj: HybridTrajectory, window: int = 6):
    """Fit a geometric model to the last `window` inter-event intervals.

    Returns (is_zeno, accumulation-time estimate); the estimate is +inf when
    the fitted ratio is not below one.  Raises Inconclusive when the fit's
    relative residual exceeds 1e-6, and ValueError when fewer than
    window + 2 events were recorded.  A conclusive answer is annotated on
    the trajectory.
    """
    if traj.n_events < window + 2:
        raise ValueError(f"need at least {window + 2} events, got {traj.n_events}")
    tau = np.array(traj.tau)
    intervals = np.diff(tau)[-window:]
    idx = np.arange(window, dtype=float)
    design = np.column_stack([np.ones(window), idx])
    (intercept, slope), *_ = np.linalg.lstsq(design, np.log(intervals), rcond=None)
    ratio = math.exp(slope)
    predicted = np.exp(intercept + slope * idx)
    residual = float(np.max(np.abs(predicted - intervals) / intervals))
    if residual > GEOMETRIC_FIT_TOL:
        raise Inconclusive(
            f"interval fit residual {residual:.3g} exceeds {GEOMETRIC_FIT_TOL}")
    if ratio >= 1.0 - 1e-9:
        traj.zeno = False
        traj.tau_inf = None
        return False, math.inf
    tau_inf = traj.event_times[-1] + intervals[-1] * ratio / (1.0 - ratio)
    traj.zeno = True
    traj.tau_inf = tau_inf
    return True, tau_inf


def truncate_zeno(traj_star: HybridTrajectory, n: int, system: HybridSystem,
                  tau_inf: float | None = None,
                  step_fraction: float = STEP_FRACTION) -> HybridTrajectory:
    """Keep the first n events, then freeze the active mode and integrate its
    field up to the accumulation time, ignoring guards."""
    if tau_inf is None:
        tau_inf = traj_star.tau_inf
        if tau_inf is None:
            _, tau_inf = detect_zeno(traj_star)
    if not 0 <= n < traj_star.n_events:
        raise ValueError(f"n must lie in [0, {traj_star.n_events})")
    arcs = list(traj_star.arcs[:n])
    events = list(traj_star.event_times[:n])
    frozen_arc_src = traj_star.arcs[n]
    q = frozen_arc_src.mode
    t0 = traj_star.tau[n]
    x0 = frozen_arc_src.x0.copy()
    f = system.fields[q]
    duration = tau_inf - t0
    step = step_fraction * max(tau_inf, 1e-12)
    n_steps = max(2, int(math.ceil(duration / step)))
    if n_steps % 2:
        n_steps += 1
    h = duration / n_steps
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, len(x0)))
    times[0] = t0
    states[0] = x0
    x = x0
    for k in range(n_steps):
        x = _rk4_step(f, x, h)
        times[k + 1] = t0 + (k + 1) * h
        states[k + 1] = x
    arcs.append(HybridArc(q, t0, duration, times, states))
    return HybridTrajectory(events, arcs, states[-1].copy(), tau_inf, False,
                            list(traj_star.guard_residuals[:n]), zeno=False)


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridLagrangian:
    """One running-cost integrand per mode, continuous in (t, x)."""

    per_mode: dict[str, Callable]

    def rate(self, mode: str, t: float, x) -> float:
        return float(self.per_mode[mode](t, x))


def _arc_cost(arc: HybridArc, lagrangian: HybridLagrangian) -> float:
    vals = np.array([lagrangian.rate(arc.mode, t, x)
                     for t, x in zip(arc.times, arc.states)])
    times = arc.times
    total = 0.0
    i = 0
    n = len(times) - 1
    # composite Simpson on uniform pairs, trapezoid on the odd tail step
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


def zeno_tail_cost(traj: HybridTrajectory, lagrangian: HybridLagrangian,
                   window: int = 6):
    """Cost beyond the last resolved event, extrapolated with the fitted
    geometric interval model; returns (tail, error bound).

    Future arcs alternate parity with the recorded ones, so same-parity arc
    costs contract by the squared interval ratio; summing both parities from
    the last two arcs gives the tail in closed form.
    """
    if traj.zeno is None:
        detect_zeno(traj, window)
    if not traj.zeno:
        raise Inconclusive("tail extrapolation needs a Zeno trajectory")
    tau = np.array(traj.tau)
    intervals = np.diff(tau)[-window:]
    ratio = float(intervals[-1] / intervals[-2]) if len(intervals) >= 2 else 0.0
    c_prev = _arc_cost(traj.arcs[-2], lagrangian)
    c_last = _arc_cost(traj.arcs[-1], lagrangian)
    r2 = ratio * ratio
    tail = (c_prev + c_last) * r2 / (1.0 - r2)
    bound = abs(tail) * max(10.0 * GEOMETRIC_FIT_TOL, 1e-12)
    return tail, bound


def hybrid_cost(traj: HybridTrajectory, lagrangian: HybridLagrangian,
                window: int = 6) -> float:
    """Sum of per-arc quadratures; executions cut by the event budget get the
    geometric tail estimate added so the value covers [0, tau_inf]."""
    total = sum(_arc_cost(arc, lagrangian) for arc in traj.arcs)
    if traj.hit_max_events:
        tail, _ = zeno_tail_cost(traj, lagrangian, window)
        total += tail
    return total


# ---------------------------------------------------------------------------
# truncation sweep
# ---------------------------------------------------------------------------

def _frozen_deviation(traj_star: HybridTrajectory, traj_n: HybridTrajectory,
                      n: int) -> float:
    """Sup-norm deviation over the recorded support; the trajectories agree
    up to event n, so only the frozen arc is compared."""
    frozen = traj_n.arcs[-1]
    worst = 0.0
    for arc in traj_star.arcs[n:]:
        for t, x in zip(arc.times, arc.states):
            if t > frozen.t0 + frozen.duration:
                break
            xn = frozen.state_at(t)
            worst = max(worst, float(np.max(np.abs(xn - x))))
    return worst


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


def zeno_rate_sweep(traj_star: HybridTrajectory, ns, lagrangian: HybridLagrangian,
                    system: HybridSystem, *, window: int = 6) -> ZenoSweep:
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
    if traj_star.zeno is None:
        detect_zeno(traj_star, window)
    if not traj_star.zeno:
        raise Inconclusive("rate sweep needs a Zeno trajectory")
    tau_inf = traj_star.tau_inf
    cost_star = hybrid_cost(traj_star, lagrangian, window)
    # cost-rate envelope measured along the executed run and the frozen arcs
    rates = []
    for arc in traj_star.arcs:
        for t, x in zip(arc.times, arc.states):
            rates.append(lagrangian.rate(arc.mode, t, x))
    c_inf = min(rates)
    c_sup = max(rates)
    records = []
    bound_ok = True
    for n in ns:
        t0 = time.perf_counter()
        traj_n = truncate_zeno(traj_star, n, system)
        cost_n = hybrid_cost(traj_n, lagrangian, window)
        gap = cost_n - cost_star
        frozen = traj_n.arcs[-1]
        for t, x in zip(frozen.times, frozen.states):
            c_sup = max(c_sup, lagrangian.rate(frozen.mode, t, x))
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
    )


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def water_tank(inflow: float = 0.75, drain: tuple[float, float] = (0.5, 0.5),
               thresholds: tuple[float, float] = (0.0, 0.0)) -> HybridSystem:
    """Two draining tanks sharing one inflow hose: the hose switches to a
    tank when that tank's level falls to its threshold.  Zeno whenever the
    inflow is less than the total drain; with equal drain rates the
    inter-event intervals contract by (inflow - drain) / drain.
    """
    v1, v2 = drain
    th1, th2 = thresholds
    return HybridSystem(
        modes=("fill-1", "fill-2"),
        fields={
            "fill-1": lambda x: np.array([inflow - v1, -v2]),
            "fill-2": lambda x: np.array([-v1, inflow - v2]),
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
    demonstration, the linear-rate guarantee does not cover it)."""
    return HybridSystem(
        modes=("flight",),
        fields={"flight": lambda x: np.array([x[1], -gravity])},
        edges=(("flight", "flight"),),
        guards={("flight", "flight"): lambda x: x[0]},
        resets={("flight", "flight"):
                lambda x: np.array([x[0], -restitution * x[1]])},
    )


def bouncing_ball_lagrangian() -> HybridLagrangian:
    return HybridLagrangian({"flight": lambda t, x: 1.0})


MODEL_BUILDERS = {
    "water-tank": water_tank,
    "bouncing-ball": bouncing_ball,
}
