import dataclasses
import math
import time

import numpy as np
import pytest

from chatterlab.errors import Inconclusive
from chatterlab.hybrid import (
    EVENT_TIME_TOL,
    STEP_FLOOR,
    STEP_FRACTION,
    HybridArc,
    HybridLagrangian,
    HybridSystem,
    _arc_cost,
    _frozen_deviation,
    bouncing_ball,
    bouncing_ball_lagrangian,
    detect_zeno,
    execute,
    hybrid_cost,
    truncate_zeno,
    water_tank,
    water_tank_lagrangian,
    zeno_rate_sweep,
)

SQRT2 = math.sqrt(2.0)


# test systems whose fields and resets return ndarrays

def stationary():
    return HybridSystem(
        modes=("idle",),
        fields={"idle": lambda x: np.zeros(2)},
        edges=(("idle", "idle"),),
        guards={("idle", "idle"): lambda x: x[0] - 1.0},
        resets={("idle", "idle"): None},
    )


def periodic_switcher():
    return HybridSystem(
        modes=("tick", "tock"),
        fields={"tick": lambda x: np.array([-1.0]),
                "tock": lambda x: np.array([-1.0])},
        edges=(("tick", "tock"), ("tock", "tick")),
        guards={("tick", "tock"): lambda x: x[0],
                ("tock", "tick"): lambda x: x[0]},
        resets={("tick", "tock"): lambda x: np.array([1.0]),
                ("tock", "tick"): lambda x: np.array([1.0])},
    )


def polynomial_shrinker():
    # intervals shrink like a power of the event index, not geometrically
    return HybridSystem(
        modes=("a",),
        fields={"a": lambda x: np.array([-1.0, 1.0])},
        edges=(("a", "a"),),
        guards={("a", "a"): lambda x: x[0]},
        resets={("a", "a"): lambda x: np.array([1.0 / (2.0 + x[1]) ** 2, x[1]])},
    )


# ---------------------------------------------------------------------------
# execution and event detection
# ---------------------------------------------------------------------------

def test_water_tank_intervals_contract_geometrically(tank_run):
    _, traj = tank_run
    intervals = np.diff(traj.tau)
    # after the start-up transient the ratio is (inflow - drain) / drain
    ratios = intervals[2:10] / intervals[1:9]
    assert np.max(np.abs(ratios - 0.5)) <= 1e-9
    assert intervals[0] == pytest.approx(1.0, abs=1e-10)
    assert intervals[1] == pytest.approx(1.5, abs=1e-10)


def test_water_tank_guard_residuals(tank_run):
    _, traj = tank_run
    assert max(traj.guard_residuals) <= 1e-10


def test_bouncing_ball_closed_forms(ball_run):
    _, traj = ball_run
    assert traj.event_times[0] == pytest.approx(SQRT2, rel=1e-10)
    # impact speed sqrt(2); k-th post-impact speed contracts by the
    # restitution each bounce, flight intervals are 2 v / g
    impact_speed = abs(traj.arcs[0].end_state[1])
    assert impact_speed == pytest.approx(SQRT2, rel=1e-10)
    for k in (1, 3, 6):
        post = traj.arcs[k].x0[1]
        assert post == pytest.approx(SQRT2 * 0.5 ** k, rel=1e-8)
        interval = traj.tau[k + 1] - traj.tau[k]
        assert interval == pytest.approx(2.0 * SQRT2 * 0.5 ** k, rel=1e-8)


def test_stationary_mode_runs_to_horizon():
    traj = execute(stationary(), "idle", (0.0, 0.0), horizon=1.0)
    assert traj.n_events == 0
    assert len(traj.arcs) == 1
    assert traj.duration == pytest.approx(1.0)


def test_event_overflow_carries_partial_trajectory():
    system = water_tank()
    partial = execute(system, "fill-1", (0.5, 0.5), horizon=5.0, max_events=10)
    assert partial.n_events == 10
    assert partial.hit_max_events


def test_trajectory_is_frozen(tank_run):
    _, traj = tank_run
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.hit_max_events = False


def test_execution_stops_when_intervals_hold_the_step_at_its_floor():
    # contraction ratio 0.2: long before thirty events the intervals reach
    # the bisection tolerance, where the run used to crawl on at floor steps
    start = time.perf_counter()
    partial = execute(water_tank(inflow=0.6), "fill-1", (0.5, 0.5), horizon=5.0,
                      max_events=30)
    assert time.perf_counter() - start < 5.0
    assert partial.hit_max_events and partial.n_events < 30
    intervals = np.diff(partial.tau)
    assert intervals[-1] / 4.0 <= STEP_FLOOR < intervals[-2] / 4.0


def test_event_times_strictly_increase(tank_run, ball_run):
    for _, traj in (tank_run, ball_run):
        tau = traj.tau
        assert all(b > a for a, b in zip(tau, tau[1:]))


# ---------------------------------------------------------------------------
# Zeno detection
# ---------------------------------------------------------------------------

def test_ball_accumulation_time(ball_run):
    _, traj = ball_run
    fit = detect_zeno(traj)
    assert fit.is_zeno
    expected = 3.0 * SQRT2
    assert abs(fit.tau_inf - expected) / expected <= 1e-9


def test_water_tank_accumulation_time(tank_run):
    _, traj = tank_run
    fit = detect_zeno(traj)
    assert fit.is_zeno
    # start-up interval, then a plain geometric sum
    expected = 1.0 + 1.5 / (1.0 - 0.5)
    assert abs(fit.tau_inf - expected) / expected <= 1e-9


def test_periodic_switcher_is_not_zeno():
    traj = execute(periodic_switcher(), "tick", (1.0,), horizon=12.0, max_events=11)
    fit = detect_zeno(traj)
    assert not fit.is_zeno
    assert fit.tau_inf == math.inf


def test_polynomially_shrinking_intervals_are_inconclusive():
    traj = execute(polynomial_shrinker(), "a", (1.0, 0.0), horizon=4.0, max_events=12)
    with pytest.raises(Inconclusive):
        detect_zeno(traj)


def test_detect_zeno_needs_enough_events(tank_run):
    system, _ = tank_run
    short = execute(system, "fill-1", (0.5, 0.5), horizon=5.0, max_events=4)
    with pytest.raises(ValueError):
        detect_zeno(short)


# ---------------------------------------------------------------------------
# truncation of Zeno executions
# ---------------------------------------------------------------------------

def test_truncate_zeno_depth_zero_is_single_arc(tank_run):
    system, traj = tank_run
    tau_inf = detect_zeno(traj).tau_inf
    z0 = truncate_zeno(traj, 0, system, tau_inf)
    assert len(z0.arcs) == 1
    assert z0.arcs[0].mode == "fill-1"
    assert z0.duration == pytest.approx(tau_inf, rel=1e-12)


def test_truncate_zeno_at_last_event_matches_to_tolerance(tank_run):
    system, traj = tank_run
    n = traj.n_events - 1
    zn = truncate_zeno(traj, n, system, detect_zeno(traj).tau_inf)
    # the kept prefix is exact, the frozen window is geometrically small
    for arc_a, arc_b in zip(zn.arcs[:-1], traj.arcs[:n]):
        assert arc_a.mode == arc_b.mode
        assert np.max(np.abs(arc_a.end_state - arc_b.end_state)) <= 1e-12
    frozen = zn.arcs[-1]
    src = traj.arcs[n]
    overlap = min(frozen.t0 + frozen.duration, src.t0 + src.duration)
    dev = np.max(np.abs(frozen.state_at(overlap) - src.state_at(overlap)))
    assert dev <= 1e-9


def test_water_tank_deviation_linear_with_single_constant(tank_run):
    system, traj = tank_run
    tau_inf = detect_zeno(traj).tau_inf
    ratios = []
    for n in range(2, 13):
        zn = truncate_zeno(traj, n, system, tau_inf)
        dev = _frozen_deviation(traj, zn, n)
        ratios.append(dev / (tau_inf - traj.tau[n]))
    c_hat = max(ratios)
    assert all(r <= c_hat * (1.0 + 1e-9) for r in ratios)
    assert min(ratios) >= 0.2 * c_hat  # genuinely linear, not super-linear


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def test_unit_lagrangian_cost_is_duration():
    system = water_tank()
    traj = execute(system, "fill-1", (50.0, 50.0), horizon=1.0)
    unit = HybridLagrangian({"fill-1": lambda t, x: 1.0,
                             "fill-2": lambda t, x: 1.0})
    assert hybrid_cost(traj, unit) == pytest.approx(1.0, rel=1e-12)


def test_zeno_ball_cost_equals_accumulation_time(ball_run):
    _, traj = ball_run
    cost = hybrid_cost(traj, bouncing_ball_lagrangian())
    expected = 3.0 * SQRT2
    assert abs(cost - expected) / expected <= 1e-9


def test_truncated_cost_exceeds_zeno_cost_when_frozen_mode_is_expensive(tank_run):
    system, traj = tank_run
    tau_inf = detect_zeno(traj).tau_inf
    lagrangian = water_tank_lagrangian()
    c_star = hybrid_cost(traj, lagrangian)
    for n in (2, 4, 6):  # even depths freeze the expensive mode
        zn = truncate_zeno(traj, n, system, tau_inf)
        assert zn.arcs[-1].mode == "fill-1"
        assert hybrid_cost(zn, lagrangian) >= c_star


# ---------------------------------------------------------------------------
# rate sweep
# ---------------------------------------------------------------------------

def test_zeno_rate_sweep_water_tank(tank_run):
    system, traj = tank_run
    sweep = zeno_rate_sweep(traj, range(2, 13), water_tank_lagrangian(), system)
    assert abs(sweep.dev_slope - 1.0) <= 0.1
    assert abs(sweep.gap_slope - 1.0) <= 0.1
    assert sweep.bound_ok
    params = [r.param for r in sweep.records]
    sups = [r.sup_dev for r in sweep.records]
    gaps = [abs(r.cost_gap) for r in sweep.records]
    assert all(b < a for a, b in zip(params, params[1:]))
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_zeno_rate_sweep_validates_depths(tank_run):
    system, traj = tank_run
    with pytest.raises(ValueError):
        zeno_rate_sweep(traj, [2, 3, 4], water_tank_lagrangian(), system)
    with pytest.raises(ValueError):
        zeno_rate_sweep(traj, [5, 4, 3, 2, 1], water_tank_lagrangian(), system)


def test_ball_rate_reported_not_asserted(ball_run):
    # non-identity resets sit outside the linear-rate guarantee: the sweep
    # still runs and reports a fit, whatever its slope
    system, traj = ball_run
    height = HybridLagrangian({"flight": lambda t, x: max(x[0], 0.0)})
    sweep = zeno_rate_sweep(traj, range(2, 9), height, system)
    assert math.isfinite(sweep.gap_slope)
    assert math.isfinite(sweep.dev_slope)


# ---------------------------------------------------------------------------
# array-at-a-time kernels against the per-sample loops they replaced
# ---------------------------------------------------------------------------

def reference_arc_cost(arc, lagrangian):
    """Composite Simpson on uniform pairs, one sample at a time."""
    vals = np.array([lagrangian.rate(arc.mode, t, x)
                     for t, x in zip(arc.times, arc.states)])
    times = arc.times
    total = 0.0
    i = 0
    n = len(times) - 1
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


def reference_frozen_deviation(traj_star, traj_n, n):
    """Sup deviation of the frozen arc, interpolated one sample at a time."""
    frozen = traj_n.arcs[-1]
    worst = 0.0
    for arc in traj_star.arcs[n:]:
        for t, x in zip(arc.times, arc.states):
            if t > frozen.t0 + frozen.duration:
                break
            xn = frozen.state_at(t)
            worst = max(worst, float(np.max(np.abs(xn - x))))
    return worst


def _wavy(modes):
    # state- and time-dependent rates, so any reordered sum shows
    return HybridLagrangian({q: (lambda t, x, k=k: math.sin(3.0 * t + k) + x[0] * x[1]
                                 + x[0] ** 2) for k, q in enumerate(modes)})


def _runs(tank_run, ball_run):
    tank_system, tank = tank_run
    ball_system, ball = ball_run
    height = HybridLagrangian({"flight": lambda t, x: max(x[0], 0.0)})
    return ((tank_system, tank, water_tank_lagrangian()),
            (tank_system, tank, _wavy(tank_system.modes)),
            (ball_system, ball, height),
            (ball_system, ball, _wavy(ball_system.modes)))


def test_arc_cost_equals_per_sample_loop(tank_run, ball_run):
    for system, traj, lagrangian in _runs(tank_run, ball_run):
        tau_inf = detect_zeno(traj).tau_inf
        arcs = list(traj.arcs)
        arcs += [truncate_zeno(traj, n, system, tau_inf).arcs[-1] for n in range(2, 13)]
        for arc in arcs:
            assert _arc_cost(arc, lagrangian) == reference_arc_cost(arc, lagrangian)


def test_arc_cost_with_uneven_pair_and_odd_tail_equals_per_sample_loop():
    # two uniform pairs, an uneven pair, two uniform pairs, one odd tail step
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.47, 0.6, 0.7, 0.8, 0.9, 1.0, 1.13])
    states = np.column_stack([np.cos(times), np.sin(2.0 * times)])
    arc = HybridArc("a", 0.0, float(times[-1]), times, states)
    lagrangian = _wavy(("a",))
    assert _arc_cost(arc, lagrangian) == reference_arc_cost(arc, lagrangian)
    for cut in range(1, len(times) + 1):
        part = HybridArc("a", 0.0, float(times[cut - 1]), times[:cut], states[:cut])
        assert _arc_cost(part, lagrangian) == reference_arc_cost(part, lagrangian)


def test_frozen_deviation_equals_per_sample_loop(tank_run, ball_run):
    for system, traj in (tank_run, ball_run):
        tau_inf = detect_zeno(traj).tau_inf
        for n in range(2, 13):
            traj_n = truncate_zeno(traj, n, system, tau_inf)
            assert (_frozen_deviation(traj, traj_n, n)
                    == reference_frozen_deviation(traj, traj_n, n))


def test_zeno_rate_sweep_records_equal_truncated_costs(tank_run, ball_run):
    for system, traj, lagrangian in _runs(tank_run, ball_run):
        sweep = zeno_rate_sweep(traj, range(2, 13), lagrangian, system)
        cost_star = hybrid_cost(traj, lagrangian)
        tau_inf = detect_zeno(traj).tau_inf
        for rec in sweep.records:
            traj_n = truncate_zeno(traj, int(rec.tv), system, tau_inf)
            assert rec.cost_gap == hybrid_cost(traj_n, lagrangian) - cost_star


def test_zeno_rate_sweep_evaluates_each_sample_once(tank_run):
    system, traj = tank_run
    tau_inf = detect_zeno(traj).tau_inf
    calls = []
    rates = water_tank_lagrangian()
    counted = HybridLagrangian({q: (lambda t, x, q=q: calls.append(q) or rates.rate(q, t, x))
                                for q in system.modes})
    depths = range(2, 13)
    zeno_rate_sweep(traj, depths, counted, system)
    samples = sum(len(arc.times) for arc in traj.arcs)
    samples += sum(len(truncate_zeno(traj, n, system, tau_inf).arcs[-1].times)
                   for n in depths)
    assert len(calls) <= samples


# ---------------------------------------------------------------------------
# the float-tuple RK4 kernel against the ndarray loops it replaced
# ---------------------------------------------------------------------------

def reference_rk4_step(f, x, h):
    half = 0.5 * h
    k1 = np.asarray(f(x), dtype=float)
    k2 = np.asarray(f(x + half * k1), dtype=float)
    k3 = np.asarray(f(x + half * k2), dtype=float)
    k4 = np.asarray(f(x + h * k3), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_execute(system, q0, x0, horizon, max_events):
    """The ndarray execute loop; returns (event times, [(times, states)],
    guard residuals, final state) where execute returns."""
    base_step = step = STEP_FRACTION * horizon
    t, x, q = 0.0, np.asarray(x0, dtype=float), q0
    event_times, arcs, residuals = [], [], []
    while True:
        f = system.fields[q]
        edges = system.outgoing(q)
        g_prev = {e: float(system.guards[e](x)) for e in edges}
        armed = {e: g_prev[e] > 0.0 for e in edges}
        times, states = [t], [x.copy()]
        t_arc, event = t, None
        while t_arc < horizon - 1e-15:
            h = min(step, horizon - t_arc)
            x_next = reference_rk4_step(f, x, h)
            crossings = []
            for e in edges:
                g = float(system.guards[e](x_next))
                if armed[e] and g_prev[e] > 0.0 >= g:
                    crossings.append(e)
                g_prev[e] = g
                armed[e] = armed[e] or g > 0.0
            if crossings:
                best = None
                for e in crossings:
                    lo, hi = 0.0, h
                    while hi - lo > EVENT_TIME_TOL:
                        mid = 0.5 * (lo + hi)
                        if float(system.guards[e](reference_rk4_step(f, x, mid))) > 0.0:
                            lo = mid
                        else:
                            hi = mid
                    if best is None or hi < best[0]:
                        best = (hi, e)
                dt_e, edge = best
                x_event = reference_rk4_step(f, x, dt_e)
                times.append(t_arc + dt_e)
                states.append(x_event.copy())
                residuals.append(abs(float(system.guards[edge](x_event))))
                event = (t_arc + dt_e, edge, x_event)
                break
            x, t_arc = x_next, t_arc + h
            times.append(t_arc)
            states.append(x.copy())
        arcs.append((np.array(times), np.array(states)))
        if event is None:
            return event_times, arcs, residuals, arcs[-1][1][-1]
        t_event, edge, x_event = event
        event_times.append(t_event)
        reset = system.resets.get(edge)
        x = x_event.copy() if reset is None else np.asarray(reset(x_event), dtype=float)
        q = edge[1]
        interval = t_event - (event_times[-2] if len(event_times) > 1 else 0.0)
        step = min(base_step, max(interval / 4.0, STEP_FLOOR))
        t = t_event
        if t < horizon and (len(event_times) >= max_events
                            or interval / 4.0 <= STEP_FLOOR):
            return event_times, arcs, residuals, x


def reference_frozen_states(traj_star, n, system, tau_inf):
    """The ndarray loop of truncate_zeno's frozen arc."""
    x = traj_star.arcs[n].x0.copy()
    duration = tau_inf - traj_star.tau[n]
    n_steps = max(2, int(math.ceil(duration / (STEP_FRACTION * tau_inf))))
    n_steps += n_steps % 2
    h = duration / n_steps
    states = [x]
    for _ in range(n_steps):
        x = reference_rk4_step(system.fields[traj_star.arcs[n].mode], x, h)
        states.append(x)
    return np.array(states)


def damped_pendulum():
    # a nonlinear field; the impact reset keeps the event cascade Zeno
    return HybridSystem(
        modes=("swing",),
        fields={"swing": lambda x: (x[1], -math.sin(x[0]) - 0.3 * x[1] * abs(x[1]) - 0.5)},
        edges=(("swing", "swing"),),
        guards={("swing", "swing"): lambda x: x[0]},
        resets={("swing", "swing"): lambda x: (x[0], -0.6 * x[1])},
    )


@pytest.mark.parametrize("build, q0, x0, horizon, max_events, zeno", [
    (water_tank, "fill-1", (0.5, 0.5), 5.0, 30, True),
    (bouncing_ball, "flight", (1.0, 0.0), 5.0, 22, True),
    (damped_pendulum, "swing", (1.0, 0.0), 20.0, 25, True),
    (stationary, "idle", (0.0, 0.0), 1.0, 64, False),
    (periodic_switcher, "tick", (1.0,), 12.0, 11, False),
    (polynomial_shrinker, "a", (1.0, 0.0), 4.0, 12, False),
])
def test_execution_and_frozen_arcs_equal_ndarray_loops(build, q0, x0, horizon,
                                                       max_events, zeno):
    system = build()
    traj = execute(system, q0, x0, horizon, max_events)
    event_times, arcs, residuals, final_state = reference_execute(
        system, q0, x0, horizon, max_events)
    assert traj.event_times == event_times
    assert traj.guard_residuals == residuals
    assert np.array_equal(traj.final_state, final_state)
    assert len(traj.arcs) == len(arcs)
    for arc, (times, states) in zip(traj.arcs, arcs):
        assert np.array_equal(arc.times, times)
        assert np.array_equal(arc.states, states)
    if zeno:
        fit = detect_zeno(traj)
        assert fit.is_zeno
        for n in range(traj.n_events):
            frozen = truncate_zeno(traj, n, system, fit.tau_inf).arcs[-1]
            assert np.array_equal(frozen.states,
                                  reference_frozen_states(traj, n, system, fit.tau_inf))


@pytest.mark.parametrize("system, x", [
    (water_tank(), (0.5, 0.25)),
    (water_tank(inflow=1, drain=(1, 1), thresholds=(0, 0)), (0.5, 0.25)),
    (bouncing_ball(), (0.5, -0.25)),
    (bouncing_ball(gravity=2, restitution=0.75), (0.5, -0.25)),
])
def test_builtin_models_compute_on_plain_floats(system, x):
    # an ndarray anywhere would put the RK4 kernel on numpy scalars, about
    # three times slower per step
    for f in list(system.fields.values()) + [r for r in system.resets.values() if r]:
        out = f(x)
        assert type(out) is tuple and [type(v) for v in out] == [float] * len(x)
    for g in system.guards.values():
        assert type(g(x)) is float


@pytest.mark.parametrize("build, kwargs, name", [
    (water_tank, {"inflow": -0.1}, "inflow"),
    (water_tank, {"inflow": math.nan}, "inflow"),
    (water_tank, {"drain": (0.5, 0.0)}, "drain"),
    (water_tank, {"drain": (math.inf, 0.5)}, "drain"),
    (water_tank, {"thresholds": (0.0, math.nan)}, "thresholds"),
    (bouncing_ball, {"gravity": 0.0}, "gravity"),
    (bouncing_ball, {"gravity": math.inf}, "gravity"),
    (bouncing_ball, {"restitution": 0.0}, "restitution"),
    (bouncing_ball, {"restitution": 1.0}, "restitution"),
    (bouncing_ball, {"restitution": math.nan}, "restitution"),
])
def test_builtin_models_reject_physics_out_of_range(build, kwargs, name):
    with pytest.raises(ValueError, match=name):
        build(**kwargs)
