import math
import time

import numpy as np
import pytest

from chatterlab.errors import EventOverflow, Inconclusive
from chatterlab.hybrid import (
    STEP_FLOOR,
    HybridArc,
    HybridLagrangian,
    HybridSystem,
    _arc_cost,
    _frozen_deviation,
    bouncing_ball_lagrangian,
    detect_zeno,
    execute,
    hybrid_cost,
    run_until_overflow,
    truncate_zeno,
    water_tank,
    water_tank_lagrangian,
    zeno_rate_sweep,
)

SQRT2 = math.sqrt(2.0)


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
    system = HybridSystem(
        modes=("idle",),
        fields={"idle": lambda x: np.zeros(2)},
        edges=(("idle", "idle"),),
        guards={("idle", "idle"): lambda x: x[0] - 1.0},
        resets={("idle", "idle"): None},
    )
    traj = execute(system, "idle", (0.0, 0.0), horizon=1.0)
    assert traj.n_events == 0
    assert len(traj.arcs) == 1
    assert traj.duration == pytest.approx(1.0)


def test_event_overflow_carries_partial_trajectory():
    system = water_tank()
    with pytest.raises(EventOverflow) as info:
        execute(system, "fill-1", (0.5, 0.5), horizon=5.0, max_events=10)
    partial = info.value.trajectory
    assert partial is not None
    assert partial.n_events == 10
    assert partial.hit_max_events


def test_execution_stops_when_intervals_hold_the_step_at_its_floor():
    # contraction ratio 0.2: long before thirty events the intervals reach
    # the bisection tolerance, where the run used to crawl on at floor steps
    start = time.perf_counter()
    with pytest.raises(EventOverflow) as info:
        execute(water_tank(inflow=0.6), "fill-1", (0.5, 0.5), horizon=5.0,
                max_events=30)
    assert time.perf_counter() - start < 5.0
    partial = info.value.trajectory
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
    is_zeno, tau_inf = detect_zeno(traj)
    assert is_zeno
    expected = 3.0 * SQRT2
    assert abs(tau_inf - expected) / expected <= 1e-9


def test_water_tank_accumulation_time(tank_run):
    _, traj = tank_run
    is_zeno, tau_inf = detect_zeno(traj)
    assert is_zeno
    # start-up interval, then a plain geometric sum
    expected = 1.0 + 1.5 / (1.0 - 0.5)
    assert abs(tau_inf - expected) / expected <= 1e-9


def test_periodic_switcher_is_not_zeno():
    system = HybridSystem(
        modes=("tick", "tock"),
        fields={"tick": lambda x: np.array([-1.0]),
                "tock": lambda x: np.array([-1.0])},
        edges=(("tick", "tock"), ("tock", "tick")),
        guards={("tick", "tock"): lambda x: x[0],
                ("tock", "tick"): lambda x: x[0]},
        resets={("tick", "tock"): lambda x: np.array([1.0]),
                ("tock", "tick"): lambda x: np.array([1.0])},
    )
    traj = run_until_overflow(system, "tick", (1.0,), horizon=12.0, max_events=11)
    is_zeno, tau_inf = detect_zeno(traj)
    assert not is_zeno
    assert tau_inf == math.inf


def test_polynomially_shrinking_intervals_are_inconclusive():
    # intervals shrink like a power of the event index, not geometrically
    system = HybridSystem(
        modes=("a",),
        fields={"a": lambda x: np.array([-1.0, 1.0])},
        edges=(("a", "a"),),
        guards={("a", "a"): lambda x: x[0]},
        resets={("a", "a"): lambda x: np.array([1.0 / (2.0 + x[1]) ** 2, x[1]])},
    )
    traj = run_until_overflow(system, "a", (1.0, 0.0), horizon=4.0, max_events=12)
    with pytest.raises(Inconclusive):
        detect_zeno(traj)


def test_detect_zeno_needs_enough_events(tank_run):
    system, _ = tank_run
    short = run_until_overflow(system, "fill-1", (0.5, 0.5), horizon=5.0,
                               max_events=4)
    with pytest.raises(ValueError):
        detect_zeno(short, window=6)


# ---------------------------------------------------------------------------
# truncation of Zeno executions
# ---------------------------------------------------------------------------

def test_truncate_zeno_depth_zero_is_single_arc(tank_run):
    system, traj = tank_run
    detect_zeno(traj)
    z0 = truncate_zeno(traj, 0, system)
    assert len(z0.arcs) == 1
    assert z0.arcs[0].mode == "fill-1"
    assert z0.duration == pytest.approx(traj.tau_inf, rel=1e-12)


def test_truncate_zeno_at_last_event_matches_to_tolerance(tank_run):
    system, traj = tank_run
    detect_zeno(traj)
    n = traj.n_events - 1
    zn = truncate_zeno(traj, n, system)
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
    detect_zeno(traj)
    ratios = []
    for n in range(2, 13):
        zn = truncate_zeno(traj, n, system)
        dev = _frozen_deviation(traj, zn, n)
        ratios.append(dev / (traj.tau_inf - traj.tau[n]))
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
    detect_zeno(traj)
    cost = hybrid_cost(traj, bouncing_ball_lagrangian())
    expected = 3.0 * SQRT2
    assert abs(cost - expected) / expected <= 1e-9


def test_truncated_cost_exceeds_zeno_cost_when_frozen_mode_is_expensive(tank_run):
    system, traj = tank_run
    detect_zeno(traj)
    lagrangian = water_tank_lagrangian()
    c_star = hybrid_cost(traj, lagrangian)
    for n in (2, 4, 6):  # even depths freeze the expensive mode
        zn = truncate_zeno(traj, n, system)
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
    for traj in (tank, ball):
        detect_zeno(traj)
    height = HybridLagrangian({"flight": lambda t, x: max(x[0], 0.0)})
    return ((tank_system, tank, water_tank_lagrangian()),
            (tank_system, tank, _wavy(tank_system.modes)),
            (ball_system, ball, height),
            (ball_system, ball, _wavy(ball_system.modes)))


def test_arc_cost_equals_per_sample_loop(tank_run, ball_run):
    for system, traj, lagrangian in _runs(tank_run, ball_run):
        arcs = list(traj.arcs)
        arcs += [truncate_zeno(traj, n, system).arcs[-1] for n in range(2, 13)]
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
        detect_zeno(traj)
        for n in range(2, 13):
            traj_n = truncate_zeno(traj, n, system)
            assert (_frozen_deviation(traj, traj_n, n)
                    == reference_frozen_deviation(traj, traj_n, n))


def test_zeno_rate_sweep_records_equal_truncated_costs(tank_run, ball_run):
    for system, traj, lagrangian in _runs(tank_run, ball_run):
        sweep = zeno_rate_sweep(traj, range(2, 13), lagrangian, system)
        cost_star = hybrid_cost(traj, lagrangian)
        for rec in sweep.records:
            traj_n = truncate_zeno(traj, int(rec.tv), system)
            assert rec.cost_gap == hybrid_cost(traj_n, lagrangian) - cost_star


def test_zeno_rate_sweep_evaluates_each_sample_once(tank_run):
    system, traj = tank_run
    detect_zeno(traj)
    calls = []
    rates = water_tank_lagrangian()
    counted = HybridLagrangian({q: (lambda t, x, q=q: calls.append(q) or rates.rate(q, t, x))
                                for q in system.modes})
    depths = range(2, 13)
    zeno_rate_sweep(traj, depths, counted, system)
    samples = sum(len(arc.times) for arc in traj.arcs)
    samples += sum(len(truncate_zeno(traj, n, system).arcs[-1].times) for n in depths)
    assert len(calls) <= samples
