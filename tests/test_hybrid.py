import dataclasses
import math
import time

import numpy as np
import pytest

from chatterlab.errors import Inconclusive
from chatterlab.hybrid import (
    GEOMETRIC_FIT_TOL,
    HybridLagrangian,
    HybridSystem,
    _first_event,
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


# test systems; resets return ndarrays

def stationary():
    return HybridSystem(
        modes=("idle",),
        flows={"idle": (0.0, 0.0, 0.0)},
        edges=(("idle", "idle"),),
        guards={("idle", "idle"): (1.0, 0.0, 1.0)},
        resets={("idle", "idle"): None},
    )


def periodic_switcher():
    return HybridSystem(
        modes=("tick", "tock"),
        flows={"tick": (0.0, -1.0, 0.0), "tock": (0.0, -1.0, 0.0)},
        edges=(("tick", "tock"), ("tock", "tick")),
        guards={("tick", "tock"): (1.0, 0.0, 0.0), ("tock", "tick"): (1.0, 0.0, 0.0)},
        resets={("tick", "tock"): lambda x: np.array([1.0, x[1]]),
                ("tock", "tick"): lambda x: np.array([1.0, x[1]])},
    )


def polynomial_shrinker():
    # intervals shrink like a power of the event index, not geometrically
    return HybridSystem(
        modes=("a",),
        flows={"a": (0.0, -1.0, 1.0)},
        edges=(("a", "a"),),
        guards={("a", "a"): (1.0, 0.0, 0.0)},
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


def test_execution_stops_when_an_arc_no_longer_advances_the_clock():
    # contraction ratio 0.2: long before thirty events the intervals fall
    # below the clock's resolution; the run stops there as a Zeno cut
    system = water_tank(inflow=0.6)
    start = time.perf_counter()
    partial = execute(system, "fill-1", (0.5, 0.5), horizon=5.0, max_events=30)
    assert time.perf_counter() - start < 5.0
    assert partial.hit_max_events and partial.n_events < 30
    t = partial.event_times[-1]
    assert t + partial.intervals[-1] > t
    mode = partial.arcs[-1].mode
    edge = next(e for e in system.edges if e[0] != mode)
    d = _first_event(system.guards[edge], system.motion(edge[0], partial.final_state))
    assert 0.0 < d and t + d == t


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
    traj = execute(periodic_switcher(), "tick", (1.0, 0.0), horizon=12.0, max_events=11)
    fit = detect_zeno(traj)
    assert not fit.is_zeno
    assert fit.tau_inf == math.inf


def test_polynomially_shrinking_intervals_are_inconclusive():
    traj = execute(polynomial_shrinker(), "a", (1.0, 0.0), horizon=4.0, max_events=12)
    with pytest.raises(Inconclusive):
        detect_zeno(traj)


def test_tank_ratio_fit_is_within_rounding_of_the_exact_ratio():
    # equal drains d: the intervals contract by exactly (inflow - d) / d
    rng = np.random.default_rng(0)
    for ratio in rng.uniform(0.2, 0.8, 300):
        inflow = 0.5 * (1.0 + float(ratio))
        traj = execute(water_tank(inflow, drain=(0.5, 0.5)), "fill-1", (0.5, 0.5),
                       horizon=100.0, max_events=30)
        exact = (inflow - 0.5) / 0.5
        assert abs(detect_zeno(traj).ratio - exact) <= 2e-15 * exact, inflow


def test_detect_zeno_needs_enough_events(tank_run):
    system, _ = tank_run
    short = execute(system, "fill-1", (0.5, 0.5), horizon=5.0, max_events=4)
    with pytest.raises(ValueError):
        detect_zeno(short)
    with pytest.raises(ValueError):  # the run's fit raises as detect_zeno does
        short.fit


def test_a_run_is_fitted_once(tank_run):
    _, traj = tank_run
    fresh = dataclasses.replace(traj)
    assert fresh.fit is fresh.fit
    assert fresh.fit == detect_zeno(traj)


def tank_tau_inf(inflow, levels=(0.5, 0.5), drain=(0.5, 0.5)):
    # zero thresholds: the total level drains at v1 + v2 - inflow
    return sum(levels) / (sum(drain) - inflow)


@pytest.mark.parametrize("ratio", [round(0.2 + 0.01 * k, 2) for k in range(34)])
def test_tank_fits_resolve_at_small_ratios(ratio):
    # exact durations keep the geometric fit at rounding level even where
    # the last intervals fall to 1e-16 and the run stops at its Zeno cut
    inflow = 0.5 * (1.0 + ratio)
    tau = tank_tau_inf(inflow)
    for factor in np.linspace(1.2, 2.0, 9):
        traj = execute(water_tank(inflow=inflow), "fill-1", (0.5, 0.5),
                       horizon=factor * tau, max_events=30)
        fit = detect_zeno(traj)
        assert fit.residual <= GEOMETRIC_FIT_TOL
        assert fit.ratio == pytest.approx(ratio, abs=1e-9)
        assert abs(fit.tau_inf - tau) <= 1e-9


@pytest.mark.parametrize("restitution", [0.05, 0.1, 0.15, 0.2, 0.25])
def test_ball_reaches_the_zeno_cut_at_small_restitution(restitution):
    # whole flights shorter than a quarter of the previous one are events
    # like any other: the run ends at its Zeno cut, not in free fall
    c = restitution
    traj = execute(bouncing_ball(restitution=c), "flight", (1.0, 0.0),
                   horizon=5.0 * (1.0 + c) / (1.0 - c), max_events=200)
    assert traj.hit_max_events and traj.n_events >= 9
    assert abs(detect_zeno(traj).tau_inf - SQRT2 * (1.0 + c) / (1.0 - c)) <= 1e-9


@pytest.mark.parametrize("inflow", [0.6, 0.75, 0.9])
def test_tank_gap_identity_and_remaining_time_to_the_cut(inflow):
    # |gap| = |r1 - r2| rho / (1 + rho) (tau_inf - tau_n) at every depth the
    # run keeps, and tau_inf - tau_n strictly decreases down to the cut;
    # with |r1 - r2| = 1 the gap is the time outside the frozen mode, tail
    # included, to the last bit
    system = water_tank(inflow=inflow)
    rho = (inflow - 0.5) / 0.5
    traj = execute(system, "fill-1", (0.5, 0.5), horizon=20.0, max_events=30)
    sweep = zeno_rate_sweep(traj, range(2, traj.n_events), water_tank_lagrangian(), system)
    params = [r.param for r in sweep.records]
    assert all(b < a for a, b in zip(params, params[1:]))
    for rec in sweep.records:
        assert abs(rec.cost_gap) == pytest.approx(rho / (1.0 + rho) * rec.param, rel=1e-14)
        assert rec.l1_dev == abs(rec.cost_gap)


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
        assert max(abs(a - b) for a, b in zip(arc_a.end_state, arc_b.end_state)) <= 1e-12
    assert _frozen_deviation(traj, n, system, zn.arcs[-1].duration) <= 1e-9


def test_water_tank_deviation_linear_with_single_constant(tank_run):
    system, traj = tank_run
    tau_inf = detect_zeno(traj).tau_inf
    ratios = []
    for n in range(2, 13):
        zn = truncate_zeno(traj, n, system, tau_inf)
        dev = _frozen_deviation(traj, n, system, zn.arcs[-1].duration)
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
    unit = HybridLagrangian({"fill-1": 1.0, "fill-2": 1.0})
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
    with pytest.raises(ValueError):  # depth n_events has no event arc to freeze
        zeno_rate_sweep(traj, range(2, traj.n_events + 1), water_tank_lagrangian(), system)


def test_ball_rate_reported_not_asserted(ball_run):
    # non-identity resets sit outside the linear-rate guarantee: the sweep
    # still runs and reports its deviation fit; with one mode, every frozen
    # arc costs what the run does, so the gaps are exactly zero and unfitted
    system, traj = ball_run
    sweep = zeno_rate_sweep(traj, range(2, 9), bouncing_ball_lagrangian(), system)
    assert math.isfinite(sweep.dev_slope)
    assert sweep.gap_slope is None and sweep.bound_ok
    assert all(r.cost_gap == 0.0 for r in sweep.records)


# ---------------------------------------------------------------------------
# closed forms against sampled and absolute-time references
# ---------------------------------------------------------------------------

def dense_frozen_deviation(traj_star, n, system, duration, samples=10_000):
    """Sup deviation of the frozen arc sampled densely on each recorded arc."""
    q = traj_star.arcs[n].mode
    x = traj_star.arcs[n].x0
    worst, s = 0.0, 0.0
    for arc in traj_star.arcs[n:]:
        if s >= duration:
            break
        ts = np.linspace(0.0, min(arc.duration, duration - s), samples + 1)
        frozen = system.flow(q, x, s + ts)
        star = system.flow(arc.mode, arc.x0, ts)
        worst = max(worst, np.max(np.abs(frozen[0] - star[0])),
                    np.max(np.abs(frozen[1] - star[1])))
        s += arc.duration
    return worst


def test_frozen_deviation_bounds_dense_samples(tank_run, ball_run):
    for system, traj in (tank_run, ball_run):
        tau_inf = detect_zeno(traj).tau_inf
        for n in (2, 5, 9):
            duration = truncate_zeno(traj, n, system, tau_inf).arcs[-1].duration
            exact = _frozen_deviation(traj, n, system, duration)
            dense = dense_frozen_deviation(traj, n, system, duration)
            assert dense <= exact * (1.0 + 1e-12)
            assert exact <= dense * (1.0 + 1e-3)


def test_zeno_rate_sweep_records_equal_truncated_costs(tank_run, ball_run):
    # the sweep sums the remaining time per mode from the end; the same values
    # from absolute times and whole-run totals agree to their rounding
    tank_system, tank = tank_run
    ball_system, ball = ball_run
    for system, traj, lagrangian in (
            (tank_system, tank, water_tank_lagrangian()),
            (tank_system, tank, water_tank_lagrangian(0.5, 3.0)),
            (ball_system, ball, bouncing_ball_lagrangian())):
        sweep = zeno_rate_sweep(traj, range(2, 13), lagrangian, system)
        cost_star = hybrid_cost(traj, lagrangian)
        tau_inf = detect_zeno(traj).tau_inf
        for rec in sweep.records:
            traj_n = truncate_zeno(traj, int(rec.tv), system, tau_inf)
            assert rec.param == pytest.approx(tau_inf - traj.tau[int(rec.tv)],
                                              rel=0.0, abs=4e-15)
            assert rec.cost_gap == pytest.approx(hybrid_cost(traj_n, lagrangian) - cost_star,
                                                 rel=0.0, abs=1e-14 * cost_star)


@pytest.mark.parametrize("system, x", [
    (water_tank(), (0.5, 0.25)),
    (water_tank(inflow=1, drain=(1, 1), thresholds=(0, 0)), (0.5, 0.25)),
    (bouncing_ball(), (0.5, -0.25)),
    (bouncing_ball(gravity=2, restitution=0.75), (0.5, -0.25)),
])
def test_builtin_models_compute_on_plain_floats(system, x):
    # an ndarray anywhere would put the closed forms on numpy scalars
    for coefficients in list(system.flows.values()) + list(system.guards.values()):
        assert [type(v) for v in coefficients] == [float] * 3
    for reset in (r for r in system.resets.values() if r):
        out = reset(x)
        assert type(out) is tuple and [type(v) for v in out] == [float] * 2
    for q in system.modes:
        assert [type(v) for v in system.flow(q, x, 0.25)] == [float] * 2


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
