import math

import numpy as np
import pytest

from chatterlab.cli import _default_eta_grid
from chatterlab.controls import (
    PiecewiseConstantControl,
    ProblemSpec,
    di_arc,
    motion_gap,
    simulate,
    tv,
)
from chatterlab.errors import CutTooLarge, DegenerateFit
from chatterlab.fuller import FullerSynthesis, default_synthesis, synthesize_chattering
from chatterlab.solver import regularization_path
from chatterlab.truncation import (
    TAIL_TV_BUDGET,
    composite_rate_bound,
    l1_control_distance,
    min_time_steer,
    min_time_to_origin,
    sup_state_deviation,
    truncate,
    truncation_lag_for_budget,
    truncation_rate_sweep,
)


def steer_residual(y, control):
    spec = ProblemSpec(x0=y)
    return math.hypot(*simulate(spec, control).final_state)


# ---------------------------------------------------------------------------
# minimum-time steering and the time-optimal map
# ---------------------------------------------------------------------------

def test_steer_from_positive_rest():
    for a in (0.25, 1.0, 4.0):
        control, tau = min_time_steer((a, 0.0))
        assert control.values == (-1.0, 1.0)
        d = math.sqrt(a)
        assert tau == pytest.approx(2.0 * d, rel=1e-14)
        assert control.breakpoints == pytest.approx((0.0, d, 2.0 * d), rel=1e-14)
        assert steer_residual((a, 0.0), control) <= 1e-12


def test_steer_from_origin_is_empty():
    control, tau = min_time_steer((0.0, 0.0))
    assert control is None and tau == 0.0


def test_steer_single_arc_on_curve():
    v = 0.8
    y = (0.5 * v * v, -v)  # on the min-time curve below the axis
    control, tau = min_time_steer(y)
    assert control.values == (1.0,)
    assert tau == pytest.approx(v, rel=1e-14)
    assert steer_residual(y, control) <= 1e-12


def test_steer_random_states():
    rng = np.random.default_rng(23)
    for _ in range(300):
        y = tuple(rng.uniform(-3.0, 3.0, 2))
        control, tau = min_time_steer(y)
        if control is None:
            assert y == (0.0, 0.0)
            continue
        assert tv(control) <= 2.0
        assert steer_residual(y, control) <= 1e-11
        assert tau == pytest.approx(min_time_to_origin(y), rel=1e-12)


def test_time_map_values():
    assert min_time_to_origin((0.0, 0.0)) == 0.0
    assert min_time_to_origin((1.0, 0.0)) == pytest.approx(2.0, rel=1e-15)


def test_time_map_holder_bound_is_stable():
    # largest sampled ratio T(y) / |y|^(1/2) over the unit disc: stable in
    # the sample count and below the closed-form bound 1 + 2 sqrt(3/2)
    def holder_constant(n_samples):
        rng = np.random.default_rng(0)
        angles = rng.uniform(0.0, 2.0 * math.pi, n_samples)
        radii = np.sqrt(rng.uniform(0.0, 1.0, n_samples))
        return max(min_time_to_origin((r * math.cos(a), r * math.sin(a))) / math.sqrt(r)
                   for a, r in zip(angles, radii) if r > 0.0)

    c1 = holder_constant(10_000)
    c2 = holder_constant(40_000)
    assert 0.0 < min(c1, c2) and max(c1, c2) <= 1.0 + 2.0 * math.sqrt(1.5)
    assert abs(c2 - c1) / c1 < 0.1


# ---------------------------------------------------------------------------
# truncation of the chattering control
# ---------------------------------------------------------------------------

def test_cut_state_bound_and_tail_time(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    k_max = max(math.hypot(arc.x0[1], 1.0) for arc in traj_star.arcs)
    for eta in (0.5, 0.1, 0.01):
        res = truncate(u_star, traj_star, eta, spec)
        assert math.hypot(*res.cut_state) <= k_max * eta + 1e-12
        upsilon = min_time_to_origin(res.cut_state)
        assert res.tail_time <= 2.0 * upsilon + 1e-15


def test_truncation_budget_exact(reference):
    spec, u_star, traj_star, _, j_star = reference
    for eta in (0.7, 0.21, 0.033, 0.004):
        res = truncate(u_star, traj_star, eta, spec)
        assert tv(res.control) <= res.prefix_tv + TAIL_TV_BUDGET


def test_truncation_terminal_residual(reference):
    spec, u_star, traj_star, _, j_star = reference
    res = truncate(u_star, traj_star, 0.2, spec)
    traj = simulate(spec, res.control)
    assert math.hypot(*traj.final_state) <= 1e-10


def test_cut_exactly_at_a_switch_time(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    t_switch = u_star.breakpoints[3]
    eta = t_star - t_switch
    res = truncate(u_star, traj_star, eta, spec)
    assert res.cost_gap >= -1e-12
    assert res.control.breakpoints[0] == 0.0
    assert all(b > a for a, b in
               zip(res.control.breakpoints, res.control.breakpoints[1:]))


def test_cut_on_the_closing_tails_switching_curve(synth):
    # from inside a coarse truncation radius the reference is all closing
    # tail, so a cut in its second arc lies on the tail's switching curve
    # and the new tail's first arc does not advance the clock
    coarse = FullerSynthesis(zeta=synth.zeta, rho=synth.rho, truncation_tol=0.5)
    spec = ProblemSpec(x0=(0.2, 0.0))
    u_star, t_star = synthesize_chattering(spec.x0, coarse)
    traj_star = simulate(spec, u_star)
    for eta in _default_eta_grid(u_star, traj_star):
        res = truncate(u_star, traj_star, eta, spec)
        assert res.control.values[-1] == u_star.values[-1]
        # the new tail's switch time is a square root of the cut state's
        # rounding, so it lands near the reference's, not on it
        assert abs(res.t_final - t_star) <= 1e-12
        assert abs(res.cost_gap) <= 1e-15
        assert res.sup_dev <= 1e-12


def test_default_eta_grid_rejects_subnormal_windows():
    spec = ProblemSpec(x0=(0.0, 5e-324))
    u_star, _ = synthesize_chattering(spec.x0, default_synthesis())
    with pytest.raises(DegenerateFit):
        _default_eta_grid(u_star, simulate(spec, u_star))


def test_cut_too_large(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    with pytest.raises(CutTooLarge):
        truncate(u_star, traj_star, t_star + 0.1, spec)
    with pytest.raises(CutTooLarge):
        truncate(u_star, traj_star, 0.5, spec, radius=0.01)


def test_rate_sweep_columns_and_exponent(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    etas = [1.4 * 10.0 ** (-1.5 * k / 4.0) for k in range(7)]
    sweep = truncation_rate_sweep(u_star, traj_star, etas, spec)
    assert all(sweep.monotone.values()), sweep.monotone
    assert all(r.cost_gap >= -1e-12 for r in sweep.records)
    assert sweep.exponent >= 0.4
    for res in sweep.results:
        assert tv(res.control) <= res.prefix_tv + TAIL_TV_BUDGET


def test_rate_sweep_cost_bound_from_measured_rates(reference):
    # the gap is bounded by (sup rate) * tail time - (inf rate) * window,
    # with the rates measured along the competing tails
    spec, u_star, traj_star, t_star, j_star = reference
    for eta in (0.6, 0.2, 0.05):
        res = truncate(u_star, traj_star, eta, spec)
        traj = simulate(spec, res.control)
        t_cut = t_star - eta
        ts = np.linspace(t_cut, traj.duration, 400)
        c_bar = max(traj.state_at(min(t, traj.duration))[0] ** 2 for t in ts)
        ts_star = np.linspace(t_cut, t_star, 400)
        c_low = min(traj_star.state_at(t)[0] ** 2 for t in ts_star)
        assert res.cost_gap <= c_bar * res.tail_time - c_low * eta + 1e-12


def test_rate_sweep_floor_detection(reference):
    spec, u_star, traj_star, _, j_star = reference
    tiny = [4e-4 * 10.0 ** (-2.0 * k / 4.0) for k in range(5)]
    with pytest.raises(DegenerateFit):
        truncation_rate_sweep(u_star, traj_star, tiny, spec)


def test_rate_sweep_validates_grid(reference):
    spec, u_star, traj_star, _, j_star = reference
    with pytest.raises(ValueError):
        truncation_rate_sweep(u_star, traj_star, [0.1, 0.2, 0.3], spec)
    with pytest.raises(ValueError):
        truncation_rate_sweep(u_star, traj_star, [0.5, 0.4, 0.3, 0.2, 0.1], spec)


def sampled_deviation(traj_a, traj_b, t_from, samples):
    """Sup deviation sampled at `samples` + 1 points of each piece between
    the arc ends of both trajectories, each extended by its final state."""
    horizon = max(traj_a.duration, traj_b.duration)
    cuts = sorted({t_from, horizon} | {t for traj in (traj_a, traj_b) for arc in traj.arcs
                                       for t in (arc.t0, arc.t0 + arc.duration)
                                       if t_from <= t <= horizon})

    def states(traj, ts):
        if ts[0] >= traj.duration:
            return [np.full_like(ts, v) for v in traj.final_state]
        arc = next(a for a in traj.arcs if ts[len(ts) // 2] < a.t0 + a.duration)
        return di_arc(arc.x0[0], arc.x0[1], arc.u, ts - arc.t0)[:2]

    worst = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        ts = np.linspace(lo, hi, samples + 1)
        (a1, a2), (b1, b2) = states(traj_a, ts), states(traj_b, ts)
        worst = max(worst, np.max(np.abs(a1 - b1)), np.max(np.abs(a2 - b2)))
    return worst


def test_sup_deviation_is_exact(reference, decade_path):
    # dense samples never exceed the exact sup beyond rounding, and the 128
    # samples per piece the metric once took never exceed it either
    spec, u_star, traj_star, t_star, j_star = reference
    pairs = [(simulate(spec, p.candidate.control()), 0.0) for p in decade_path.records]
    pairs += [(simulate(spec, truncate(u_star, traj_star, eta, spec).control),
               t_star - eta) for eta in (0.7, 0.2, 0.05, 0.01)]
    for traj, t_from in pairs:
        exact = sup_state_deviation(traj, traj_star, t_from=t_from)
        for samples in (128, 10_000):
            sampled = sampled_deviation(traj, traj_star, t_from, samples)
            assert sampled <= exact * (1.0 + 1e-12)
        assert exact <= sampled * (1.0 + 1e-6)


def test_l1_distance_between_shifted_controls():
    u = PiecewiseConstantControl((0.0, 1.0, 2.0), (1.0, -1.0))
    v = PiecewiseConstantControl((0.0, 1.5, 2.0), (1.0, -1.0))
    # differ by 2 on [1, 1.5)
    assert l1_control_distance(u, v) == pytest.approx(1.0, abs=1e-14)
    w = PiecewiseConstantControl((0.0, 3.0), (1.0,))
    # differ by 2 on [1, 2) and by 1 on [2, 3)
    assert l1_control_distance(u, w) == pytest.approx(3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# the one-pass metrics against per-piece scans from the first arc
# ---------------------------------------------------------------------------

def scanned_sup_deviation(traj_a, traj_b, t_from=0.0):
    """sup_state_deviation with every piece's state from Trajectory.state_at
    and its control from a scan for the first arc ending after the piece's
    midpoint, both from arc 0."""
    def motion(traj, lo, hi):
        if lo >= traj.duration:
            x1, x2 = traj.final_state
            return (x1, 0.0, 0.0, x2, 0.0)
        x1, x2 = traj.state_at(lo)
        mid = 0.5 * (lo + hi)
        u = next(arc.u for arc in traj.arcs if mid < arc.t0 + arc.duration)
        return (x1, x2, u, x2, u)

    horizon = max(traj_a.duration, traj_b.duration)
    cuts = {t_from, horizon}
    for traj in (traj_a, traj_b):
        for arc in traj.arcs:
            for t in (arc.t0, arc.t0 + arc.duration):
                if t_from <= t <= horizon:
                    cuts.add(t)
    cuts = sorted(cuts)
    return max((motion_gap(motion(traj_a, lo, hi), motion(traj_b, lo, hi), hi - lo)
                for lo, hi in zip(cuts, cuts[1:])), default=0.0)


def scanned_l1_distance(u, v):
    """l1_control_distance with each piece's values looked up from scratch."""

    def value_at(control, t):  # the first arc ending after t; 0 past the horizon
        for right, value in zip(control.breakpoints[1:], control.values):
            if t < right:
                return value
        return 0.0

    horizon = max(u.duration, v.duration)
    cuts = sorted(set(u.breakpoints) | set(v.breakpoints) | {horizon})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        total += abs(value_at(u, mid) - value_at(v, mid)) * (hi - lo)
    return total


def seeded_references(synth, seed, radii, count):
    """(spec, control, trajectory) of the references from `count` seeded
    states with radius uniform in `radii`."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        r, a = rng.uniform(*radii), rng.uniform(0.0, 2.0 * math.pi)
        spec = ProblemSpec(x0=(r * math.cos(a), r * math.sin(a)))
        u_star, _ = synthesize_chattering(spec.x0, synth)
        out.append((spec, u_star, simulate(spec, u_star)))
    return out


def assert_same_metrics(traj_a, traj_b, t_from=0.0):
    for a, b in ((traj_a, traj_b), (traj_b, traj_a)):
        assert sup_state_deviation(a, b, t_from) == scanned_sup_deviation(a, b, t_from)


def assert_same_l1(u, v):
    assert l1_control_distance(u, v) == scanned_l1_distance(u, v)
    assert l1_control_distance(v, u) == scanned_l1_distance(v, u)


def test_one_pass_metrics_equal_the_scans_on_solver_candidates(synth):
    for spec, u_star, traj_star in seeded_references(synth, 17, (0.5, 2.0), 4):
        path = regularization_path([1e-1, 1e-2, 1e-3, 1e-4], spec, synth=synth)
        for point in path.records:
            control = point.candidate.control()
            assert_same_metrics(simulate(spec, control), traj_star)
            assert_same_l1(control, u_star)


def test_one_pass_metrics_equal_the_scans_on_every_truncation_of_a_sweep(synth):
    # the cut windows of truncation-rate's automatic grid
    for spec, u_star, traj_star in seeded_references(synth, 23, (0.5, 2.0), 4):
        t_star = u_star.duration
        for eta in _default_eta_grid(u_star, traj_star):
            res = truncate(u_star, traj_star, eta, spec)
            traj, t_cut = simulate(spec, res.control), t_star - eta
            assert res.sup_dev == scanned_sup_deviation(traj, traj_star, t_cut)
            assert res.l1_dev == scanned_l1_distance(res.control, u_star)
            assert_same_metrics(traj, traj_star)
            assert_same_l1(res.control, u_star)


def test_one_pass_metrics_equal_the_scans_at_cuts_on_breakpoints(reference):
    spec, u_star, traj_star, t_star, _ = reference
    for t_cut in u_star.breakpoints[1:-1]:
        res = truncate(u_star, traj_star, t_star - t_cut, spec, radius=1e3)
        traj = simulate(spec, res.control)
        for t_from in (0.0, t_cut, t_star - res.eta):
            assert_same_metrics(traj, traj_star, t_from)
        assert res.l1_dev == scanned_l1_distance(res.control, u_star)


def test_one_pass_metrics_equal_the_scans_across_horizons(synth, reference):
    # candidates of one path end at different times, and a truncation ends
    # before or after its reference; t_from also falls inside arcs and
    # past the shorter horizon
    spec, u_star, traj_star, t_star, _ = reference
    path = regularization_path([1e-1, 1e-3, 1e-5], spec, synth=synth)
    controls = [p.candidate.control() for p in path.records]
    controls += [truncate(u_star, traj_star, eta, spec).control for eta in (0.5, 0.05)]
    controls.append(u_star)
    trajs = [simulate(spec, c) for c in controls]
    for c, ta in zip(controls, trajs):
        for d, tb in zip(controls, trajs):
            short = min(ta.duration, tb.duration)
            for t_from in (0.0, 0.37 * short, short, 0.5 * (ta.duration + tb.duration)):
                assert sup_state_deviation(ta, tb, t_from) == scanned_sup_deviation(
                    ta, tb, t_from)
            assert l1_control_distance(c, d) == scanned_l1_distance(c, d)


def test_sup_deviation_of_horizons_one_ulp_apart():
    # the last piece is one ulp long, and its midpoint rounds onto the
    # longer horizon; the piece lies inside the longer trajectory's last
    # arc, whose control it takes
    spec = ProblemSpec(x0=(0.3, 0.1))
    for k in range(40):
        horizon = 0.6 + 0.05 * k
        a = simulate(spec, PiecewiseConstantControl((0.0, 0.5, horizon), (-1.0, 1.0)))
        b = simulate(spec, PiecewiseConstantControl(
            (0.0, 0.5, math.nextafter(horizon, 0.0)), (-1.0, 1.0)))
        dev = sup_state_deviation(a, b)
        assert dev == sup_state_deviation(b, a)
        assert 0.0 <= dev <= 1e-15


# ---------------------------------------------------------------------------
# budget walking and the composite bound
# ---------------------------------------------------------------------------

def test_lag_for_zero_budget(reference):
    _, u_star, _, t_star, _ = reference
    assert truncation_lag_for_budget(u_star, 0.0) == t_star - u_star.breakpoints[1]


def test_lag_for_even_budgets(reference):
    _, u_star, _, t_star, _ = reference
    for n in (1, 2, 5):
        lag = truncation_lag_for_budget(u_star, 2.0 * n)
        assert lag == t_star - u_star.breakpoints[n + 1]


def test_lag_saturates_at_tail(reference):
    _, u_star, _, t_star, _ = reference
    lag = truncation_lag_for_budget(u_star, 1e12)
    assert lag == t_star - u_star.breakpoints[-2]


def test_composite_bound_across_path(reference, decade_path):
    _, u_star, _, _, j_star = reference
    check = composite_rate_bound(decade_path.records, u_star, j_star)
    assert check.holds
    assert check.m_hat > 0.0
    for eps, gap, lag, bound in check.rows:
        assert gap <= bound * (1.0 + 1e-9) + 1e-15
