import math

import numpy as np
import pytest

from chatterlab.controls import ProblemSpec, simulate, tv
from chatterlab.errors import CutTooLarge, DegenerateFit
from chatterlab.truncation import (
    TAIL_TV_BUDGET,
    composite_rate_bound,
    l1_control_distance,
    min_time_steer,
    min_time_to_origin,
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
        res = truncate(u_star, traj_star, eta, spec, j_star=j_star)
        assert math.hypot(*res.cut_state) <= k_max * eta + 1e-12
        upsilon = min_time_to_origin(res.cut_state)
        assert res.tail_time <= 2.0 * upsilon + 1e-15


def test_truncation_budget_exact(reference):
    spec, u_star, traj_star, _, j_star = reference
    for eta in (0.7, 0.21, 0.033, 0.004):
        res = truncate(u_star, traj_star, eta, spec, j_star=j_star)
        assert tv(res.control) <= res.prefix_tv + TAIL_TV_BUDGET


def test_truncation_terminal_residual(reference):
    spec, u_star, traj_star, _, j_star = reference
    res = truncate(u_star, traj_star, 0.2, spec, j_star=j_star)
    traj = simulate(spec, res.control)
    assert math.hypot(*traj.final_state) <= 1e-10


def test_cut_exactly_at_a_switch_time(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    t_switch = u_star.breakpoints[3]
    eta = t_star - t_switch
    res = truncate(u_star, traj_star, eta, spec, j_star=j_star)
    assert res.cost_gap >= -1e-12
    assert res.control.breakpoints[0] == 0.0
    assert all(b > a for a, b in
               zip(res.control.breakpoints, res.control.breakpoints[1:]))


def test_cut_too_large(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    with pytest.raises(CutTooLarge):
        truncate(u_star, traj_star, t_star + 0.1, spec, j_star=j_star)
    with pytest.raises(CutTooLarge):
        truncate(u_star, traj_star, 0.5, spec, j_star=j_star, radius=0.01)


def test_rate_sweep_columns_and_exponent(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    etas = [1.4 * 10.0 ** (-1.5 * k / 4.0) for k in range(7)]
    sweep = truncation_rate_sweep(u_star, traj_star, etas, spec, j_star=j_star)
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
        res = truncate(u_star, traj_star, eta, spec, j_star=j_star)
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
        truncation_rate_sweep(u_star, traj_star, tiny, spec, j_star=j_star)


def test_rate_sweep_validates_grid(reference):
    spec, u_star, traj_star, _, j_star = reference
    with pytest.raises(ValueError):
        truncation_rate_sweep(u_star, traj_star, [0.1, 0.2, 0.3], spec,
                              j_star=j_star)
    with pytest.raises(ValueError):
        truncation_rate_sweep(u_star, traj_star, [0.5, 0.4, 0.3, 0.2, 0.1],
                              spec, j_star=j_star)


def test_l1_distance_between_shifted_controls():
    from chatterlab.controls import PiecewiseConstantControl

    u = PiecewiseConstantControl((0.0, 1.0, 2.0), (1.0, -1.0))
    v = PiecewiseConstantControl((0.0, 1.5, 2.0), (1.0, -1.0))
    # differ by 2 on [1, 1.5)
    assert l1_control_distance(u, v) == pytest.approx(1.0, abs=1e-14)
    w = PiecewiseConstantControl((0.0, 3.0), (1.0,))
    # differ by 2 on [1, 2) and by 1 on [2, 3)
    assert l1_control_distance(u, w) == pytest.approx(3.0, abs=1e-14)


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
