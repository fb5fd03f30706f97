"""Each benchmark check accepts a right value and rejects a wrong one.

Run with `python3 -m pytest bench/test_checks.py`; needs only numpy.
"""

import math

import pytest

import checks
from checks import CheckFailed


def _path(lagrangians, tvs, eps=(1e-1, 1e-2, 1e-3)):
    """Path points selected as argmin over the given candidate table."""
    table = list(zip(lagrangians, tvs))
    rows = []
    for e in eps:
        l, tv = min(table, key=lambda c: c[0] + e * c[1])
        rows.append((e, l, tv, l + e * tv))
    return rows


def test_exchange_inequalities():
    good = _path([1.0, 0.9, 0.85], [2.0, 4.0, 6.0])
    assert checks.exchange_inequalities(good) <= 0.0
    e, l, tv, v = good[0]
    bad = [(e, l, tv, v + 1e-9)] + good[1:]  # a value above another candidate
    with pytest.raises(CheckFailed):
        checks.exchange_inequalities(bad)
    # a tie inside the documented 1e-12 band is accepted
    tie = [(e, l, tv, v + 5e-13)] + good[1:]
    checks.exchange_inequalities(tie)


def test_path_monotone():
    good = _path([1.0, 0.9, 0.85], [2.0, 4.0, 6.0])
    checks.path_monotone(good)
    (e0, l0, tv0, v0), (e1, l1, tv1, v1), last = good
    with pytest.raises(CheckFailed):  # TV rising with epsilon
        checks.path_monotone([(e0, l0, tv0, v0), (e1, l1, tv0 - 2.0, v1), last])
    with pytest.raises(CheckFailed):  # running cost falling with epsilon
        checks.path_monotone([(e0, l1 - 1e-6, tv0, v0), (e1, l1, tv1, v1), last])


def test_positive_and_floor():
    assert checks.all_positive([1e-9, 2.0], "gap") == 1e-9
    with pytest.raises(CheckFailed):
        checks.all_positive([1.0, 0.0], "gap")
    checks.all_at_least([-1e-13, 0.5], -1e-12, "gap")
    with pytest.raises(CheckFailed):
        checks.all_at_least([-1e-11], -1e-12, "gap")


def test_exact_cost_matches_hand_integral():
    # from (1, 0) with u = -1 for one unit: x1 = 1 - s^2/2, integral of
    # x1^2 over [0, 1] is 1 - 1/3 + 1/20
    cost, end = checks.exact_cost((1.0, 0.0), -1.0, [1.0])
    assert cost == pytest.approx(1.0 - 1.0 / 3.0 + 1.0 / 20.0, rel=1e-15)
    assert end == pytest.approx((0.5, -1.0))


def test_two_arc_steering_and_candidate_cost():
    x = (1.0, 0.0)
    d = checks.two_arc_steering(x, -1.0)
    assert d == pytest.approx((1.0, 1.0))  # down to the curve, then brake
    assert checks.two_arc_steering(x, 1.0) is None  # pushing away cannot return
    cost, end = checks.exact_cost(x, -1.0, d)
    assert math.hypot(*end) < 1e-15
    checks.candidate_cost(x, -1.0, d, cost)
    with pytest.raises(CheckFailed):  # wrong reported cost
        checks.candidate_cost(x, -1.0, d, cost * (1.0 + 1e-8))
    with pytest.raises(CheckFailed):  # durations that miss the origin
        checks.candidate_cost(x, -1.0, (1.0, 1.1), cost)


def test_no_worse_than():
    checks.no_worse_than(1.0 + 5e-7, 1.0, 1e-6, "solver")
    checks.no_worse_than(0.9, 1.0, 1e-6, "solver")  # better is fine
    with pytest.raises(CheckFailed):
        checks.no_worse_than(1.0 + 2e-6, 1.0, 1e-6, "solver")


def test_accumulation_time_closed_forms():
    # CLI defaults: tank levels (0.5, 0.5), drains 0.5, inflow 0.75; ball
    # from height 1 with g = 1 and e = 1/2 (acceptance criterion 7 values)
    assert checks.water_tank_tau_inf((0.5, 0.5), (0.5, 0.5), 0.75) == pytest.approx(4.0)
    assert checks.bouncing_ball_tau_inf(1.0, 1.0, 0.5) == pytest.approx(3.0 * math.sqrt(2.0))
    checks.close_rel(4.0 + 1e-12, 4.0, 1e-9, "tau")
    with pytest.raises(CheckFailed):
        checks.close_rel(4.0 * (1.0 + 1e-8), 4.0, 1e-9, "tau")


def test_fuller_constant():
    checks.fuller_constant(0.44462356018593696)
    with pytest.raises(CheckFailed):
        checks.fuller_constant(0.4446235612)
    assert checks.contraction_ratio(checks.LITERATURE_ZETA) == pytest.approx(0.24212137, rel=1e-7)


def test_interval_ratios():
    rho = 0.25
    durations = [0.3 * rho ** k for k in range(8)] + [1e-3, 1e-3]  # cascade, tail
    times = [1.0]
    for d in durations:
        times.append(times[-1] + d)
    assert checks.interval_ratios(times, rho) < 1e-9
    with pytest.raises(CheckFailed):
        checks.interval_ratios(times, rho * (1.0 + 1e-6))
    with pytest.raises(CheckFailed):  # too few cascade intervals to judge
        checks.interval_ratios(times[:4], rho)


def test_tail_tv_budget():
    switches = [0.5, 0.8, 0.9, 0.95]
    t_star = 1.0
    # cut at 0.93 keeps three switches (TV 6), so TV may reach 10
    assert checks.tail_tv_budget(switches, t_star, [0.07], [10.0]) == 0.0
    with pytest.raises(CheckFailed):
        checks.tail_tv_budget(switches, t_star, [0.07], [12.0])


def test_slopes_counts_and_scaling():
    checks.slope_near(1.05, 1.0, 0.1, "slope")
    with pytest.raises(CheckFailed):
        checks.slope_near(1.2, 1.0, 0.1, "slope")
    checks.same_counts([1, 2, 3], [1, 2, 3], "counts")
    with pytest.raises(CheckFailed):
        checks.same_counts([1, 2, 3], [1, 2, 2], "counts")
    base = [1.0, 2.0]
    checks.values_scale(base, [243.0, 486.0], 243.0, 1e-12, "scaling")
    with pytest.raises(CheckFailed):
        checks.values_scale(base, [243.0, 486.0 * (1 + 1e-10)], 243.0, 1e-12, "scaling")


def test_is_true():
    checks.is_true(True, "flag")
    with pytest.raises(CheckFailed):
        checks.is_true(False, "flag")
