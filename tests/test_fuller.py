import math

import numpy as np
import pytest

from chatterlab.controls import di_arc, tv
from chatterlab.errors import NoRootBracket, TolTooSmall
from chatterlab.fuller import (
    FullerSynthesis,
    ZETA_BRACKET,
    _adjoint_switch_residual,
    compute_fuller_constant,
    contraction_ratio,
    curve_residual,
    default_synthesis,
    first_crossing,
    optimal_cost,
    synthesize_chattering,
)
import chatterlab.fuller as fuller_mod


def test_residual_brackets_the_root():
    lo, hi = ZETA_BRACKET
    r_lo = _adjoint_switch_residual(lo)
    r_hi = _adjoint_switch_residual(hi)
    assert r_lo * r_hi < 0.0


def test_no_root_bracket_raised_when_sign_constant(monkeypatch):
    monkeypatch.setattr(fuller_mod, "_adjoint_switch_residual",
                        lambda zeta, scale=1.0: 1.0 + zeta)
    with pytest.raises(NoRootBracket):
        compute_fuller_constant()


def test_constant_inside_bracket(synth):
    assert ZETA_BRACKET[0] < synth.zeta < ZETA_BRACKET[1]
    assert 0.0 < synth.rho < 1.0
    assert synth.rho == pytest.approx(contraction_ratio(synth.zeta), abs=1e-12)


def test_constant_reproduces_from_curve_scales(synth):
    for scale in (0.1, 0.5, 1.0, 3.0, 10.0):
        zeta, rho = compute_fuller_constant(start_scale=scale)
        assert abs(zeta - synth.zeta) <= 1e-8
        assert abs(rho - synth.rho) <= 1e-8


def test_tol_precondition():
    with pytest.raises(ValueError):
        compute_fuller_constant(tol=1e-13)


def test_curve_is_odd_symmetric(synth):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, 2)
        assert curve_residual(-x, synth.zeta) == pytest.approx(
            -curve_residual(x, synth.zeta), abs=1e-14)


def test_poincare_fixed_point(synth):
    # one arc maps a switch state to its contraction-scaled point reflection
    for s in (0.3, 1.0, 2.5):
        start = (-synth.zeta * s * s, s)
        d = first_crossing(start, -1.0, synth.zeta)
        end = di_arc(start[0], start[1], -1.0, d)
        expected = (synth.rho ** 2 * synth.zeta * s * s, -synth.rho * s)
        residual = math.hypot(end[0] - expected[0], end[1] - expected[1])
        assert residual <= 1e-10 * max(1.0, s * s)
        assert abs(curve_residual(end, synth.zeta)) <= 1e-12 * max(1.0, s * s)


def test_switch_interval_ratios_match_contraction(reference, synth):
    _, u_star, _, _, _ = reference
    bp = np.array(u_star.breakpoints)
    intervals = np.diff(bp[1:-2])  # curve-to-curve arcs only
    ratios = intervals[1:] / intervals[:-1]
    assert len(ratios) >= 10
    # fresh ratios reproduce the contraction tightly; deep ones only lose
    # accuracy to float differencing of geometrically small intervals
    assert np.max(np.abs(ratios[:10] - synth.rho) / synth.rho) <= 1e-8


def test_first_arc_sign_on_curve(synth):
    upper = (-synth.zeta * 4.0, 2.0)
    control, _ = synthesize_chattering(upper, synth)
    assert control.values[0] == -1.0
    lower = (synth.zeta * 4.0, -2.0)
    control, _ = synthesize_chattering(lower, synth)
    assert control.values[0] == 1.0


def test_switch_times_scale_self_similarly(reference, synth):
    _, u_star, _, _, _ = reference
    lam = 0.5
    scaled, _ = synthesize_chattering((lam * lam, 0.0), synth)
    a = np.array(u_star.breakpoints)
    b = np.array(scaled.breakpoints)
    # compare the common chattering prefix, excluding both closing tails
    m = min(len(a), len(b)) - 3
    assert m >= 10
    assert np.max(np.abs(b[1:m] - lam * a[1:m]) / (lam * a[1:m])) <= 1e-9


def test_synthesis_reaches_origin(reference):
    _, _, traj_star, _, _ = reference
    assert math.hypot(*traj_star.final_state) <= 1e-10


def test_chattering_certificate(reference, synth):
    _, u_star, _, t_star, _ = reference
    switch_times = u_star.breakpoints[1:-1]
    # total variation of the restriction grows by two per switch crossed
    for n in (1, 4, 8, len(switch_times) - 2):
        t_n = 0.5 * (switch_times[n - 1] + switch_times[n])
        assert tv(u_star.restrict(t_n)) == 2.0 * n
    t1, t2 = u_star.breakpoints[1], u_star.breakpoints[2]
    predicted = t1 + (t2 - t1) / (1.0 - synth.rho)
    assert abs(t_star - predicted) / t_star <= 1e-8


def test_optimal_cost_zero_at_origin(synth):
    assert optimal_cost((0.0, 0.0), synth) == 0.0


def test_optimal_cost_scaling_law(synth):
    lam = 0.5
    j1 = optimal_cost((1.0, 0.0), synth)
    j2 = optimal_cost((lam * lam, 0.0), synth)
    assert abs(j2 - lam ** 5 * j1) / j1 <= 1e-8
    # generic scaling point with a velocity component
    j3 = optimal_cost((0.7, -0.4), synth)
    j4 = optimal_cost((lam * lam * 0.7, -lam * 0.4), synth)
    assert abs(j4 - lam ** 5 * j3) / j3 <= 1e-8


def test_optimal_cost_independent_of_truncation_radius():
    costs = [optimal_cost((1.0, 0.0), default_synthesis(truncation_tol=tol))
             for tol in (1e-6, 1e-8, 1e-10)]
    spread = (max(costs) - min(costs)) / costs[0]
    assert spread <= 1e-6


def test_truncation_radius_floor(synth):
    tiny = FullerSynthesis(zeta=synth.zeta, rho=synth.rho, truncation_tol=1e-14)
    with pytest.raises(TolTooSmall):
        synthesize_chattering((1.0, 0.0), tiny)


def test_origin_start_rejected(synth):
    with pytest.raises(ValueError):
        synthesize_chattering((0.0, 0.0), synth)


def test_synthesized_cost_is_a_lower_bound(reference, synth):
    from chatterlab.solver import optimize_durations

    spec, _, _, _, j_star = reference
    for n in (1, 2, 4, 6):
        cand = optimize_durations(n, -1.0, 0.0, spec, synth=synth)
        assert cand.lagrangian >= j_star - 1e-8
