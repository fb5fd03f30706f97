import math
import random

import numpy as np
import pytest

from chatterlab.controls import ProblemSpec, di_arc, lagrangian_cost, simulate, tv
from chatterlab.errors import NoRootBracket, TolTooSmall
from chatterlab.fuller import (
    FullerSynthesis,
    ZETA_BRACKET,
    _adjoint_switch_residual,
    chattering_reference,
    compute_fuller_constant,
    contraction_ratio,
    curve_residual,
    default_synthesis,
    feedback_sign,
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


def test_feedback_arcs_alternate_at_every_scale(synth):
    # the feedback decides the first arc from any state, on the curve or
    # off it; every later arc starts on the curve, where the feedback
    # reverses the sign, and the switch velocities contract at rho
    rng = random.Random(19)
    for k in range(-15, 7):
        for trial in range(8):
            r, a = 10.0 ** (k + rng.random()), rng.uniform(0.0, 2.0 * math.pi)
            x = (r * math.cos(a), r * math.sin(a))
            if trial % 4 == 0:
                x = (-synth.zeta * x[1] * abs(x[1]), x[1])
            u = feedback_sign(x, synth.zeta)
            speeds = []
            for _ in range(6):
                d = first_crossing(x, u, synth.zeta)
                assert d > 0.0, (k, x)
                x = di_arc(x[0], x[1], u, d)[:2]
                u = -u
                assert feedback_sign(x, synth.zeta) == u, (k, x)
                speeds.append(abs(x[1]))
            ratios = [b / a for a, b in zip(speeds, speeds[1:])]
            assert max(abs(q - synth.rho) for q in ratios) <= 1e-9 * synth.rho, (k, x)


def test_synthesis_decides_the_feedback_once(synth, monkeypatch):
    calls = []
    real = fuller_mod.feedback_sign
    monkeypatch.setattr(fuller_mod, "feedback_sign",
                        lambda x, zeta: calls.append(x) or real(x, zeta))
    control, _ = synthesize_chattering((1.0, 0.0), synth)
    assert calls == [(1.0, 0.0)]
    assert control.n_arcs > 10


def test_far_states_below_unit_scale_reach_the_origin(synth):
    # states within 1e-14 of the curve but far from it at their own scale
    for x in ((-5e-15, 1.5e-10), (-1e-14, 1e-7), (5e-15, -1.5e-10)):
        control, _ = synthesize_chattering(x, synth)
        final = simulate(ProblemSpec(x0=x), control).final_state
        assert math.hypot(*final) <= synth.truncation_tol
        v = optimal_cost(x, synth)
        assert 0.0 < v == pytest.approx(lagrangian_cost(chattering_reference(x, synth)[2]),
                                        rel=1e-9)


def test_states_just_inside_the_curve_synthesize(synth):
    # below the curve with x2 > 0 or above it with x2 < 0, at relative
    # residuals from inside the tie band to far outside it: the first
    # crossing is the least positive root however soon it comes, and an
    # arc that starts on the curve drops its own start point
    for scale in (1e-6, 1.0, 1e3):
        for sign in (1.0, -1.0):
            x2 = sign * scale
            for k in range(101):
                r = 10.0 ** (-16.0 + 6.0 * k / 100)
                x = (-synth.zeta * x2 * abs(x2) - sign * r * (1.0 + synth.zeta) * x2 * x2, x2)
                synthesize_chattering(x, synth)
                assert 0.0 < optimal_cost(x, synth) < math.inf, x


def test_overflowing_first_arc_is_a_radius_failure(synth):
    for x in ((1e154, 1e154), (-2.841949468283626e+97, 1.3093127639590509e+154)):
        with pytest.raises(TolTooSmall):
            synthesize_chattering(x, synth)


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
    assert abs(j2 - lam ** 5 * j1) / j1 <= 1e-14
    # generic scaling point with a velocity component
    j3 = optimal_cost((0.7, -0.4), synth)
    j4 = optimal_cost((lam * lam * 0.7, -lam * 0.4), synth)
    assert abs(j4 - lam ** 5 * j3) / j3 <= 1e-14


def test_optimal_cost_independent_of_truncation_radius():
    costs = {optimal_cost((1.0, 0.0), default_synthesis(truncation_tol=tol))
             for tol in (1e-6, 1e-8, 1e-10, 0.5, 3.0)}
    assert costs == {0.7640175477256331}


def _value_states(count, seed=18):
    """Seeded states at radii 0.05-40: generic ones, every fifth on the
    switching curve and every fifth on the axis x2 = 0."""
    rng = random.Random(seed)
    zeta = default_synthesis().zeta
    for k in range(count):
        radius = 0.05 * 800.0 ** rng.random()
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = (radius * math.cos(angle), radius * math.sin(angle))
        if k % 5 == 1:
            x = (-zeta * x[1] * abs(x[1]), x[1])
        elif k % 5 == 2:
            x = (x[0], 0.0)
        yield x


def test_optimal_cost_matches_the_summed_reference(synth):
    # the oracle sums the ~35 arcs of the reference synthesized to the
    # default radius; the closed form never synthesizes
    for x in _value_states(240):
        summed = lagrangian_cost(chattering_reference(x, synth)[2])
        assert abs(optimal_cost(x, synth) - summed) <= 1e-14 * summed, x


def test_optimal_cost_exact_laws(synth):
    # V(9 x1, 3 x2) = 3^5 V(x1, x2) and V(-x) = V(x)
    for x in _value_states(240, seed=19):
        v = optimal_cost(x, synth)
        scaled = optimal_cost((9.0 * x[0], 3.0 * x[1]), synth)
        assert abs(scaled - 243.0 * v) <= 2e-14 * 243.0 * v, x
        assert abs(optimal_cost((-x[0], -x[1]), synth) - v) <= 2e-14 * v, x


def test_optimal_cost_at_the_edges(synth):
    j1 = optimal_cost((1.0, 0.0), synth)
    # far states the synthesis cannot reach follow the scaling law
    assert optimal_cost((1e12, 0.0), synth) == pytest.approx(1e30 * j1, rel=1e-14)
    with pytest.raises(TolTooSmall):
        synthesize_chattering((1e12, 0.0), synth)
    # states far below unit scale keep the law too
    for x in ((1e-15, 0.0), (-1e-20, 3e-11), (5e-324, 0.0)):
        lam = math.sqrt(abs(x[0])) + abs(x[1])
        want = lam ** 5 * optimal_cost((x[0] / lam ** 2, x[1] / lam), synth)
        assert optimal_cost(x, synth) == pytest.approx(want, rel=1e-13, abs=1e-320)
    # an optimal cost beyond the largest float is a radius failure
    for x in ((1e200, 0.0), (0.0, 1e100), (-1e308, 1e154), (math.inf, 0.0)):
        with pytest.raises(TolTooSmall):
            optimal_cost(x, synth)


def test_value_constant_is_derived_not_set(synth):
    with pytest.raises(AttributeError):
        synth.value_constant = 1.0
    s = 1.7
    start = (-synth.zeta * s * s, s)
    summed = lagrangian_cost(chattering_reference(start, synth)[2])
    assert synth.value_constant * s ** 5 == pytest.approx(summed, rel=1e-14)


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
