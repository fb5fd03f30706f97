import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from chatterlab.controls import (
    Arc,
    PiecewiseConstantControl,
    ProblemSpec,
    constant_control,
    di_arc,
    lagrangian_cost,
    regularized_cost,
    simulate,
    tv,
)
from chatterlab.errors import EquiboundViolation


def alternating(n_switches, first=1.0, dur=0.25):
    bp = tuple(dur * k for k in range(n_switches + 2))
    vals = tuple(first * (-1.0) ** k for k in range(n_switches + 1))
    return PiecewiseConstantControl(bp, vals)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_constant_control_is_zero():
    assert tv(constant_control(1.0, 1.0)) == 0.0


def test_tv_alternating_counts_two_per_switch():
    for n in (1, 3, 7):
        assert tv(alternating(n)) == 2.0 * n


def test_tv_three_arc_example():
    u = PiecewiseConstantControl((0.0, 1.0, 2.0, 3.0), (1.0, -1.0, 1.0))
    assert tv(u) == 4.0


def test_tv_additive_under_concatenation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n1, n2 = rng.integers(1, 5, 2)
        u = PiecewiseConstantControl(
            tuple(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n1))])),
            tuple(rng.uniform(-1.0, 1.0, n1)))
        v = PiecewiseConstantControl(
            tuple(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n2))])),
            tuple(rng.uniform(-1.0, 1.0, n2)))
        junction = abs(v.values[0] - u.values[-1])
        assert tv(u.concat(v)) == pytest.approx(tv(u) + tv(v) + junction, abs=1e-14)


# ---------------------------------------------------------------------------
# control validation
# ---------------------------------------------------------------------------

def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PiecewiseConstantControl((0.0, 1.0, 1.0), (1.0, -1.0))


def test_value_count_must_match():
    with pytest.raises(ValueError):
        PiecewiseConstantControl((0.0, 1.0, 2.0), (1.0,))


def test_breakpoints_start_at_zero():
    with pytest.raises(ValueError):
        PiecewiseConstantControl((0.5, 1.0), (1.0,))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_unit_push():
    spec = ProblemSpec(x0=(0.0, 0.0))
    traj = simulate(spec, constant_control(1.0, 1.0))
    assert traj.final_state == pytest.approx((0.5, 1.0), abs=1e-15)


def test_simulate_equilibrium_stays_at_origin():
    spec = ProblemSpec(x0=(0.0, 0.0))
    traj = simulate(spec, constant_control(0.0, 2.0))
    for t in np.linspace(0.0, 2.0, 7):
        assert traj.state_at(t) == (0.0, 0.0)


def test_simulate_brake_arc():
    spec = ProblemSpec(x0=(1.0, 0.0))
    traj = simulate(spec, constant_control(-1.0, 1.0))
    assert traj.final_state == pytest.approx((0.5, -1.0), abs=1e-15)


def test_simulate_rejects_values_outside_admissible_set():
    spec = ProblemSpec(x0=(0.0, 0.0))
    with pytest.raises(ValueError):
        simulate(spec, constant_control(1.5, 1.0))


def test_equibound_violation():
    spec = ProblemSpec(x0=(1.0, 0.0), equibound=1.5)
    with pytest.raises(EquiboundViolation):
        simulate(spec, constant_control(1.0, 1.0))


def test_flow_consistency_split_equals_whole():
    rng = np.random.default_rng(3)
    spec_template = ProblemSpec(x0=(0.3, -0.4))
    for _ in range(25):
        u = alternating(int(rng.integers(1, 4)), dur=float(rng.uniform(0.2, 0.8)))
        t_mid = float(rng.uniform(0.1, 0.9)) * u.duration
        head, tail = u.split(t_mid)
        whole = simulate(spec_template, u)
        first = simulate(spec_template, head)
        second = simulate(ProblemSpec(x0=first.final_state), tail)
        assert max(abs(a - b) for a, b in
                   zip(second.final_state, whole.final_state)) < 1e-10


def test_time_reversal_returns_start():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = tuple(rng.uniform(-2.0, 2.0, 2))
        u = float(rng.choice([-1.0, 1.0]))
        d = float(rng.uniform(0.05, 2.0))
        fwd = di_arc(x[0], x[1], u, d)
        # reversed field flow equals conjugation by velocity flip
        back = di_arc(fwd[0], -fwd[1], u, d)
        back = (back[0], -back[1])
        assert max(abs(a - b) for a, b in zip(back, x)) < 1e-12


def test_junction_continuity():
    spec = ProblemSpec(x0=(0.2, -0.7))
    u = alternating(4, dur=0.3)
    traj = simulate(spec, u)
    for prev, nxt in zip(traj.arcs, traj.arcs[1:]):
        gap = max(abs(a - b) for a, b in zip(prev.end_state, nxt.x0))
        assert gap <= 1e-12


# ---------------------------------------------------------------------------
# running cost
# ---------------------------------------------------------------------------

def test_cost_unit_push_is_one_twentieth():
    spec = ProblemSpec(x0=(0.0, 0.0))
    u = constant_control(1.0, 1.0)
    traj = simulate(spec, u)
    cost = lagrangian_cost(traj, u, spec)
    oracle, err = quad(lambda s: (0.5 * s * s) ** 2, 0.0, 1.0, epsabs=1e-14)
    assert err < 1e-12
    assert cost == pytest.approx(oracle, abs=1e-12)
    assert cost == pytest.approx(0.05, abs=1e-15)


def test_cost_zero_trajectory():
    spec = ProblemSpec(x0=(0.0, 0.0))
    u = constant_control(0.0, 3.0)
    assert lagrangian_cost(simulate(spec, u), u, spec) == 0.0


def test_cost_constant_integrand():
    spec = ProblemSpec(x0=(1.0, 0.0))
    u = constant_control(0.0, 1.0)
    assert lagrangian_cost(simulate(spec, u), u, spec) == pytest.approx(1.0, abs=1e-15)


def test_closed_form_matches_gauss_legendre_on_random_arcs():
    # 3-point Gauss-Legendre integrates the quartic integrand exactly,
    # which makes it an independent oracle for the antiderivative formula
    nodes = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
    weights = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        x = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        u = float(rng.choice([-1.0, 1.0]))
        d = float(rng.uniform(0.01, 3.0))
        arc = Arc(0.0, d, x, u)
        gl = 0.5 * d * sum(w * arc.state_at(0.5 * d * (z + 1.0))[0] ** 2
                           for z, w in zip(nodes, weights))
        assert abs(arc.cost_x1sq() - gl) <= 1e-10 * max(gl, 1e-30)


def solve_ivp_arcs(seed, n_controls=40):
    """Seeded random controls, their exact trajectories, and per arc an
    adaptive Runge-Kutta solution of x1' = x2, x2' = u, c' = x1^2: an
    oracle for the closed forms that shares no code with them."""
    rng = np.random.default_rng(seed)
    for _ in range(n_controls):
        x0 = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 2))
        n = int(rng.integers(1, 5))
        bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
        u = PiecewiseConstantControl(tuple(bp), tuple(rng.uniform(-1.0, 1.0, n)))
        spec = ProblemSpec(x0=x0)
        sols = []
        y = [x0[0], x0[1], 0.0]
        for k, v in enumerate(u.values):
            sols.append(solve_ivp(lambda t, z, v=v: [z[1], v, z[0] ** 2],
                                  (bp[k], bp[k + 1]), y, method="DOP853",
                                  rtol=1e-12, atol=1e-14, dense_output=True))
            y = sols[-1].y[:, -1]
        yield spec, u, simulate(spec, u), sols


def test_generic_integrator_matches_closed_form():
    # end states and the exact arc sup, the latter against a dense sample
    for _, _, traj, sols in solve_ivp_arcs(99):
        for arc, sol in zip(traj.arcs, sols):
            assert arc.end_state == pytest.approx(tuple(sol.y[:2, -1]), abs=1e-10)
            t = np.linspace(arc.t0, arc.t0 + arc.duration, 2001)
            sampled = float(np.max(np.abs(sol.sol(t)[:2])))
            assert sampled - 1e-9 <= arc.sup_abs() <= sampled + 1e-6


def test_generic_lagrangian_quadrature_matches_closed_form():
    for spec, u, traj, sols in solve_ivp_arcs(100):
        assert lagrangian_cost(traj, u, spec) == pytest.approx(
            sols[-1].y[2, -1], rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# regularized cost
# ---------------------------------------------------------------------------

def test_regularized_cost_reduces_to_lagrangian_at_zero_epsilon():
    spec = ProblemSpec(x0=(0.0, 0.0))
    u = alternating(2, dur=0.3)
    traj = simulate(spec, u)
    assert regularized_cost(traj, u, spec, 0.0) == lagrangian_cost(traj, u, spec)


def test_regularized_cost_zero_trajectory_any_epsilon():
    spec = ProblemSpec(x0=(0.0, 0.0))
    u = constant_control(0.0, 1.0)
    traj = simulate(spec, u)
    for eps in (0.0, 0.1, 10.0):
        assert regularized_cost(traj, u, spec, eps) == 0.0


def test_regularized_cost_adds_tv_price():
    spec = ProblemSpec(x0=(0.0, 0.0))
    u = PiecewiseConstantControl((0.0, 0.4, 0.8, 1.2), (1.0, -1.0, 1.0))
    traj = simulate(spec, u)
    base = lagrangian_cost(traj, u, spec)
    assert regularized_cost(traj, u, spec, 0.1) == pytest.approx(
        base + 0.1 * 4.0, abs=1e-15)
    # the arithmetic the regularizer implements: J of 0.05 with two
    # switches at eps = 0.1 prices to 0.45
    assert 0.05 + 0.1 * 4.0 == pytest.approx(0.45, abs=1e-15)


def test_double_integrator_rejects_vector_values():
    with pytest.raises(TypeError):
        PiecewiseConstantControl((0.0, 1.0), ((0.5, 0.5),))
    with pytest.raises(ValueError):
        ProblemSpec(x0=(0.0, 0.0, 0.0))
