import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from chatterlab.controls import (
    Arc,
    PiecewiseConstantControl,
    ProblemSpec,
    di_arc,
    lagrangian_cost,
    simulate,
    tv,
)
from chatterlab.errors import EquiboundViolation
from chatterlab.fuller import chattering_reference, default_synthesis


def alternating(n_switches, first=1.0, dur=0.25):
    bp = tuple(dur * k for k in range(n_switches + 2))
    vals = tuple(first * (-1.0) ** k for k in range(n_switches + 1))
    return PiecewiseConstantControl(bp, vals)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_constant_control_is_zero():
    assert tv(PiecewiseConstantControl((0.0, 1.0), (1.0,))) == 0.0


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


def test_from_ends_drops_arcs_that_do_not_advance():
    u = PiecewiseConstantControl.from_ends((0.0, 0.5, 0.5, 1.0, 0.75),
                                           (1.0, -1.0, 1.0, -1.0, 1.0))
    assert u.breakpoints == (0.0, 0.5, 1.0)
    assert u.values == (-1.0, -1.0)
    assert PiecewiseConstantControl.from_ends((0.0, -1.0), (1.0, -1.0)) is None
    assert PiecewiseConstantControl.from_ends((), ()) is None


def test_concat_drops_a_tail_arc_that_does_not_advance_the_clock():
    # a closing tail whose first arc is below the rounding of the cut time
    u = PiecewiseConstantControl((0.0, 0.555), (1.0,))
    v = PiecewiseConstantControl((0.0, 5.55e-17, 0.3), (-1.0, 1.0))
    w = u.concat(v)
    assert w.breakpoints == (0.0, 0.555, 0.555 + 0.3)
    assert w.values == (1.0, 1.0)
    assert tv(w) == 0.0


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
    traj = simulate(spec, PiecewiseConstantControl((0.0, 1.0), (1.0,)))
    assert traj.final_state == pytest.approx((0.5, 1.0), abs=1e-15)


def test_simulate_equilibrium_stays_at_origin():
    spec = ProblemSpec(x0=(0.0, 0.0))
    traj = simulate(spec, PiecewiseConstantControl((0.0, 2.0), (0.0,)))
    for t in np.linspace(0.0, 2.0, 7):
        assert traj.state_at(t) == (0.0, 0.0)


def test_simulate_brake_arc():
    spec = ProblemSpec(x0=(1.0, 0.0))
    traj = simulate(spec, PiecewiseConstantControl((0.0, 1.0), (-1.0,)))
    assert traj.final_state == pytest.approx((0.5, -1.0), abs=1e-15)


def test_simulate_rejects_values_outside_admissible_set():
    spec = ProblemSpec(x0=(0.0, 0.0))
    with pytest.raises(ValueError):
        simulate(spec, PiecewiseConstantControl((0.0, 1.0), (1.5,)))


def test_equibound_violation():
    spec = ProblemSpec(x0=(1.0, 0.0), equibound=1.5)
    with pytest.raises(EquiboundViolation):
        simulate(spec, PiecewiseConstantControl((0.0, 1.0), (1.0,)))


def _rebased_tail(control, t):
    """The control after t, re-based to start at 0."""
    return PiecewiseConstantControl.from_ends(
        [right - t for right in control.breakpoints[1:]], control.values)


def test_flow_consistency_split_equals_whole():
    rng = np.random.default_rng(3)
    spec_template = ProblemSpec(x0=(0.3, -0.4))
    for _ in range(25):
        u = alternating(int(rng.integers(1, 4)), dur=float(rng.uniform(0.2, 0.8)))
        t_mid = float(rng.uniform(0.1, 0.9)) * u.duration
        head = u.restrict(t_mid)
        tail = _rebased_tail(u, t_mid)
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
    u = PiecewiseConstantControl((0.0, 1.0), (1.0,))
    traj = simulate(spec, u)
    cost = lagrangian_cost(traj)
    oracle, err = quad(lambda s: (0.5 * s * s) ** 2, 0.0, 1.0, epsabs=1e-14)
    assert err < 1e-12
    assert cost == pytest.approx(oracle, abs=1e-12)
    assert cost == pytest.approx(0.05, abs=1e-15)


def test_cost_zero_trajectory():
    spec = ProblemSpec(x0=(0.0, 0.0))
    u = PiecewiseConstantControl((0.0, 3.0), (0.0,))
    assert lagrangian_cost(simulate(spec, u)) == 0.0


def test_cost_constant_integrand():
    spec = ProblemSpec(x0=(1.0, 0.0))
    u = PiecewiseConstantControl((0.0, 1.0), (0.0,))
    assert lagrangian_cost(simulate(spec, u)) == pytest.approx(1.0, abs=1e-15)


def test_cost_after_a_cut_is_the_tail_cost():
    # inside an arc, at a breakpoint, at both ends, and cached across cuts:
    # the cost of [t, end] equals that of the trajectory's re-based tail
    spec = ProblemSpec(x0=(0.4, -0.2))
    control = alternating(4, first=-1.0, dur=0.3)
    traj = simulate(spec, control)
    total = lagrangian_cost(traj)
    for t in (0.1, 0.3, 0.75, 1.2, 1.49):
        tail = _rebased_tail(control, t)
        want = lagrangian_cost(simulate(ProblemSpec(x0=traj.state_at(t)), tail))
        assert traj.cost_after(t) == pytest.approx(want, rel=1e-14, abs=1e-18)
    assert traj.cost_after(0.0) == pytest.approx(total, rel=1e-14)
    assert traj.cost_after(control.duration) == 0.0


def scan_state_at(traj, t):
    """The state at t by a linear scan: the first arc ending at or after t,
    or the last arc's end past them all."""
    for arc in traj.arcs:
        if t <= arc.t0 + arc.duration:
            return arc.state_at(t - arc.t0)
    return traj.arcs[-1].state_at(traj.arcs[-1].duration)


def scan_cost_after(traj, t):
    """The running cost on [t, end] by a linear scan that skips every arc
    ending at or before t."""
    for k, arc in enumerate(traj.arcs):
        rest = arc.t0 + arc.duration - t
        if rest <= 0.0:
            continue
        if arc.t0 >= t:
            return sum(a.cost_x1sq() for a in reversed(traj.arcs[k:]))
        x1, x2 = arc.state_at(t - arc.t0)
        later = sum(a.cost_x1sq() for a in reversed(traj.arcs[k + 1:]))
        return later + di_arc(x1, x2, arc.u, rest)[2]
    return 0.0


def seeded_references():
    """Chattering references from seeded states of radius 0.5-2 and seeded
    random controls, some arcs far shorter than others."""
    rng = np.random.default_rng(23)
    synth = default_synthesis()
    for _ in range(8):
        r, a = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        yield chattering_reference((r * math.cos(a), r * math.sin(a)), synth)[2]
    for _ in range(8):
        ends = np.cumsum(10.0 ** rng.uniform(-9.0, 0.5, size=int(rng.integers(1, 12))))
        control = PiecewiseConstantControl.from_ends(
            ends.tolist(), rng.uniform(-1.0, 1.0, size=ends.size).tolist())
        yield simulate(ProblemSpec(x0=tuple(rng.uniform(-2.0, 2.0, size=2))), control)


def test_lookups_match_a_linear_scan_at_every_arc_end():
    # ties at an arc's end belong to that arc for state_at and to the next
    # one for cost_after, as in the scans they replaced
    for traj in seeded_references():
        assert traj.ends == tuple(arc.t0 + arc.duration for arc in traj.arcs)
        assert traj.duration == traj.ends[-1]
        probes = [*traj.ends, *(arc.t0 for arc in traj.arcs),
                  *(arc.t0 + 0.5 * arc.duration for arc in traj.arcs),
                  traj.duration * (1.0 + 1e-13)]
        for t in probes:
            assert traj.state_at(t) == scan_state_at(traj, t)
        for t in [*probes, -1.0, 2.0 * traj.duration, -math.inf, math.inf]:
            assert traj.cost_after(t) == scan_cost_after(traj, t)


def test_trajectory_lookups_reject_nan_with_one_line():
    traj = simulate(ProblemSpec(x0=(1.0, 0.0)), alternating(2))
    for lookup in (traj.state_at, traj.cost_after):
        with pytest.raises(ValueError) as exc:
            lookup(math.nan)
        assert "\n" not in str(exc.value)


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
    for _, _, traj, sols in solve_ivp_arcs(100):
        assert lagrangian_cost(traj) == pytest.approx(
            sols[-1].y[2, -1], rel=1e-9, abs=1e-12)


def test_double_integrator_rejects_vector_values():
    with pytest.raises(TypeError):
        PiecewiseConstantControl((0.0, 1.0), ((0.5, 0.5),))
    with pytest.raises(ValueError):
        ProblemSpec(x0=(0.0, 0.0, 0.0))
