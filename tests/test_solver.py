import math

import numpy as np
import pytest

from chatterlab.controls import ProblemSpec, simulate, tv
from chatterlab.errors import AllStartsInfeasible, Infeasible
from chatterlab.solver import (
    BangBangCandidate,
    _evaluate,
    _vector_eval,
    brute_force_oracle,
    optimize_durations,
    regularization_path,
    solve_regularized,
    solve_terminal_arcs,
)
from chatterlab.truncation import truncate, truncation_lag_for_budget


def forward_residual(state, sign, pair):
    x = state
    for u, d in zip((sign, -sign), pair):
        x = (x[0] + x[1] * d + 0.5 * u * d * d, x[1] + u * d)
    return math.hypot(*x)


# ---------------------------------------------------------------------------
# terminal-arc elimination
# ---------------------------------------------------------------------------

def test_terminal_arcs_from_rest():
    pair = solve_terminal_arcs((1.0, 0.0), -1.0)
    assert pair == pytest.approx((1.0, 1.0), abs=1e-14)
    assert forward_residual((1.0, 0.0), -1.0, pair) <= 1e-12


def test_terminal_arcs_pure_velocity():
    v = 2.0
    pair = solve_terminal_arcs((0.0, v), -1.0)
    d = v / math.sqrt(2.0)
    assert pair == pytest.approx((v + d, d), rel=1e-14)
    assert forward_residual((0.0, v), -1.0, pair) <= 1e-12


def test_terminal_arcs_reject_origin():
    with pytest.raises(ValueError):
        solve_terminal_arcs((0.0, 0.0), -1.0)


def test_terminal_arcs_infeasible_sign():
    with pytest.raises(Infeasible):
        solve_terminal_arcs((1.0, 0.0), 1.0)


def test_terminal_arcs_random_states_steer_exactly():
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = tuple(rng.uniform(-2.0, 2.0, 2))
        if state == (0.0, 0.0):
            continue
        hit = False
        for sign in (-1.0, 1.0):
            try:
                pair = solve_terminal_arcs(state, sign)
            except Infeasible:
                continue
            hit = True
            assert forward_residual(state, sign, pair) <= 1e-12
        assert hit


# ---------------------------------------------------------------------------
# duration optimization
# ---------------------------------------------------------------------------

def test_single_switch_is_the_minimum_time_solution(reference, synth):
    spec = reference[0]
    eps = 0.05
    cand = optimize_durations(1, -1.0, eps, spec, synth=synth)
    assert cand.durations == pytest.approx((1.0, 1.0), abs=1e-12)
    assert cand.tv == 2.0
    # running cost of the two-arc minimum-time solution plus the switch price
    assert cand.lagrangian == pytest.approx(0.76666666666666666, rel=1e-12)
    assert cand.value(eps) == pytest.approx(cand.lagrangian + 2.0 * eps, rel=1e-14)


def test_descent_trace_is_monotone(reference, synth):
    spec = reference[0]
    trace = []
    optimize_durations(3, -1.0, 1e-4, spec, synth=synth, trace=trace)
    assert trace and any(len(run) >= 2 for run in trace)
    for run in trace:
        assert all(b <= a + 1e-14 for a, b in zip(run, run[1:]))


def test_cost_approaches_optimum_from_above(reference, synth):
    spec, _, _, _, j_star = reference
    prev = math.inf
    for n in (1, 2, 3, 5):
        cand = optimize_durations(n, -1.0, 0.0, spec, synth=synth)
        assert cand.lagrangian >= j_star - 1e-8
        assert cand.lagrangian <= prev + 1e-12
        prev = cand.lagrangian
    assert prev - j_star <= 1e-10


def test_candidates_satisfy_terminal_and_equibound(reference, synth):
    spec = reference[0]
    for n in (1, 2, 4):
        cand = optimize_durations(n, -1.0, 1e-3, spec, synth=synth)
        assert cand.terminal_residual <= 1e-9
        control = cand.control()
        traj = simulate(spec, control)  # would raise EquiboundViolation
        assert math.hypot(*traj.final_state) <= 1e-9
        assert control.duration + traj.sup_abs() <= spec.equibound


def test_all_starts_infeasible_under_tight_equibound(synth):
    spec = ProblemSpec(x0=(1.0, 0.0), equibound=1.0)
    with pytest.raises(AllStartsInfeasible):
        optimize_durations(2, -1.0, 1e-3, spec, synth=synth)
    with pytest.raises(AllStartsInfeasible):
        solve_regularized(1e-3, spec, synth=synth)


# ---------------------------------------------------------------------------
# regularized solve and path
# ---------------------------------------------------------------------------

def test_large_epsilon_returns_minimal_tv(reference, synth):
    spec, _, _, _, _ = reference
    n1 = optimize_durations(1, -1.0, 0.0, spec, synth=synth)
    eps = n1.lagrangian / 2.0 + 0.1
    cand = solve_regularized(eps, spec, synth=synth)
    assert cand.tv == 2.0


def test_path_switch_count_grows_as_epsilon_shrinks(reference, synth):
    spec = reference[0]
    cache = {}
    big = solve_regularized(1e-1, spec, synth=synth, cache=cache)
    small = solve_regularized(1e-6, spec, synth=synth, cache=cache)
    assert small.n_switches > big.n_switches
    mid = solve_regularized(1e-3, spec, synth=synth, cache=cache)
    assert big.n_switches <= mid.n_switches <= small.n_switches


def test_exchange_inequalities_along_path(decade_path):
    recs = decade_path.records
    for a in recs:
        for b in recs:
            # a's candidate is optimal at its own epsilon against b's
            lhs = a.lagrangian + a.epsilon * a.tv
            rhs = b.lagrangian + a.epsilon * b.tv
            assert lhs <= rhs + 1e-12


def test_path_laws(decade_path):
    laws = decade_path.laws(tol=1e-9)
    assert all(laws.values()), laws


def test_path_gap_nonnegative(decade_path, reference):
    j_star = reference[4]
    for rec in decade_path.records:
        assert rec.lagrangian - j_star >= 0.0


def test_path_validates_grid(reference):
    spec = reference[0]
    with pytest.raises(ValueError):
        regularization_path([], spec)
    with pytest.raises(ValueError):
        regularization_path([1e-3, 1e-2], spec)
    with pytest.raises(ValueError):
        regularization_path([1e-2, -1e-3], spec)


def test_solver_beats_truncation_competitor(reference, synth, decade_path):
    # the returned candidate is at least as good as the constructive
    # competitor built by cutting the reference control at matching budget
    spec, u_star, traj_star, _, j_star = reference
    for rec in decade_path.records:
        if rec.tv < 6.0:
            continue
        lag = truncation_lag_for_budget(u_star, rec.tv - 4.0)
        res = truncate(u_star, traj_star, lag, spec, j_star=j_star, radius=10.0)
        competitor_tv = tv(res.control)
        assert competitor_tv <= rec.tv + 1e-12
        lhs = rec.lagrangian + rec.epsilon * rec.tv
        rhs = (res.cost_gap + j_star) + rec.epsilon * competitor_tv
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_exactly_for_single_switch(reference, synth):
    spec = reference[0]
    eps = 1e-3
    a = optimize_durations(1, -1.0, eps, spec, synth=synth)
    b = brute_force_oracle(1, -1.0, eps, spec)
    assert a.durations == b.durations
    assert a.lagrangian == b.lagrangian


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_agreement(reference, synth, n):
    spec = reference[0]
    eps = 1e-3
    a = optimize_durations(n, -1.0, eps, spec, synth=synth)
    b = brute_force_oracle(n, -1.0, eps, spec, resolution=2e-3)
    va = a.value(eps)
    vb = b.value(eps)
    assert abs(va - vb) / vb <= 1e-6
    assert vb >= va - 1e-6 * vb


def test_oracle_rejects_many_switches(reference):
    with pytest.raises(ValueError):
        brute_force_oracle(4, -1.0, 1e-3, reference[0])


@pytest.mark.parametrize("equibound", [1e3, 3.0, 1.2])
def test_grid_evaluator_matches_scalar_cell_by_cell(equibound):
    # the numpy grid evaluator and the scalar one share the arc kernel and
    # the collapsed-TV rule, so every feasible cell agrees bit for bit; the
    # axis starts at 0, so collapsed candidates are among the cells, and
    # each one's materialized control carries the same TV; the tighter
    # equibounds leave a few dozen and four feasible cells
    axis = np.linspace(0.0, 2.5, 11)
    for x0 in ((1.0, 0.0), (-0.3, 0.8), (0.2, -1.1), (0.05, -0.3)):
        for sign in (-1.0, 1.0):
            for n_free in (1, 2):
                grids = np.meshgrid(*([axis] * n_free), indexing="ij")
                cost, tv_grid = _vector_eval(x0, sign, grids, equibound)
                for idx in np.ndindex(cost.shape):
                    free = [float(g[idx]) for g in grids]
                    res = _evaluate(x0, sign, free, equibound)
                    if res is None:
                        assert cost[idx] == np.inf
                        continue
                    assert cost[idx] == res[0]
                    assert tv_grid[idx] == res[1]
                    cand = BangBangCandidate(sign, res[2], res[0], res[1], res[3])
                    assert tv(cand.control()) == res[1]
