import contextlib
import math
import signal
import tracemalloc

import numpy as np
import pytest

from chatterlab import fuller, solver
from chatterlab.controls import ProblemSpec, di_arc, simulate, tv
from chatterlab.errors import AllStartsInfeasible
from chatterlab.fuller import default_synthesis, optimal_cost
from chatterlab.solver import (
    BangBangCandidate,
    PathPoint,
    SolutionPath,
    _better,
    _build_starts,
    _cold_starts,
    _evaluate,
    _grid_argmin,
    _grow,
    _lift_last,
    _objective,
    _projected_bfgs,
    _projected_gradient_norm,
    _solve_subproblem,
    _table,
    _tie_band,
    _value,
    _vector_eval,
    brute_force_oracle,
    optimize_durations,
    regularization_path,
)
from chatterlab.truncation import (
    min_time_to_origin,
    steer_durations,
    steer_floor,
    truncate,
    truncation_lag_for_budget,
)


def forward_residual(state, sign, pair):
    x = state
    for u, d in zip((sign, -sign), pair):
        x = (x[0] + x[1] * d + 0.5 * u * d * d, x[1] + u * d)
    return math.hypot(*x)


# ---------------------------------------------------------------------------
# terminal-arc elimination
# ---------------------------------------------------------------------------

def test_terminal_arcs_from_rest():
    pair = steer_durations((1.0, 0.0), -1.0)
    assert pair == pytest.approx((1.0, 1.0), abs=1e-14)
    assert forward_residual((1.0, 0.0), -1.0, pair) <= 1e-12


def test_terminal_arcs_pure_velocity():
    v = 2.0
    pair = steer_durations((0.0, v), -1.0)
    d = v / math.sqrt(2.0)
    assert pair == pytest.approx((v + d, d), rel=1e-14)
    assert forward_residual((0.0, v), -1.0, pair) <= 1e-12


def test_terminal_arcs_infeasible_sign():
    assert steer_durations((1.0, 0.0), 1.0) is None


def test_terminal_arcs_random_states_steer_exactly():
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = tuple(rng.uniform(-2.0, 2.0, 2))
        if state == (0.0, 0.0):
            continue
        hit = False
        for sign in (-1.0, 1.0):
            pair = steer_durations(state, sign)
            if pair is None:
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


def _gradient_cases():
    # seeded states on both sides of the switching curve x1 + x2|x2|/2 = 0,
    # some with a near-zero arc; then free arcs that end next to the
    # terminal switching curve, where r = sqrt(z2^2/2 - u z1) -> 0
    rng = np.random.default_rng(31)
    cases = []
    while len(cases) < 24:
        x0 = tuple(float(v) for v in rng.uniform(-1.5, 1.5, 2))
        sign = float(rng.choice([-1.0, 1.0]))
        theta = [float(v) for v in rng.uniform(0.05, 0.8, int(rng.integers(1, 5)))]
        if len(cases) % 3 == 0:
            theta[int(rng.integers(len(theta)))] = 1e-9
        if _evaluate(x0, sign, theta, 1e3) is not None:
            cases.append((x0, sign, theta))
    assert len({x[0] + 0.5 * x[1] * abs(x[1]) > 0.0 for x, _, _ in cases}) == 2
    # from (1, 0) and (0.5, 0.5) under -1 the state meets the curve of the
    # +1 arc at d = 1 and d = (1 + sqrt(2.5)) / 2, where r^2 = d^2 - 1 and
    # d^2 - d - 0.375 vanish
    for gap in (1e-2, 1e-4, 1e-6):
        cases.append(((1.0, 0.0), -1.0, [1.0 + gap]))
        cases.append(((0.5, 0.5), -1.0, [(1.0 + math.sqrt(2.5)) / 2.0 + gap]))
    return cases


def test_switching_time_gradient_matches_differences():
    # the adjoint gradient against a one-sided three-point difference (it
    # never leaves the box, so near-zero arcs are checked too)
    h = 1e-5
    near_curve = 0
    for x0, sign, theta in _gradient_cases():
        f = _objective(x0, sign, 1e3)
        val, grad = f(theta)
        assert val == _evaluate(x0, sign, theta, 1e3)[0]
        near_curve += _evaluate(x0, sign, theta, 1e3)[2][-1] < 2e-2  # r, the last arc
        for i in range(len(theta)):
            probe = [f([*theta[:i], theta[i] + k * h, *theta[i + 1:]])[0] for k in (1, 2)]
            diff = (-3.0 * val + 4.0 * probe[0] - probe[1]) / (2.0 * h)
            assert grad[i] == pytest.approx(diff, rel=1e-6, abs=1e-8)
    assert near_curve >= 4


@pytest.mark.parametrize("epsilon", [0.0, 1e-4])
def test_objective_value_matches_evaluate_bit_for_bit(epsilon):
    # the descent runs on the running cost; with the penalty of the
    # collapsed TV added it is the regularized value of `_evaluate`
    for x0, sign, theta in _gradient_cases():
        res = _evaluate(x0, sign, theta, 1e3)
        assert _objective(x0, sign, 1e3)(theta)[0] + epsilon * res[1] == \
            _value(res, epsilon)
    assert _objective((1.0, 0.0), 1.0, 1e3)([]) == (math.inf, None)


def test_certificate_is_small_at_interior_optima(synth):
    # at an optimum whose arcs all stay off zero the projected gradient is
    # the gradient; scaled by the box it is a small share of the cost
    rng = np.random.default_rng(5)
    interior = 0
    for _ in range(6):
        r, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        spec = ProblemSpec(x0=(r * math.cos(angle), r * math.sin(angle)))
        cap = solver.DURATION_CAP_FACTOR * min_time_to_origin(spec.x0)
        for n in (2, 3, 4):
            for sign in (-1.0, 1.0):
                try:
                    cand = optimize_durations(n, sign, 0.0, spec, synth=synth)
                except AllStartsInfeasible:
                    continue
                report = cand.report
                # the table entry's cold, flip and warm starts
                assert 1 <= report.feasible_starts <= 3
                assert report.evaluations >= report.feasible_starts
                if min(cand.durations) < 1e-3 * cap:
                    continue
                interior += 1
                theta = list(cand.durations[:n - 1])
                _, grad = _objective(spec.x0, sign, spec.equibound)(theta)
                assert report.pg_norm == _projected_gradient_norm(theta, grad, cap)
                assert report.pg_norm * cap <= 1e-5 * cand.lagrangian
    assert interior >= 10


def test_descent_does_not_stop_in_a_flat_valley(synth):
    # the best start meets a full quasi-Newton step that gains less than
    # 1e-14 relative while H has not seen the valley's flat direction yet;
    # stopping on that one step left the value 1.5e-13 above the optimum
    # that coordinate golden-section descent reaches, 0.12365764852088869
    spec = ProblemSpec(x0=(0.7169024304723535, -1.3334803224591025))
    cand = optimize_durations(3, 1.0, 0.0, spec, synth=synth)
    assert cand.lagrangian <= 0.12365764852088869 * (1.0 + 1e-14)


@pytest.mark.parametrize("n, want", [(3, 0.7640197494638836), (4, 0.7640175495576562)])
def test_sign_flip_start_reaches_the_other_signs_optimum(synth, n, want):
    # from (1, 0) the chattering control starts with u = -1; at sign +1 only
    # the start with a vanishing first arc ahead of the chattering prefix
    # reaches these values (the prefix start alone ends at 0.78327 for n = 3
    # and 1.59169 for n = 4)
    cand = optimize_durations(n, 1.0, 0.0, ProblemSpec(x0=(1.0, 0.0)), synth=synth)
    assert abs(cand.lagrangian - want) <= 1e-14 * want


class _AcceptedValues(list):
    """Durations that record the value of every point the descent accepts
    into them (`theta[:] = trial`), read from the objective's own calls."""

    def __init__(self, theta, values_of):
        super().__init__(theta)
        self.values_of, self.accepted = values_of, []

    def __setitem__(self, key, trial):
        self.accepted.append(self.values_of[tuple(trial)])
        super().__setitem__(key, trial)


def test_descent_trace_is_monotone(reference, synth):
    spec = reference[0]
    cap = solver.DURATION_CAP_FACTOR * min_time_to_origin(spec.x0)
    objective = _objective(spec.x0, -1.0, spec.equibound)
    values_of = {}

    def f(theta):
        out = objective(theta)
        values_of[tuple(theta)] = out[0]
        return out

    descended = 0
    for start in _build_starts(2, _cold_starts(spec.x0, synth), synth.rho, cap):
        val, grad = f(start)
        if grad is None:
            continue
        theta = _AcceptedValues(start, values_of)
        final, _ = _projected_bfgs(f, theta, val, grad, cap)
        run = [val] + theta.accepted
        descended += len(run) >= 2
        assert all(b <= a + 1e-14 for a, b in zip(run, run[1:]))
        assert final == run[-1] == objective(list(theta))[0]
    assert descended


def test_cost_approaches_optimum_from_above(reference, synth):
    spec, _, _, _, j_star = reference
    prev = math.inf
    for n in (1, 2, 3, 5):
        cand = optimize_durations(n, -1.0, 0.0, spec, synth=synth)
        assert cand.lagrangian >= j_star - 1e-8
        assert cand.lagrangian <= prev + 1e-12
        prev = cand.lagrangian
    assert prev - j_star <= 1e-10


@pytest.mark.parametrize("x0", [(1.0, 0.0), (0.2, -1.1), (0.7, 0.4), (-1.2, -0.5)])
def test_gap_falls_by_rho_to_the_fifth_per_switch(x0, synth):
    # the paper's decay of the error as the total variation grows: Fuller's
    # self-similarity shrinks each arc by rho, so one more switch divides
    # J_n - J* by rho^5; from n = 5 on the gaps reach the rounding of J
    spec = ProblemSpec(x0=x0)
    j_star = optimal_cost(x0, synth)
    gap = {}
    for n in (2, 3, 4):
        best = math.inf
        for sign in (-1.0, 1.0):
            try:
                cand = optimize_durations(n, sign, 0.0, spec, synth=synth)
            except AllStartsInfeasible:
                continue
            best = min(best, cand.lagrangian)
        gap[n] = best - j_star
    for n in (2, 3):
        assert gap[n + 1] / gap[n] == pytest.approx(synth.rho ** 5, rel=1e-2)


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
        regularization_path([1e-3], spec, synth=synth)


#: two-switch subproblems at epsilon = 1e-4 where the terminal solve rejects
#: every start, with the value that a coordinate scan of the starts followed
#: by the same descent reached
NO_FEASIBLE_START = [
    ((-0.22056431756610595, 0.6650629100327307), -1.0, 0.006847928397002653),
    ((1.188638726591423, -1.5440770057864557), 1.0, 0.43503624935047236),
    ((0.3183199959655618, -0.7979598387621166), 1.0, 0.016567691526458435),
    ((-0.5728894831772093, 1.0706406516104583), -1.0, 0.07063712084525968),
]


@pytest.mark.parametrize("x0,sign,want", NO_FEASIBLE_START)
def test_lifted_starts_solve_when_no_start_is_feasible(x0, sign, want, synth):
    spec = ProblemSpec(x0=x0)
    cap = solver.DURATION_CAP_FACTOR * min_time_to_origin(x0)
    starts = _build_starts(1, _cold_starts(x0, synth), synth.rho, cap)
    assert all(_evaluate(x0, sign, theta, spec.equibound) is None for theta in starts)
    cand = optimize_durations(2, sign, 1e-4, spec, synth=synth)
    assert cand.terminal_residual <= 1e-9
    assert cand.report.feasible_starts >= 1
    assert cand.value(1e-4) == pytest.approx(want, rel=1e-12)


def test_terminal_solve_accepts_a_last_arc_exactly_from_t_f():
    # after an arc of sign u and length t from (x1, x2), the terminal
    # discriminant is (t + u x2)^2 + c, c = u x1 - x2^2 / 2: every t is
    # accepted when c >= 0, else exactly t >= t_f = -u x2 + sqrt(-c)
    rng = np.random.default_rng(43)
    lifted = boundary = 0
    for _ in range(300):
        x1, x2 = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        u = float(rng.choice([-1.0, 1.0]))
        c = u * x1 - 0.5 * x2 * x2
        t_f = -u * x2 + math.sqrt(-c) if c < 0.0 else -math.inf
        probes = list(rng.uniform(0.0, 4.0, 8))
        if t_f > 0.0:
            probes += [t_f + k * h for k in (-1.0, 1.0) for h in (1e-3, 1e-6, 1e-8)]
        for t in probes:
            if t < 0.0 or abs(t - t_f) < 1e-9:
                continue
            e1, e2, _, _ = di_arc(x1, x2, u, t)
            assert (steer_durations((e1, e2), -u) is not None) == (t >= t_f)
            boundary += abs(t - t_f) < 1e-5
        # the lift from a shorter arc lands on the accepted side, within 1e-9
        cap = 4.0 + abs(t_f)
        theta = [0.0]
        _lift_last((x1, x2), u, theta, cap)
        if t_f > 0.0:
            assert t_f < theta[0] <= t_f + 1e-9 * (1.0 + t_f)
            e1, e2, _, _ = di_arc(x1, x2, u, theta[0])
            assert steer_durations((e1, e2), -u) is not None
            lifted += 1
        else:
            assert theta == [0.0]
    assert lifted >= 50 and boundary >= 100


# ---------------------------------------------------------------------------
# regularized solve and path
# ---------------------------------------------------------------------------

def _one_point(epsilon, spec, synth):
    """The candidate of the one-point path at epsilon."""
    return regularization_path([epsilon], spec, synth=synth).records[0].candidate


def test_large_epsilon_returns_minimal_tv(reference, synth):
    spec, _, _, _, _ = reference
    n1 = optimize_durations(1, -1.0, 0.0, spec, synth=synth)
    eps = n1.lagrangian / 2.0 + 0.1
    cand = _one_point(eps, spec, synth)
    assert cand.tv == 2.0


def test_path_switch_count_grows_as_epsilon_shrinks(reference, synth):
    spec = reference[0]
    big = _one_point(1e-1, spec, synth)
    small = _one_point(1e-6, spec, synth)
    assert small.n_switches > big.n_switches
    mid = _one_point(1e-3, spec, synth)
    assert big.n_switches <= mid.n_switches <= small.n_switches


def test_path_synthesizes_the_chattering_reference_once(monkeypatch, synth):
    # every (count, sign) table entry with a free duration seeds a start
    # with the same chattering prefix; one path synthesizes it once
    synthesized, seeded = [], []
    for module, name, calls in ((fuller, "synthesize_chattering", synthesized),
                                (solver, "_solve_subproblem", seeded)):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _c=calls, **kw:
                            _c.append(a) or _f(*a, **kw))
    fuller.chattering_reference.cache_clear()
    _table.cache_clear()
    regularization_path([10.0 ** -k for k in range(1, 9)], ProblemSpec(x0=(0.3, -0.7)),
                        synth=synth)
    assert len([a for a in seeded if a[0] > 1]) > 2 and len(synthesized) == 1


def test_path_sweeps_each_subproblem_of_its_smallest_epsilon_once(monkeypatch, synth):
    # one table serves every epsilon: a path solves exactly the table
    # entries of its smallest epsilon alone, each (count, sign) once, and
    # the table is kept, so the subproblems solved alone after it solve
    # nothing
    calls = []
    original = solver._solve_subproblem
    monkeypatch.setattr(solver, "_solve_subproblem", lambda *a, **kw:
                        calls.append(a[:2]) or original(*a, **kw))
    spec = ProblemSpec(x0=(0.3, -0.7))
    _table.cache_clear()
    path = regularization_path([1e-1, 1e-3, 1e-5], spec, synth=synth)
    path_calls = list(calls)
    calls.clear()
    _table.cache_clear()
    assert regularization_path([1e-5], spec, synth=synth).subproblems == path.subproblems
    assert path_calls == calls
    assert path_calls == [(n, s) for n in range(1, path.stop.n_switches + 1)
                          for s in (-1.0, 1.0)]
    calls.clear()
    for n, s in path_calls:
        with contextlib.suppress(AllStartsInfeasible):
            optimize_durations(n, s, 1e-5, spec, synth=synth)
    assert calls == []


#: the bench ladder, 1e-1 down to 1e-8
LADDER_8 = [10.0 ** -k for k in range(1, 9)]

#: path values from (1e4, 0) under equibound 1e9 on LADDER_8 of a sweep
#: that ran on to count 13; J is about 7.6e9 there, so epsilon <= 1e-6 is
#: below one ulp of it and the counts it picked above 5 were rounding
FAR_VALUES = (7640175478.071579, 7640175477.351579, 7640175477.266344,
              7640175477.257344, 7640175477.256444, 7640175477.256344,
              7640175477.256331, 7640175477.25633)


def test_no_count_past_the_stop_beats_the_path(synth):
    # the sweep stops once a solved count is within 2 eps_min of J_floor (J*
    # at the default radius); every count above costs at least
    # J_floor + 2 (n + 1) eps, so the next two counts,
    # solved directly at eps = 0 and at eps_min, beat no point of the path
    # by more than the tie band
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(8):
        radius, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        spec = ProblemSpec(x0=(radius * math.cos(angle), radius * math.sin(angle)))
        path = regularization_path(LADDER_8, spec, synth=synth)
        stop = path.stop
        assert stop.reason == "j_star_bound" and stop.two_eps_min == 2.0 * LADDER_8[-1]
        assert stop.n_switches == path.subproblems[-1][0]
        assert stop.min_gap < stop.two_eps_min
        for n in (stop.n_switches + 1, stop.n_switches + 2):
            for sign in (-1.0, 1.0):
                for weight in (0.0, LADDER_8[-1]):
                    try:
                        cand = optimize_durations(n, sign, weight, spec, synth=synth)
                    except AllStartsInfeasible:
                        continue
                    checked += 1
                    for point in path.records:
                        assert cand.value(point.epsilon) >= \
                            point.value - _tie_band(point.value)
    assert checked >= 48


def _path_states(synth):
    """Seeded states at radius 0.5-2, and states at relative residual
    1e-6-1 of the switching curve on either side, where the wrong initial
    sign can have an optimum of its own."""
    rng = np.random.default_rng(21)
    states = []
    for _ in range(12):
        radius, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        states.append((radius * math.cos(angle), radius * math.sin(angle)))
    for _ in range(12):
        x2 = rng.uniform(-1.5, 1.5)
        r = 10.0 ** rng.uniform(-6.0, 0.0) * rng.choice([-1.0, 1.0])
        states.append((-synth.zeta * x2 * abs(x2) + r * (1.0 + synth.zeta) * x2 * x2, x2))
    return [(float(x1), float(x2)) for x1, x2 in states]


def test_path_starts_lose_nothing_against_solving_alone(monkeypatch, synth):
    # a path starts the wrong initial sign from the solved flip of count
    # n - 1 and its warm start only: each entry of its table is no higher,
    # within the tie band, than the subproblem solved alone from the cold
    # starts and the same warm start, the selection over those entries is
    # the path's, and the wrong sign descends from at most two starts, one
    # of which is worth exactly the flipped count's cost (a zero arc leaves
    # the state unchanged)
    solved = []
    original = solver._solve_subproblem

    def recording(n, sign, *args, **kwargs):
        try:
            cand = original(n, sign, *args, **kwargs)
        except AllStartsInfeasible:
            solved.append((n, sign, None))
            raise
        solved.append((n, sign, cand))
        return cand

    monkeypatch.setattr(solver, "_solve_subproblem", recording)
    flipped = 0
    for x0 in _path_states(synth):
        spec = ProblemSpec(x0=x0)
        solved.clear()
        _table.cache_clear()
        path = regularization_path(LADDER_8, spec, synth=synth)
        assert [(n, s, c) for n, s, c, _ in path.subproblems] == \
            [(n, s, c and c.lagrangian) for n, s, c in solved]
        feedback = fuller.chattering_reference(x0, synth)[0].values[0]
        warm, costs, table = {}, {}, []
        for n, sign, cand in solved:
            starts = _cold_starts(x0, synth) + ([warm[sign]] if sign in warm else [])
            try:
                alone = original(n, sign, spec, synth.rho, starts)
            except AllStartsInfeasible:
                assert cand is None
                continue
            assert cand.lagrangian <= alone.lagrangian + _tie_band(alone.lagrangian)
            if sign != feedback and (n - 1, -sign) in costs:
                assert cand.report.feasible_starts <= 2
                assert cand.lagrangian <= costs[n - 1, -sign]
                flipped += 1
            warm[sign] = cand.durations
            costs[n, sign] = cand.lagrangian
            table.append((n, alone))
        for point in path.records:
            best = None
            for n, alone in table:
                if _better(alone.value(point.epsilon), n, best):
                    best = (alone.value(point.epsilon), n, alone)
            assert (point.value, point.n_switches, point.candidate.initial_sign) == \
                (best[0], best[1], best[2].initial_sign)
    assert flipped >= 30


def test_far_state_sweep_stops_on_j_star(synth):
    # at J = 7.6e9 the stop's slack and the tie band scale with J: the
    # sweep ends by count 6 and keeps every value to 1e-14 relative
    path = regularization_path(LADDER_8, ProblemSpec(x0=(1e4, 0.0), equibound=1e9),
                               synth=synth)
    assert path.stop.reason == "j_star_bound" and path.stop.n_switches <= 6
    assert path.subproblems[-1][0] <= 6
    for point, want in zip(path.records, FAR_VALUES):
        assert abs(point.value - want) <= 1e-14 * want
    assert all(path.laws().values())


def test_coarse_truncation_radius_keeps_the_stop_sound(synth):
    # with a truncation radius above |x0| the whole reference is its two-arc
    # tail, which costs more than the 3-switch optimum; the floor is the
    # closed-form optimum at every radius, so the sweep still stops on it
    # early and finds the fine reference's counts
    spec = ProblemSpec(x0=(1.0, 0.0))
    coarse = regularization_path(LADDER_8, spec, synth=default_synthesis(3.0))
    fine = regularization_path(LADDER_8, spec, synth=synth)
    for path in (coarse, fine):
        assert path.stop.j_floor == optimal_cost((1.0, 0.0), synth)
        assert path.stop.reason == "j_star_bound" and path.stop.n_switches <= 6
    for a, b in zip(coarse.records, fine.records):
        assert a.n_switches == b.n_switches
        assert abs(a.value - b.value) <= 1e-12 * b.value


def test_tie_band_scales_with_the_value():
    # one ulp of 7.6e9 is 9.5e-7, so an absolute 1e-12 band would be none
    best = (7.6e9, 5, None)
    assert _tie_band(7.6e9) == 7.6e-3 and _tie_band(0.5) == 1e-12
    assert _better(7.6e9 - 5e-3, 4, best)
    assert not _better(7.6e9 - 5e-3, 6, best)
    assert _better(7.6e9 - 1e-2, 6, best)


def test_exchange_inequalities_along_path(decade_path):
    recs = decade_path.records
    for a in recs:
        for b in recs:
            # a's candidate is optimal at its own epsilon against b's
            lhs = a.lagrangian + a.epsilon * a.tv
            rhs = b.lagrangian + a.epsilon * b.tv
            assert lhs <= rhs + 1e-12


def test_path_laws(decade_path):
    laws = decade_path.laws()
    assert all(laws.values()), laws


def test_path_laws_hold_where_divided_differences_round(synth):
    # from this state the divided-difference slope of the values rises by
    # 2e-9 from [1e-8, 1e-7] to [1e-7, 1e-6] (both points keep the same
    # 3-switch candidate: rounding) while the exchange inequalities hold
    spec = ProblemSpec(x0=(1.7309, 0.0573))
    path = regularization_path([10.0 ** -k for k in range(1, 9)], spec, synth=synth)
    laws = path.laws()
    assert all(laws.values()), laws


def test_path_laws_flag_a_convex_value():
    # values 3, 6, 10 at eps 1, 2, 3: monotone in every column, but the
    # first candidate's line undercuts the last value (0 + 3 * 3 < 10)
    points = tuple(PathPoint(epsilon=e, n_switches=n, lagrangian=lag, tv=t,
                             value=lag + e * t, candidate=None)
                   for e, n, lag, t in ((1.0, 3, 0.0, 3.0), (2.0, 2, 2.0, 2.0),
                                        (3.0, 1, 7.0, 1.0)))
    laws = SolutionPath(points).laws()
    assert not laws["value_concave"]
    assert laws["value_nondecreasing"] and laws["tv_nonincreasing"]
    assert laws["lagrangian_nondecreasing"]


def test_path_gap_nonnegative(decade_path, reference):
    j_star = reference[4]
    for rec in decade_path.records:
        assert rec.lagrangian - j_star >= 0.0


def test_tie_break_prefers_fewer_switches():
    best = (1.0, 3, None)
    # a value lower by more than 1e-12 wins whatever its switch count
    assert _better(1.0 - 2e-12, 5, best)
    assert not _better(1.0 + 2e-12, 1, best)
    # within 1e-12 the lower switch count wins, a higher or equal one loses
    assert _better(1.0 + 5e-13, 2, best)
    assert not _better(1.0 - 5e-13, 4, best)
    assert not _better(1.0, 3, best)
    assert _better(7.0, 9, None)


def test_path_validates_grid(reference):
    spec = reference[0]
    with pytest.raises(ValueError):
        regularization_path([], spec)
    with pytest.raises(ValueError):
        regularization_path([1e-3, 1e-2], spec)
    with pytest.raises(ValueError):
        regularization_path([1e-2, -1e-3], spec)


@contextlib.contextmanager
def deadline(seconds):
    """Fail a call that runs past `seconds` instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: optimize_durations(2, 1.0, math.nan, ProblemSpec(x0=(1.0, 0.0))),
    lambda: regularization_path([math.nan], ProblemSpec(x0=(1.0, 0.0))),
    lambda: regularization_path([1e-1, math.nan], ProblemSpec(x0=(1.0, 0.0))),
    lambda: ProblemSpec(x0=(1.0, 0.0), equibound=math.nan),
    lambda: ProblemSpec(x0=(math.nan, 0.0)),
    lambda: ProblemSpec(x0=(1.0, -math.inf)),
], ids=["epsilon", "path", "path-tail", "equibound", "x0-nan", "x0-inf"])
def test_nan_inputs_raise_one_line_value_errors(call):
    # every guard is written so that NaN fails it; before, the first call
    # never returned and the path returned a point at epsilon = NaN
    with deadline(5.0), pytest.raises(ValueError) as info:
        call()
    assert "\n" not in str(info.value)
    assert ProblemSpec(x0=(1.0, 0.0), equibound=math.inf).equibound == math.inf


def test_line_search_ends_on_a_nan_value():
    # a NaN value fails every Armijo test; the search must still end
    x0 = (1.0, 0.0)
    objective = _objective(x0, 1.0, 1e3)

    def f(theta):
        return math.nan, objective(theta)[1]

    theta = [0.5]
    val, grad = f(theta)
    assert math.isnan(val) and grad is not None
    with deadline(5.0):
        _projected_bfgs(f, theta, val, grad, 3.0 * min_time_to_origin(x0))


def test_solver_beats_truncation_competitor(reference, synth, decade_path):
    # the returned candidate is at least as good as the constructive
    # competitor built by cutting the reference control at matching budget
    spec, u_star, traj_star, _, j_star = reference
    for rec in decade_path.records:
        if rec.tv < 6.0:
            continue
        lag = truncation_lag_for_budget(u_star, rec.tv - 4.0)
        res = truncate(u_star, traj_star, lag, spec, radius=10.0)
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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_solver_no_worse_than_oracle(synth, n, sign):
    # criterion 4 at epsilon = 1e-4 from states on both sides of the
    # switching curve, each (count, sign) against its own oracle optimum
    eps = 1e-4
    for x0 in ((1.0, 0.0), (-0.181, 0.656), (0.3, -0.7)):
        spec = ProblemSpec(x0=x0)
        try:
            orc = brute_force_oracle(n, sign, eps, spec, resolution=2e-3)
        except AllStartsInfeasible:
            continue
        cand = optimize_durations(n, sign, eps, spec, synth=synth)
        assert cand.value(eps) <= orc.value(eps) * (1.0 + 1e-6)


@pytest.mark.parametrize("x0, interior_value", [
    ((-0.1705, 0.6118), 0.0038022128959149734),
    ((-0.8877803281232487, 1.404835155421727), 0.1986794529525422),
])
def test_zero_face_step_finds_collapsed_optima(synth, x0, interior_value):
    # every start descends to an interior optimum (value `interior_value`)
    # with a first arc of about 0.004; the oracle's optimum drops that arc,
    # which lowers the TV from 6 to 4, a face the descent never lands on:
    # it is the (2, -1) table entry behind a zero first arc
    eps = 1e-4
    spec = ProblemSpec(x0=x0)
    orc = brute_force_oracle(3, 1.0, eps, spec, resolution=2e-3)
    cand = optimize_durations(3, 1.0, eps, spec, synth=synth)
    assert orc.tv == 4.0 and cand.tv == 4.0
    assert cand.value(eps) <= orc.value(eps) * (1.0 + 1e-6)
    assert orc.value(eps) < interior_value * (1.0 - 1e-5)
    assert cand.report.pg_norm * 3.0 * min_time_to_origin(x0) <= 1e-5 * cand.lagrangian


#: six-switch subproblems, sign -1 at epsilon = 1e-4, whose optima are lower
#: table entries behind zero-length arcs; descents from the two cold starts
#: end 7.9% and 7.4% above these values
COLLAPSED_SIX = [
    ((-0.22633779463431777, 0.45287275082240863), 0.008002042264232224),
    ((-0.22925166684613776, 0.5531552934147955), 0.007610305517238637),
]


@pytest.mark.parametrize("x0, want", COLLAPSED_SIX)
def test_solo_subproblem_reads_collapsed_optima_from_the_table(synth, x0, want):
    cand = optimize_durations(6, -1.0, 1e-4, ProblemSpec(x0=x0), synth=synth)
    assert cand.value(1e-4) == want
    assert cand.tv < 12.0 and 0.0 in cand.durations


def test_solo_subproblem_is_the_collapse_recursion(synth):
    # E(n, s) = min(J(n, s) + eps TV, E(n - 1, -s), E(n - 2, s)), each
    # lower term embedded by zero-length arcs: the returned value is no
    # higher than any term beyond the tie band, and the returned durations
    # are a candidate of (n, s) that `_evaluate` gives back float for float
    rng = np.random.default_rng(26)
    embedded = 0
    for _ in range(8):
        r, angle = 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
        spec = ProblemSpec(x0=(r * math.cos(angle), r * math.sin(angle)))
        for eps in (0.0, 1e-4, 1e-3):
            solved = {}
            for n in range(1, 7):
                for sign in (-1.0, 1.0):
                    with contextlib.suppress(AllStartsInfeasible):
                        solved[n, sign] = optimize_durations(n, sign, eps, spec, synth=synth)
            for (n, sign), cand in solved.items():
                own = _grow(spec, synth, n)[n, sign][0]
                terms = [c.value(eps) for c in (own, solved.get((n - 1, -sign)),
                                                 solved.get((n - 2, sign))) if c]
                value = cand.value(eps)
                assert all(value <= t + _tie_band(t) for t in terms)
                assert len(cand.durations) == n + 1 and cand.initial_sign == sign
                res = _evaluate(spec.x0, sign, cand.durations[:-2], spec.equibound)
                assert (res[0], res[1], res[2], res[3]) == \
                    (cand.lagrangian, cand.tv, cand.durations, cand.terminal_residual)
                embedded += own is None or cand.durations != own.durations
    assert embedded >= 60


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_oracle_memory_stays_blocked(sign):
    # a dense grid of the 251k cells would need 2 MB per float array
    for x0 in ((1.0, 0.0), (-0.3, 0.8), (0.2, -1.1)):
        tracemalloc.start()
        try:
            brute_force_oracle(3, sign, 1e-4, ProblemSpec(x0=x0), resolution=2e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


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


def test_grid_and_scalar_steering_share_the_rescue_band():
    # from x0 the last terminal arc alone nearly reaches the origin: the
    # first terminal duration solves to about -1e-12, inside the rounding
    # band steer_durations takes as 0, and the grid cell agrees
    for sign in (-1.0, 1.0):
        u = -sign  # the control after the one free arc
        x0 = (-u * 0.32 + u * 1.6e-12, u * 0.8)
        root = math.sqrt(0.5 * x0[1] ** 2 - u * x0[0])
        assert steer_floor(x0[1], root) < -u * x0[1] + root < 0.0
        assert steer_durations(x0, u) == (0.0, root)
        res = _evaluate(x0, sign, [0.0], 1e3)
        cost, tv_grid = _vector_eval(x0, sign, [np.zeros(1)], 1e3)
        assert res is not None
        assert cost[0] == res[0] and tv_grid[0] == res[1]


@pytest.mark.parametrize("equibound", [1e3, 3.0])
def test_blocked_oracle_grid_picks_the_full_grid_argmin(equibound, monkeypatch):
    # the oracle's 3-switch grid at resolution 2e-3 spans 16 row blocks, and
    # a 37-point axis under 256-cell blocks of 6 rows ends on a one-row
    # block; for one and two free durations and at every epsilon, the first
    # minimum over the blocks is np.argmin's over the whole grid
    blocks = ((501, solver._ORACLE_BLOCK_CELLS), (37, 256))
    for x0 in ((1.0, 0.0), (-0.3, 0.8), (0.2, -1.1), (0.05, -0.3)):
        for size, block in blocks:
            axis = np.linspace(0.0, 3.0 * min_time_to_origin(x0), size)
            monkeypatch.setattr(solver, "_ORACLE_BLOCK_CELLS", block)
            for n_free in (1, 2):
                grids = np.meshgrid(*([axis] * n_free), indexing="ij")
                for sign in (-1.0, 1.0):
                    cost, tv_grid = _vector_eval(x0, sign, grids, equibound)
                    for eps in (0.0, 1e-4, 1e-1):
                        value = cost + eps * tv_grid
                        flat = int(np.argmin(value))
                        theta = _grid_argmin(x0, sign, eps, axis, n_free, equibound)
                        if not np.isfinite(value.flat[flat]):
                            assert theta is None
                            continue
                        assert theta == [float(g.flat[flat]) for g in grids]


def _kronecker_states(count, seed=22):
    """States of the benchmark's distribution (radius uniform in [0.5, 2],
    angle uniform) at the points of a seed-shifted 2-d Kronecker sequence."""
    g = 1.324717957244746  # the plastic number, g^3 = g + 1
    shift = np.random.default_rng(seed).random(2)
    states = []
    for k in range(count):
        u, v = np.mod(shift + k * np.array([1.0 / g, 1.0 / g ** 2]), 1.0)
        r, a = 0.5 + 1.5 * u, 2.0 * math.pi * v
        states.append((float(r * math.cos(a)), float(r * math.sin(a))))
    return states


def _unpruned_argmin(x0, sign, epsilon, axis, n_free, equibound):
    """The grid oracle's cell without blocks or cost bound: np.argmin over
    the values of the whole grid, the reference for `_grid_argmin`."""
    grids = np.meshgrid(*([axis] * n_free), indexing="ij")
    cost, tv_grid = _vector_eval(x0, sign, grids, equibound)
    value = cost + epsilon * tv_grid
    flat = int(np.argmin(value))
    if not np.isfinite(value.flat[flat]):
        return None
    return [float(g.flat[flat]) for g in grids]


@pytest.mark.parametrize("equibound", [1e3, 3.0])
def test_pruned_oracle_grid_is_the_unpruned_one(equibound, monkeypatch):
    # cells whose free arcs alone cost more than the running best are not
    # scored, and rows whose first arc does are not folded; on 20 states of
    # the benchmark's distribution, in 16-row blocks of a 101-point axis (the
    # first block is scored whole, so the bound acts from the second on),
    # the cell is np.argmin's over the whole unpruned grid; on every fourth
    # state the oracle's refined candidate is the one the unpruned grid
    # leads to, bit for bit
    for k, x0 in enumerate(_kronecker_states(20)):
        axis = np.linspace(0.0, 3.0 * min_time_to_origin(x0), 101)
        for n_free in (1, 2):
            monkeypatch.setattr(solver, "_ORACLE_BLOCK_CELLS", 16 * axis.size ** (n_free - 1))
            for sign in (-1.0, 1.0):
                for eps in (0.0, 1e-4, 1e-1):
                    assert _grid_argmin(x0, sign, eps, axis, n_free, equibound) == \
                        _unpruned_argmin(x0, sign, eps, axis, n_free, equibound)
        monkeypatch.undo()
        if k % 4:
            continue
        spec = ProblemSpec(x0=x0, equibound=equibound)
        for sign in (-1.0, 1.0):
            for eps in (0.0, 1e-4, 1e-1):
                runs = []
                for grid_argmin in (solver._grid_argmin, _unpruned_argmin):
                    monkeypatch.setattr(solver, "_grid_argmin", grid_argmin)
                    try:
                        runs.append(brute_force_oracle(3, sign, eps, spec, resolution=1e-2))
                    except AllStartsInfeasible:
                        runs.append(None)
                    monkeypatch.undo()
                assert runs[0] == runs[1]


def test_oracle_grid_prunes_most_cells(monkeypatch):
    # from (1, 0) at count 3 the unpruned grid folds all of its 251k cells
    # and gives 22-30% of them the terminal arcs and the collapsed TV; the
    # cost bound folds under half of them and scores under an eighth
    folded, scored = [0], [0]
    vector_eval, collapsed_tv = solver._vector_eval, solver._collapsed_tv

    def counting_eval(x0, sign, free_grids, *args):
        folded[0] += math.prod(np.broadcast_shapes(*(np.shape(d) for d in free_grids)))
        return vector_eval(x0, sign, free_grids, *args)

    def counting_tv(durations):
        if isinstance(durations[-1], np.ndarray):
            scored[0] += durations[-1].size
        return collapsed_tv(durations)

    monkeypatch.setattr(solver, "_vector_eval", counting_eval)
    monkeypatch.setattr(solver, "_collapsed_tv", counting_tv)
    cells = 501 ** 2
    for sign in (-1.0, 1.0):
        folded[0] = scored[0] = 0
        brute_force_oracle(3, sign, 1e-4, ProblemSpec(x0=(1.0, 0.0)), resolution=2e-3)
        assert folded[0] < cells / 2
        assert 0 < scored[0] < cells / 8
