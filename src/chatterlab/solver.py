"""Switching-time optimization of the TV-regularized double-integrator problem.

Candidates are alternating bang-bang controls: an initial sign and one
duration per arc.  The last two durations are always eliminated exactly
through the terminal constraint, so only the leading durations are free.
Each extra switch adds 2 to the total variation, which prices it at
2 * epsilon in the regularized objective; the solver sweeps the switch
count and keeps the cheapest feasible candidate.

For fixed arc count the duration optimum does not depend on epsilon (the
penalty is an additive constant), so a sweep over epsilons can reuse one
optimization per arc count; `regularization_path` exploits that to make the
monotonicity and concavity of the value function exact to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import PiecewiseConstantControl, ProblemSpec, di_arc
from .errors import AllStartsInfeasible, Infeasible
from .fuller import FullerSynthesis, default_synthesis, synthesize_chattering
from .truncation import min_time_to_origin, steer_durations

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: duration search interval per free arc, as a multiple of the minimum time
DURATION_CAP_FACTOR = 3.0


def solve_terminal_arcs(state, first_sign: float):
    """Durations of the final two arcs steering `state` to the origin exactly,
    applying first_sign then -first_sign.

    Raises Infeasible when the quadratic elimination has no nonnegative
    solution for that sign (the caller then tries the opposite sign).
    """
    if state[0] == 0.0 and state[1] == 0.0:
        raise ValueError("state must differ from the origin")
    if first_sign not in (-1.0, 1.0):
        raise ValueError("first_sign must be -1 or +1")
    pair = steer_durations(state, first_sign)
    if pair is None:
        raise Infeasible(f"no terminal pair from {state} with sign {first_sign:+.0f}")
    return pair


def _collapsed_tv(durations):
    """Total variation of an alternating unit bang-bang control once its
    zero-length arcs drop out: consecutive kept arcs an odd number of places
    apart carry opposite signs and jump by 2.  Works on float durations and
    elementwise on equally shaped numpy grids."""
    acc = 0.0
    last = -1  # index of the last kept arc
    for i, d in enumerate(durations):
        kept = d > 0.0
        acc = acc + 2.0 * (kept & (last >= 0) & ((i - last) % 2 == 1))
        last = last + (i - last) * kept
    return acc


def _better(value: float, n: int, best) -> bool:
    """Selection order of (value, switch count, ...) entries: a lower value
    by more than 1e-12 wins, and within 1e-12 the lower switch count."""
    return best is None or value < best[0] - 1e-12 \
        or (abs(value - best[0]) <= 1e-12 and n < best[1])


@dataclass(frozen=True)
class BangBangCandidate:
    """Alternating bang-bang candidate: initial sign plus one duration per
    arc (terminal two solved exactly), with its evaluated costs."""

    initial_sign: float
    durations: tuple[float, ...]
    lagrangian: float
    tv: float
    terminal_residual: float

    @property
    def n_switches(self) -> int:
        return len(self.durations) - 1

    @property
    def total_time(self) -> float:
        return sum(self.durations)

    def value(self, epsilon: float) -> float:
        return self.lagrangian + epsilon * self.tv

    def control(self) -> PiecewiseConstantControl:
        bp = [0.0]
        vals = []
        u = self.initial_sign
        for d in self.durations:
            if d > 0.0:
                bp.append(bp[-1] + d)
                vals.append(u)
            u = -u
        if not vals:
            raise ValueError("candidate has no positive-duration arc")
        return PiecewiseConstantControl(tuple(bp), tuple(vals))


def _evaluate(x0, sign: float, free, equibound: float):
    """Cost data of the candidate with the given free durations, or None when
    the terminal solve fails, a duration is negative, or the equibound is
    violated.  Returns (lagrangian, tv, durations, residual, sup, total_t)."""
    x1, x2 = x0
    cost = 0.0
    sup = 0.0
    total = 0.0
    u = sign
    for d in free:
        if d < 0.0:
            return None
        e1, e2, c, vertex = di_arc(x1, x2, u, d)
        cost += c
        sup = max(sup, abs(x1), abs(x2), abs(e1), abs(e2), vertex)
        x1, x2 = e1, e2
        total += d
        u = -u
    if x1 == 0.0 and x2 == 0.0:
        pair = (0.0, 0.0)
    else:
        pair = steer_durations((x1, x2), u)
        if pair is None:
            return None
    for d in pair:
        e1, e2, c, vertex = di_arc(x1, x2, u, d)
        cost += c
        sup = max(sup, abs(x1), abs(x2), abs(e1), abs(e2), vertex)
        x1, x2 = e1, e2
        u = -u
    total += pair[0] + pair[1]
    if total + sup > equibound:
        return None
    durations = tuple(free) + pair
    return (cost, _collapsed_tv(durations), durations,
            math.hypot(x1, x2), sup, total)


def _golden(fun, lo: float, hi: float, xtol: float):
    h = hi - lo
    a = lo + _INVPHI2 * h
    b = lo + _INVPHI * h
    fa, fb = fun(a), fun(b)
    while h > xtol:
        if fa <= fb:
            hi = b
            b, fb = a, fa
            h = hi - lo
            a = lo + _INVPHI2 * h
            fa = fun(a)
        else:
            lo = a
            a, fa = b, fb
            h = hi - lo
            b = lo + _INVPHI * h
            fb = fun(b)
    return (a, fa) if fa <= fb else (b, fb)


def _coordinate_descent(objective, theta: list, val: float, *, cap: float,
                        scan, half_width: float, xtol: float, rtol: float,
                        max_passes: int, trace: list) -> float:
    """Cyclic coordinate descent on the free durations `theta` (updated in
    place) from objective value `val`; returns the final value.

    Per coordinate, the best of the current point and the `scan` points
    centres a golden-section search of half-width `half_width`, clipped to
    [0, cap]; a strictly better point is accepted and its value appended to
    `trace`.  Passes stop once one gains less than rtol * (1 + |value|).
    """
    for _ in range(max_passes):
        prev = val
        for j in range(len(theta)):
            def along(t, j=j):
                probe = list(theta)
                probe[j] = t
                return objective(probe)[0]

            cand_t, cand_f = theta[j], val
            for t in scan:
                f = along(t)
                if f < cand_f:
                    cand_t, cand_f = t, f
            lo = max(0.0, cand_t - half_width)
            hi = min(cap, cand_t + half_width)
            g_t, g_f = _golden(along, lo, hi, xtol)
            if g_f < cand_f:
                cand_t, cand_f = g_t, g_f
            if cand_f < val:
                theta[j] = cand_t
                val = cand_f
                trace.append(val)
        if not val < prev - rtol * (1.0 + abs(prev)):
            break
    return val


def _objective(spec: ProblemSpec, sign: float, epsilon: float):
    """Regularized value of the candidate with the given free durations,
    paired with its _evaluate data; (inf, None) when infeasible."""
    x0, equibound = spec.x0, spec.equibound

    def objective(free):
        res = _evaluate(x0, sign, free, equibound)
        if res is None:
            return math.inf, None
        return res[0] + epsilon * res[1], res

    return objective


def _candidate(sign: float, res) -> BangBangCandidate:
    return BangBangCandidate(sign, res[2], res[0], res[1], res[3])


def _build_starts(n_free: int, x0, synth: FullerSynthesis, seed: int, cap: float,
                  extra_starts):
    """Eight multistarts: the chattering prefix, a uniform split, two
    geometric ladders at the synthesis contraction ratio, a sign-flip seed
    (vanishing first arc, then the prefix), and seeded jitters."""
    t_min = min_time_to_origin(x0)
    rho = synth.rho
    control, _ = synthesize_chattering(x0, synth)
    fuller = [control.breakpoints[i + 1] - control.breakpoints[i]
              for i in range(control.n_arcs)]

    def geometric(first):
        return [first * rho ** k for k in range(n_free)]

    def pad(base):
        out = list(base[:n_free])
        while len(out) < n_free:
            out.append((out[-1] if out else t_min / (n_free + 2)) * rho)
        return out

    ladder_scale = t_min * (1.0 - rho) / (1.0 - rho ** (n_free + 2))
    starts = [
        pad(fuller),
        [t_min / (n_free + 2)] * n_free,
        geometric(ladder_scale),
        pad([1e-9 * t_min] + fuller),
    ]
    rng = np.random.default_rng(seed)
    for base in list(starts):
        jitter = np.exp(0.35 * rng.standard_normal(n_free))
        starts.append([d * j for d, j in zip(base, jitter)])
    for warm in extra_starts:
        starts.append(pad(list(warm)))
    # plain floats: numpy scalars would slow every evaluation several-fold
    return [[float(min(max(d, 0.0), cap)) for d in s] for s in starts]


def optimize_durations(n_switches: int, sign: float, epsilon: float,
                       spec: ProblemSpec, *, synth: FullerSynthesis | None = None,
                       seed: int = 0, extra_starts=(), trace: list | None = None,
                       max_passes: int = 60) -> BangBangCandidate:
    """Best alternating bang-bang candidate with the given switch count and
    initial sign, by multistart coordinate descent with golden-section line
    searches; the terminal two durations are eliminated exactly at every
    evaluation.

    Passing a list as `trace` records, per start, the objective after every
    accepted improvement (one weakly decreasing sublist per feasible start).
    Raises AllStartsInfeasible when no start yields a feasible candidate.
    """
    if n_switches < 1:
        raise ValueError("need at least one switch")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    sign = float(sign)
    if sign not in (-1.0, 1.0):
        raise ValueError("sign must be -1 or +1")
    synth = synth or default_synthesis()
    x0 = spec.x0
    cap = DURATION_CAP_FACTOR * min_time_to_origin(x0)
    n_free = n_switches - 1
    objective = _objective(spec, sign, epsilon)

    if n_free == 0:
        val, res = objective(())
        if res is None:
            raise AllStartsInfeasible(f"sign {sign:+.0f} cannot reach the origin")
        if trace is not None:
            trace.append([val])
        return _candidate(sign, res)

    best_val = math.inf
    best_res = None
    scan = [cap * k / 16.0 for k in range(17)]
    xtol = 1e-11 * (1.0 + cap)
    for theta0 in _build_starts(n_free, x0, synth, seed, cap, extra_starts):
        theta = list(theta0)
        val = objective(theta)[0]
        run_trace = []
        if val < math.inf:
            run_trace.append(val)
        val = _coordinate_descent(
            objective, theta, val, cap=cap, scan=scan, half_width=cap / 16.0,
            xtol=xtol, rtol=1e-14, max_passes=max_passes, trace=run_trace)
        if trace is not None and run_trace:
            trace.append(run_trace)
        if val < best_val:
            best_val = val
            best_res = objective(theta)[1]
    if best_res is None:
        raise AllStartsInfeasible(
            f"all starts infeasible for {n_switches} switches, sign {sign:+.0f}")
    return _candidate(sign, best_res)


def solve_regularized(epsilon: float, spec: ProblemSpec, *, n_max: int = 40,
                      seed: int = 0, synth: FullerSynthesis | None = None,
                      cache: dict | None = None) -> BangBangCandidate:
    """Minimize running cost + epsilon * TV over switch counts and both
    initial signs.

    The sweep stops early once, for two consecutive counts, adding two more
    switches buys less running cost than the 4 * epsilon they charge.  Ties
    between equal-value candidates go to the lower switch count.

    For a fixed switch count the penalty term is an additive constant, so
    each (count, sign) subproblem minimizes the running cost alone and the
    penalty prices candidates only at selection time; collapsed-switch
    candidates are already represented by lower counts.  A dict passed as
    `cache` memoizes these subproblems across calls, which a sweep over
    epsilons uses for warm starting.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    synth = synth or default_synthesis()
    if cache is None:
        cache = {}
    best = None
    best_jl = {}
    streak = 0
    infeasible_streak = 0
    warm: dict[float, tuple] = {}
    for n in range(1, n_max + 1):
        jl_n = math.inf
        for sign in (-1.0, 1.0):
            key = (n, sign)
            if key not in cache:
                extra = (warm[sign],) if sign in warm else ()
                try:
                    cache[key] = optimize_durations(
                        n, sign, 0.0, spec, synth=synth, seed=seed,
                        extra_starts=extra)
                except AllStartsInfeasible:
                    cache[key] = None
            cand = cache[key]
            if cand is None:
                continue
            warm[sign] = cand.durations
            jl_n = min(jl_n, cand.lagrangian)
            value = cand.value(epsilon)
            if _better(value, n, best):
                best = (value, n, cand)
        if math.isfinite(jl_n):
            best_jl[n] = jl_n
            infeasible_streak = 0
        elif best is None:
            # nothing feasible yet and this count failed too; a few such
            # counts in a row means the problem itself is inadmissible
            infeasible_streak += 1
            if infeasible_streak >= 3:
                raise AllStartsInfeasible(
                    "no feasible candidate for any switch count")
        if n >= 3 and n in best_jl and (n - 2) in best_jl:
            if best_jl[n - 2] - best_jl[n] < 4.0 * epsilon:
                streak += 1
            else:
                streak = 0
            if streak >= 2:
                break
    if best is None:
        raise AllStartsInfeasible("no feasible candidate for any switch count")
    return best[2]


def _vector_eval(x0, sign: float, free_grids, equibound: float):
    """Vectorized running cost and collapsed total variation of candidates
    over a grid of free durations; infeasible entries come back as +inf."""
    x1 = np.full(free_grids[0].shape, x0[0], dtype=float)
    x2 = np.full(free_grids[0].shape, x0[1], dtype=float)
    cost = np.zeros_like(x1)
    sup = np.maximum(np.abs(x1), np.abs(x2))
    total = np.zeros_like(x1)
    u = sign
    for d in free_grids:
        x1, x2, c, vertex = di_arc(x1, x2, u, d)
        cost += c
        sup = np.maximum(sup, np.maximum(np.maximum(np.abs(x1), np.abs(x2)), vertex))
        total += d
        u = -u
    disc = 0.5 * x2 * x2 - u * x1
    feasible = disc >= 0.0
    root = np.sqrt(np.where(feasible, disc, 0.0))
    a = -u * x2 + root
    feasible &= a >= 0.0
    a = np.where(feasible, a, 0.0)
    b = np.where(feasible, root, 0.0)
    for d in (a, b):
        x1, x2, c, vertex = di_arc(x1, x2, u, d)
        cost += c
        sup = np.maximum(sup, np.maximum(np.maximum(np.abs(x1), np.abs(x2)), vertex))
        u = -u
    total += a + b
    feasible &= total + sup <= equibound
    tv_grid = _collapsed_tv(list(free_grids) + [a, b])
    return np.where(feasible, cost, np.inf), tv_grid


def brute_force_oracle(n_switches: int, sign: float, epsilon: float,
                       spec: ProblemSpec, resolution: float = 1e-3) -> BangBangCandidate:
    """Exhaustive grid search over the free durations (switch count <= 3),
    terminal arcs eliminated exactly, then one local refinement pass around
    the best cell.  Serves as the independent optimality oracle.
    """
    if n_switches > 3:
        raise ValueError("the oracle covers at most 3 switches")
    if n_switches < 1:
        raise ValueError("need at least one switch")
    sign = float(sign)
    x0 = spec.x0
    cap = DURATION_CAP_FACTOR * min_time_to_origin(x0)
    cells = max(2, int(round(1.0 / resolution)))
    axis = np.linspace(0.0, cap, cells + 1)
    n_free = n_switches - 1
    objective = _objective(spec, sign, epsilon)

    if n_free == 0:
        theta = []
    else:
        grids = np.meshgrid(*([axis] * n_free), indexing="ij")
        cost, tv_grid = _vector_eval(x0, sign, grids, spec.equibound)
        value = cost + epsilon * tv_grid
        flat = int(np.argmin(value))
        if not np.isfinite(value.flat[flat]):
            raise AllStartsInfeasible(
                f"no feasible grid cell for sign {sign:+.0f}")
        idx = np.unravel_index(flat, value.shape)
        theta = [float(axis[i]) for i in idx]
    # local refinement around the best cell: coordinate golden sections,
    # iterated to convergence inside the one-cell trust region
    _coordinate_descent(objective, theta, objective(theta)[0], cap=cap, scan=(),
                        half_width=cap / cells, xtol=1e-12 * (1.0 + cap),
                        rtol=1e-15, max_passes=8, trace=[])
    res = objective(theta)[1]
    if res is None:
        raise AllStartsInfeasible(f"sign {sign:+.0f} infeasible")
    return _candidate(sign, res)


@dataclass(frozen=True)
class PathPoint:
    epsilon: float
    n_switches: int
    lagrangian: float
    tv: float
    value: float
    candidate: BangBangCandidate


@dataclass(frozen=True)
class SolutionPath:
    """Per-epsilon solutions of the regularized problem, largest epsilon
    first.  The value function is a pointwise minimum of affine functions of
    epsilon, hence concave and nondecreasing."""

    records: tuple[PathPoint, ...]

    def laws(self, tol: float = 1e-9) -> dict:
        """Monotonicity and concavity checks along the path (epsilon
        ascending): value nondecreasing and concave via divided differences,
        total variation nonincreasing, running cost nondecreasing."""
        recs = sorted(self.records, key=lambda r: r.epsilon)
        eps = [r.epsilon for r in recs]
        val = [r.value for r in recs]
        tvs = [r.tv for r in recs]
        jls = [r.lagrangian for r in recs]
        slopes = [(v2 - v1) / (e2 - e1)
                  for (e1, v1), (e2, v2) in zip(zip(eps, val), zip(eps[1:], val[1:]))]
        return {
            "value_nondecreasing": all(b >= a - tol for a, b in zip(val, val[1:])),
            "value_concave": all(s2 <= s1 + tol for s1, s2 in zip(slopes, slopes[1:])),
            "tv_nonincreasing": all(b <= a + tol for a, b in zip(tvs, tvs[1:])),
            "lagrangian_nondecreasing": all(b >= a - tol for a, b in zip(jls, jls[1:])),
        }


def regularization_path(epsilons, spec: ProblemSpec, *, n_max: int = 40,
                        seed: int = 0,
                        synth: FullerSynthesis | None = None) -> SolutionPath:
    """Solve the regularized problem over a descending grid of penalty
    weights, one solve per weight with memoized per-switch-count optima.

    After the sweep each point is re-selected as the argmin over every
    optimized (count, sign) pair, so all points minimize over the identical
    candidate table and the exchange inequalities hold to roundoff.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("epsilon grid must be nonempty")
    if any(e <= 0.0 for e in eps):
        raise ValueError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be sorted descending")
    synth = synth or default_synthesis()
    cache: dict = {}
    for e in eps:
        solve_regularized(e, spec, n_max=n_max, seed=seed, synth=synth, cache=cache)
    table = [(n, cand) for (n, _sign), cand in sorted(
        cache.items(), key=lambda kv: (kv[0][0], kv[0][1])) if cand is not None]
    points = []
    for e in eps:
        best = None
        for n, cand in table:
            v = cand.value(e)
            if _better(v, n, best):
                best = (v, n, cand)
        value, n, cand = best
        points.append(PathPoint(epsilon=e, n_switches=n, lagrangian=cand.lagrangian,
                                tv=cand.tv, value=value, candidate=cand))
    return SolutionPath(tuple(points))
