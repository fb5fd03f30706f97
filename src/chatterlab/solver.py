"""Switching-time optimization of the TV-regularized double-integrator problem.

Candidates are alternating bang-bang controls: an initial sign and one
duration per arc.  The last two durations are always eliminated exactly
through the terminal constraint, so only the leading durations are free.
Each extra switch adds 2 to the total variation, which prices it at
2 * epsilon in the regularized objective.

For a fixed arc count the penalty is an additive constant, so each
(count, sign) subproblem is solved once, at epsilon = 0, into one table
that serves every epsilon (`_grow`), grown by count on demand and kept for
the last (spec, synthesis) asked for.  A control whose arcs collapse is a
lower-TV candidate of the same count: a zero first arc turns a (n - 1, -s)
candidate into a (n, s) one, and a zero pair after the free arcs a
(n - 2, s) one, each folding to the same floats.  So the regularized
optimum of (n, s) is the recursion

    E(n, s) = min(J(n, s) + epsilon * TV, E(n - 1, -s), E(n - 2, s)),

J the table's running cost (`optimize_durations`).  A lower count also
embeds through a trailing zero arc, but only where the terminal solve
returns an exact 0, a set of measure zero that the grid oracle cannot
reach either; those embeddings are left out.  `regularization_path`
selects each point from the table, which makes the monotonicity and
concavity of the value function exact to roundoff.

Each entry is found by projected BFGS on the box [0, cap]^m from at most
two deterministic starts (`_grow`): the last optimum of its sign, and one
start in its own sign's phase of Fuller's chattering synthesis (Zelikin &
Borisov, Theory of Chattering Control, 1994), which is the synthesized
prefix for the feedback sign at x0 and a zero first arc ahead of the
(n - 1, -s) optimum for the other sign.  Arcs are polynomial (`di_arc`) and
the terminal pair is algebraic (`steer_durations`), so `_objective`
returns the exact gradient of the eliminated running cost from one
forward fold and one adjoint pass, the switching-time gradient of
Egerstedt, Wardi & Axelsson (IEEE TAC 51(1), 2006) and Xu & Antsaklis
(IEEE TAC 49(1), 2004).  Zero-length arcs are active bounds of the box,
and infeasible points enter only through value comparisons in the line
search.  Each entry reports its projected-gradient norm as a first-order
certificate (`DescentReport`).

`brute_force_oracle` scores a numpy grid (numpy is imported by the three
oracle functions only, so no other caller loads it) and refines by coordinate
golden-section descent on `_evaluate`, independent of the quasi-Newton
solver it checks.  The grid's free durations are broadcast
axes, so each arc is folded once per distinct prefix, and only the cells
the terminal solve accepts get the terminal arcs, the equibound test and
the collapsed TV.  The grid is also pruned by cost, branch-and-bound style
(Land & Doig, Econometrica 28(3), 1960): every arc's running cost and
epsilon * TV are nonnegative, so a cell's free-arc cost is a lower bound on
its value, and cells whose bound is above the best value so far are never
scored (`_grid_argmin`).  The pruned cells could neither be nor tie the
grid minimum, so the oracle's result is the unpruned grid's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, cycle

from .controls import PiecewiseConstantControl, ProblemSpec, di_arc, di_arc_cost_grad
from .errors import AllStartsInfeasible, ConfigError
from .fuller import FullerSynthesis, chattering_reference, default_synthesis, optimal_cost
from .truncation import min_time_to_origin, steer_durations, steer_floor

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: duration search interval per free arc, as a multiple of the minimum time
DURATION_CAP_FACTOR = 3.0

#: grid cells the oracle scores per numpy pass
_ORACLE_BLOCK_CELLS = 1 << 14

#: quasi-Newton steps per start of a subproblem's descent
_MAX_ITERATIONS = 60

#: largest switch count a regularization path sweeps (a guard: paths stop on J*)
MAX_SWITCHES = 40


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


def _tie_band(value: float) -> float:
    """Values closer than this to `value` are ties: 1e-12 relative, and
    1e-12 absolute below 1, so the band scales with the problem's values."""
    return 1e-12 * max(1.0, abs(value))


def _better(value: float, n: int, best) -> bool:
    """Selection order of (value, switch count, ...) entries: a lower value
    by more than the tie band of best's value wins, and within it the lower
    switch count."""
    if best is None:
        return True
    band = _tie_band(best[0])
    return value < best[0] - band or (abs(value - best[0]) <= band and n < best[1])


@dataclass(frozen=True)
class DescentReport:
    """What the solve of one (count, sign) table entry did: the infinity
    norm of the projected gradient of the running cost at the returned
    durations (its first-order certificate; None when no start was
    feasible), the objective evaluations (one per start, one per lifted
    start when no start was feasible, and the descents'), and the starts
    the terminal solve accepted, which alone are descended from."""

    pg_norm: float | None
    evaluations: int
    feasible_starts: int


@dataclass(frozen=True)
class BangBangCandidate:
    """Alternating bang-bang candidate: initial sign plus one duration per
    arc (terminal two solved exactly), with its evaluated costs and, from
    the solver, the report of its (count, sign) table entry's solve."""

    initial_sign: float
    durations: tuple[float, ...]
    lagrangian: float
    tv: float
    terminal_residual: float
    report: DescentReport | None = field(default=None, compare=False)

    @property
    def n_switches(self) -> int:
        return len(self.durations) - 1

    def value(self, epsilon: float) -> float:
        return self.lagrangian + epsilon * self.tv

    def control(self) -> PiecewiseConstantControl:
        u = self.initial_sign
        control = PiecewiseConstantControl.from_ends(accumulate(self.durations),
                                                     cycle((u, -u)))
        if control is None:
            raise ValueError("candidate has no positive-duration arc")
        return control


def _fold(state, durations, arcs=None):
    """Fold arcs of nonnegative durations through `di_arc` into the running
    sums `state` = (x1, x2, control sign, cost, sup, elapsed time), each in
    left-to-right order.  Folding a prefix once and its continuations later
    gives the same floats as folding the whole list.  A list `arcs`
    receives (x1, x2, u, d, end x1, end x2) of each arc."""
    x1, x2, u, cost, sup, total = state
    for d in durations:
        e1, e2, c, vertex = di_arc(x1, x2, u, d)
        cost += c
        sup = max(sup, abs(x1), abs(x2), abs(e1), abs(e2), vertex)
        if arcs is not None:
            arcs.append((x1, x2, u, d, e1, e2))
        x1, x2 = e1, e2
        total += d
        u = -u
    return x1, x2, u, cost, sup, total


def _close(state, equibound, arcs=None):
    """Append the terminal pair to a fold: (cost, pair, end x1, end x2, sup,
    total), or None when the terminal solve fails or the equibound is
    violated.  A pair of zeros away from the origin fails: it is the
    solve's rounding band taking a wrong-sign steer of a state below 1e-12,
    which it leaves where it is.  A list `arcs` receives the pair's two
    `_fold` records."""
    x1, x2, u = state[:3]
    if x1 == 0.0 and x2 == 0.0:
        pair = (0.0, 0.0)
    else:
        pair = steer_durations((x1, x2), u)
        if pair is None or pair == (0.0, 0.0):
            return None
    x1, x2, _, cost, sup, total = _fold(state, pair, arcs)
    if total + sup > equibound:
        return None
    return cost, pair, x1, x2, sup, total


def _evaluate(x0, sign: float, free, equibound: float):
    """Cost data of the candidate with the given free durations (none
    negative), or None when the terminal solve fails or the equibound is
    violated.  Returns (lagrangian, tv, durations, residual, sup, total_t)."""
    end = _close(_fold((x0[0], x0[1], sign, 0.0, 0.0, 0.0), free), equibound)
    if end is None:
        return None
    cost, pair, x1, x2, sup, total = end
    durations = tuple(free) + pair
    return (cost, _collapsed_tv(durations), durations,
            math.hypot(x1, x2), sup, total)


def _value(res, epsilon: float) -> float:
    """Regularized value of _evaluate data; inf when infeasible."""
    return math.inf if res is None else res[0] + epsilon * res[1]


def _objective(x0, sign: float, equibound: float):
    """Objective of the quasi-Newton descent: `f(theta)` returns the
    running cost of the free durations `theta` (none negative) and its
    exact gradient, or (inf, None) when infeasible.

    One fold through `di_arc` records the arcs, the terminal pair's too.  The
    pair's cost is differentiated in the state z it starts from through the
    closed form of `steer_durations` (a = -u z2 + r, b = r, r = sqrt(z2^2/2 -
    u z1)), and one adjoint pass carries that gradient back through the free
    arcs, the switching-time gradient.  The value equals `_evaluate`'s
    running cost bit for bit.
    """
    start = (x0[0], x0[1], sign, 0.0, 0.0, 0.0)

    def f(theta):
        arcs = []
        end = _close(_fold(start, theta, arcs), equibound, arcs)
        if end is None:
            return math.inf, None
        (z1, z2, u, a, y1, y2), (_, _, _, b, w1, _) = arcs[-2:]
        l1, l2 = di_arc_cost_grad(y1, y2, -u, b)
        cost_a = y1 * y1 + l1 * y2 + l2 * u  # pair cost's derivative in a
        c1, c2 = di_arc_cost_grad(z1, z2, u, a)
        l1, l2 = c1 + l1, c2 + a * l1 + l2 - u * cost_a
        if b > 0.0:  # dr/dz = (-u, z2) / 2r; its terms vanish as r -> 0
            k = (cost_a + w1 * w1) / (2.0 * b)
            l1, l2 = l1 - u * k, l2 + z2 * k
        grad = [0.0] * len(theta)
        for i in range(len(theta) - 1, -1, -1):
            x1, x2, u, d, e1, e2 = arcs[i]
            grad[i] = e1 * e1 + l1 * e2 + l2 * u
            c1, c2 = di_arc_cost_grad(x1, x2, u, d)
            l1, l2 = c1 + l1, c2 + d * l1 + l2
        return end[0], grad

    return f


def _projected_gradient_norm(theta, grad, cap: float) -> float:
    """Infinity norm of theta - P(theta - grad), P the projection onto
    [0, cap]^m: zero exactly at first-order stationary points of the box."""
    return max((abs(t - min(max(t - g, 0.0), cap)) for t, g in zip(theta, grad)),
               default=0.0)


def _projected_bfgs(f, theta: list, val: float, grad: list, cap: float) -> tuple:
    """Projected BFGS on the box [0, cap]^m from the feasible point `theta`
    (updated in place) with value `val` and gradient `grad`; returns the
    final (value, gradient).

    Coordinates at a bound whose gradient points out of the box are held;
    the others move along -H g, H the dense inverse-Hessian estimate (a
    scaled identity until the first curvature pair).  A trial is the step
    projected onto the box; the step shrinks by safeguarded quadratic
    interpolation, or halves on an infeasible trial, until the Armijo
    condition holds along the projected path.  Values decide acceptance, so
    infeasible points are rejected trials, not gradient information.

    When a direction yields no step whose first-order gain is above the
    value's rounding, 1e-16 * |value|, H is reset, and the descent ends
    when the reset direction fails too.  It also ends on two full
    quasi-Newton steps in a row that each gain less than 1e-14 * |value|
    (one such step can stop short in a flat valley H has not yet seen); on
    a projected gradient whose first-order gain across the whole box is
    below that; or after _MAX_ITERATIONS steps.  Tolerances relative to
    |value| keep the stop invariant under the problem's scaling law.
    """
    m = len(theta)
    h = None  # inverse-Hessian rows; None stands for gamma times the identity
    gamma = None
    small = 0
    for _ in range(_MAX_ITERATIONS):
        tol = 1e-14 * abs(val)
        q = [0.0 if (t <= 0.0 and g > 0.0) or (t >= cap and g < 0.0) else g
             for t, g in zip(theta, grad)]
        q_max = max(map(abs, q))
        if q_max * cap <= tol:
            break
        if h is None:
            scale = gamma if gamma is not None else 1e-2 * cap / q_max
            step = [-scale * v for v in q]
        else:
            step = [-sum(a * b for a, b in zip(row, q)) if qi else 0.0
                    for row, qi in zip(h, q)]
        alpha = 1.0
        while True:
            trial = [min(max(t + alpha * s, 0.0), cap) for t, s in zip(theta, step)]
            moved = [b - a for a, b in zip(theta, trial)]
            slope = sum(g * d for g, d in zip(grad, moved))
            if not -slope > 1e-16 * abs(val):  # NaN ends the search too
                trial = None
                break
            new_val, new_grad = f(trial)
            if new_val <= val + 1e-4 * slope:
                break
            if new_grad is None:
                alpha *= 0.5
            else:
                alpha *= min(0.5, max(0.1, -slope / (2.0 * (new_val - val - slope))))
        if trial is None:
            if h is None:
                break
            h = None
            continue
        y = [b - a for a, b in zip(grad, new_grad)]
        sy = sum(a * b for a, b in zip(moved, y))
        if sy > 0.0:
            if h is None:
                gamma = sy / sum(v * v for v in y)
                h = [[gamma if i == k else 0.0 for k in range(m)] for i in range(m)]
            hy = [sum(a * b for a, b in zip(row, y)) for row in h]
            rho = 1.0 / sy
            c = rho * (1.0 + rho * sum(a * b for a, b in zip(y, hy)))
            h = [[hik - rho * (si * hyk + hyi * sk) + c * si * sk
                  for hik, hyk, sk in zip(row, hy, moved)]
                 for row, hyi, si in zip(h, hy, moved)]
        gain = val - new_val
        theta[:] = trial
        val, grad = new_val, new_grad
        small = small + 1 if gain < tol and alpha == 1.0 and h is not None else 0
        if small >= 2:
            break
    return val, grad


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


def _candidate(sign: float, res, report=None) -> BangBangCandidate:
    return BangBangCandidate(sign, res[2], res[0], res[1], res[3], report)


def _build_starts(n_free: int, starts, rho: float, cap: float) -> list:
    """The starts of one subproblem, each padded to n_free durations by a
    geometric tail at the synthesis contraction ratio `rho` and clipped to
    [0, cap]; a longer start is cut to its first n_free.  They are those
    `_grow` decides for a table entry: the start in its own sign's phase,
    and the warm start."""

    def pad(base):
        out = list(base[:n_free])
        while len(out) < n_free:
            out.append(out[-1] * rho)
        return out

    # plain floats: numpy scalars would slow every evaluation several-fold
    return [[float(min(max(d, 0.0), cap)) for d in pad(s)] for s in starts]


def _lift_last(x0, sign: float, theta: list, cap: float) -> None:
    """Raise the last free duration of `theta` (in place) to the least value
    the terminal solve accepts, clipped to `cap`.

    With u the sign of that arc and (x1, x2) the state it starts from, a
    duration t leaves the terminal discriminant (t + u x2)^2 + c with
    c = u x1 - x2^2 / 2, and the first terminal duration t + u x2 + its root.
    So t is accepted for every t when c >= 0, and exactly when
    t >= t_f = -u x2 + sqrt(-c) otherwise.  The 1e-12 relative margin keeps
    rounding at t_f from rejecting the lifted point.
    """
    x1, x2, u = _fold((x0[0], x0[1], sign, 0.0, 0.0, 0.0), theta[:-1])[:3]
    c = u * x1 - 0.5 * x2 * x2
    if c < 0.0:
        t_f = -u * x2 + math.sqrt(-c)
        theta[-1] = min(max(theta[-1], t_f + 1e-12 * (1.0 + t_f)), cap)


def _checked_sign(n_switches: int, sign: float, epsilon: float) -> float:
    """The initial sign of a (count, sign) subproblem at penalty epsilon as a
    float, once the count is an integer of at least 1, the sign -1 or +1 and
    epsilon finite and nonnegative (each test fails on NaN); ValueError
    otherwise."""
    if not (isinstance(n_switches, int) and n_switches >= 1):
        raise ValueError(f"need an integer switch count of at least 1, got {n_switches!r}")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    sign = float(sign)
    if sign not in (-1.0, 1.0):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    return sign


def _solve_subproblem(n_switches: int, sign: float, spec: ProblemSpec, rho: float,
                      starts) -> BangBangCandidate:
    """Least-running-cost alternating bang-bang candidate with the given
    switch count and initial sign, by projected BFGS on the free durations
    from `starts` (`_build_starts`); the terminal two durations are
    eliminated exactly at every evaluation.  Only the starts the terminal
    solve accepts are descended from; when it accepts none, each start's
    last free duration is lifted to the least value it accepts
    (`_lift_last`) and the lifted starts take their place.  The report
    holds the projected-gradient norm at the returned durations, the
    objective evaluations and the feasible starts.  Raises
    AllStartsInfeasible, carrying its evaluation count, when no start
    yields a feasible candidate.
    """
    x0 = spec.x0
    n_free = n_switches - 1

    if n_free == 0:
        res = _evaluate(x0, sign, (), spec.equibound)
        if res is None:
            raise AllStartsInfeasible(f"sign {sign:+.0f} cannot reach the origin",
                                      evaluations=1)
        return _candidate(sign, res, DescentReport(0.0, 1, 1))

    cap = DURATION_CAP_FACTOR * min_time_to_origin(x0)
    objective = _objective(x0, sign, spec.equibound)
    evaluations = feasible = 0
    best_val, best_theta, best_grad = math.inf, None, None

    def counted(theta):
        nonlocal evaluations
        evaluations += 1
        return objective(theta)

    starts = _build_starts(n_free, starts, rho, cap)
    runs = [(theta, *counted(theta)) for theta in starts]
    if all(grad is None for _, _, grad in runs):
        for theta in starts:
            _lift_last(x0, sign, theta, cap)
        runs = [(theta, *counted(theta)) for theta in starts]
    for theta, val, grad in runs:
        if grad is None:
            continue
        val, grad = _projected_bfgs(counted, theta, val, grad, cap)
        feasible += 1
        if val < best_val:
            best_val, best_theta, best_grad = val, list(theta), grad
    if best_theta is None:
        raise AllStartsInfeasible(
            f"all starts infeasible for {n_switches} switches, sign {sign:+.0f}",
            evaluations=evaluations)
    report = DescentReport(_projected_gradient_norm(best_theta, best_grad, cap),
                           evaluations, feasible)
    return _candidate(sign, _evaluate(x0, sign, best_theta, spec.equibound), report)


@lru_cache(maxsize=1)
def _table(spec: ProblemSpec, synth: FullerSynthesis) -> dict:
    """The epsilon = 0 table of the last spec and synthesis asked for, as
    `_grow` fills it: (count, sign) -> (candidate or None, DescentReport)."""
    return {}


def _grow(spec: ProblemSpec, synth: FullerSynthesis, n_switches: int) -> dict:
    """The table of `spec` and `synth` with every count up to n_switches
    solved, counts ascending and sign -1 before +1.  Entry (n, s) starts
    from one point in its own sign's phase of the chattering control
    synthesized from x0, and from the last optimum of its sign (the warm
    start).  The feedback sign at x0 starts from the control's durations,
    its prefix; the other sign from a zero first arc ahead of the free
    durations of the (n - 1, -s) optimum, that optimum's exact flip, or
    ahead of the prefix where (n - 1, -s) is infeasible.
    """
    table = _table(spec, synth)
    reference = chattering_reference(spec.x0, synth)[0]
    bp = reference.breakpoints
    prefix = tuple(b - a for a, b in zip(bp, bp[1:]))
    for n in range(len(table) // 2 + 1, n_switches + 1):
        for sign in (-1.0, 1.0):
            if n == 1:
                starts = []  # no free duration
            elif sign == reference.values[0]:
                starts = [prefix]
            else:
                flip = table[n - 1, -sign][0]
                starts = [(0.0,) + (prefix if flip is None else flip.durations[:-2])]
            warm = next((table[m, sign][0] for m in range(n - 1, 0, -1)
                         if table[m, sign][0] is not None), None)
            if warm is not None:
                starts.append(warm.durations)
            try:
                cand = _solve_subproblem(n, sign, spec, synth.rho, starts)
            except AllStartsInfeasible as exc:
                table[n, sign] = (None, DescentReport(None, exc.evaluations, 0))
                continue
            table[n, sign] = (cand, cand.report)
    return table


def optimize_durations(n_switches: int, sign: float, epsilon: float,
                       spec: ProblemSpec, *,
                       synth: FullerSynthesis | None = None) -> BangBangCandidate:
    """Best alternating bang-bang candidate with the given switch count and
    initial sign at penalty epsilon, zero-length arcs included: the
    recursion E(n, s) of the module docstring over the table grown to
    count n (`_grow`).  E(n - 1, -s) enters behind a zero first arc and
    E(n - 2, s) with a zero pair ahead of its terminal pair, which the
    terminal solve gives again from the same state and sign, so `_evaluate`
    of the free durations returns the candidate's floats.  Within the tie
    band (`_better`) the (n, s) entry wins, then the flip.  The table is
    kept, so a repeated call solves nothing; the report is the (n, s)
    entry's.  Raises AllStartsInfeasible, carrying that entry's evaluation
    count, when no term is feasible.
    """
    sign = _checked_sign(n_switches, sign, epsilon)
    table = _grow(spec, synth or default_synthesis(), n_switches)
    best = {}  # (count, sign) -> E(count, sign), a candidate of that count and sign
    for n in range(1, n_switches + 1):
        for s in (-1.0, 1.0):
            flip, pair = best.get((n - 1, -s)), best.get((n - 2, s))
            terms = (table[n, s][0],
                     flip and replace(flip, initial_sign=s, durations=(0.0,) + flip.durations),
                     pair and replace(pair, durations=pair.durations[:-2] + (0.0, 0.0)
                                      + pair.durations[-2:]))
            choice = None
            for rank, cand in enumerate(terms):
                if cand is not None and _better(cand.value(epsilon), rank, choice):
                    choice = (cand.value(epsilon), rank, cand)
            if choice is not None:
                best[n, s] = choice[2]
    entry_report = table[n_switches, sign][1]
    if (n_switches, sign) not in best:
        raise AllStartsInfeasible(
            f"no feasible candidate for {n_switches} switches, sign {sign:+.0f}",
            evaluations=entry_report.evaluations)
    return replace(best[n_switches, sign], report=entry_report)


def _vector_eval(x0, sign: float, free_grids, equibound: float, bound: float = math.inf):
    """Vectorized running cost and collapsed total variation of candidates
    over a grid of free durations, the grids broadcasting to the grid's
    shape.  Infeasible entries come back with cost +inf, and those the
    terminal solve rejects with TV 0, so cost + epsilon * TV is never NaN.

    Each free arc is folded on the shape its inputs broadcast to, so a
    duration that varies along one axis only is folded once per value.  The
    terminal solve runs on the whole grid; the terminal arcs, the equibound
    test and the collapsed TV only on the cells it accepts whose free-arc
    cost is at most `bound`, the others coming back as infeasible.  Every
    feasible cell gets the floats `_evaluate` gives it, operation for
    operation.
    """
    import numpy as np

    x1, x2 = x0
    cost = total = 0.0
    sup = max(abs(x1), abs(x2))
    u = sign
    for d in free_grids:
        x1, x2, c, vertex = di_arc(x1, x2, u, d)
        cost = cost + c
        sup = np.maximum(sup, np.maximum(np.maximum(np.abs(x1), np.abs(x2)), vertex))
        total = total + d
        u = -u
    shape = np.broadcast_shapes(*(np.shape(d) for d in free_grids))
    root = 0.5 * x2 * x2 - u * x1  # the discriminant until its root is taken
    feasible = (root >= 0.0) & (cost <= bound)
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    a = -u * x2 + root
    feasible &= a > steer_floor(x2, root)  # as in steer_durations
    cells = np.flatnonzero(np.broadcast_to(feasible, shape))

    def gather(v):
        return np.take(np.broadcast_to(v, shape), cells)

    x1, x2, cost, sup, total, a, root = map(gather, (x1, x2, cost, sup, total, a, root))
    a = np.maximum(a, 0.0)
    for d in (a, root):
        x1, x2, c, vertex = di_arc(x1, x2, u, d)
        cost += c
        sup = np.maximum(sup, np.maximum(np.maximum(np.abs(x1), np.abs(x2)), vertex))
        total += d
        u = -u
    tv = _collapsed_tv([gather(d) for d in free_grids] + [a, root])
    cost_grid = np.full(shape, np.inf)
    cost_grid.flat[cells] = np.where(total + sup <= equibound, cost, np.inf)
    tv_grid = np.zeros(shape)
    tv_grid.flat[cells] = tv
    return cost_grid, tv_grid


def _grid_argmin(x0, sign: float, epsilon: float, axis, n_free: int,
                 equibound: float):
    """Free durations of the grid cell (every duration on `axis`) with the
    least regularized value, the first in row-major order among equals, or
    None when no cell is feasible.

    Free duration k is `axis` laid along grid dimension k, so `_vector_eval`
    folds each arc once per distinct prefix.  The grid is scored in blocks
    of leading-axis rows of about _ORACLE_BLOCK_CELLS cells, which bounds
    its memory; a strict < across blocks keeps the first minimum of the
    whole grid, as np.argmin would.

    Every arc's running cost is nonnegative and epsilon * TV is too, so a
    cell's value is at least the cost of its free arcs, and that is at
    least the cost of its first arc, which depends on its row alone.  A
    cell whose free-arc cost is above the running best is therefore above
    it in value too, and can be neither the minimum nor tied with it: only
    the other cells get the terminal solve, the equibound test and the
    collapsed TV (`_vector_eval`'s `bound`), and the rows from the first one
    whose suffix minimum of first-arc costs is above the best are not scored
    at all.  A relative margin of 1e-9 on the best covers the rounding of
    the sums, so the result is the unpruned grid's cell bit for bit.
    """
    import numpy as np

    rows = max(1, _ORACLE_BLOCK_CELLS // axis.size ** (n_free - 1))
    dims = [(1,) * k + (-1,) + (1,) * (n_free - 1 - k) for k in range(n_free)]
    tail = [axis.reshape(dim) for dim in dims[1:]]
    # least first-arc cost of the rows from each one on: nondecreasing
    first = di_arc(x0[0], x0[1], sign, axis)[2]
    floor = np.minimum.accumulate(first[::-1])[::-1]
    best, theta = math.inf, None
    for r0 in range(0, axis.size, rows):
        bound = best + 1e-9 * abs(best)
        r1 = min(r0 + rows, int(np.searchsorted(floor, bound, side="right")))
        if r1 <= r0:
            break
        lead = axis[r0:r1]
        cost, tv_grid = _vector_eval(x0, sign, [lead.reshape(dims[0])] + tail,
                                     equibound, bound)
        value = cost + epsilon * tv_grid
        flat = int(np.argmin(value))
        if value.flat[flat] < best:
            best = value.flat[flat]
            cell = np.unravel_index(flat, value.shape)
            theta = [float(lead[cell[0]])] + [float(axis[i]) for i in cell[1:]]
    return theta


def brute_force_oracle(n_switches: int, sign: float, epsilon: float,
                       spec: ProblemSpec, resolution: float = 1e-3) -> BangBangCandidate:
    """Exhaustive grid search over the free durations (switch count <= 3),
    terminal arcs eliminated exactly, then one local refinement pass around
    the best cell.  Serves as the independent optimality oracle.

    The grid has round(1 / resolution) cells per free duration on [0, cap].
    Its argmin (`_grid_argmin`) skips the cells whose free arcs alone cost
    more than the best value found so far, which is exact because epsilon
    is checked finite and nonnegative: no skipped cell could be the first
    minimum.  Raises ValueError on a switch count outside 1-3, a sign other
    than -1 or +1, an epsilon that is negative or not finite, or a
    resolution that is not positive and finite or whose reciprocal
    overflows.
    """
    sign = _checked_sign(n_switches, sign, epsilon)
    if n_switches > 3:
        raise ValueError("the oracle covers at most 3 switches")
    if not (0.0 < resolution < math.inf and 1.0 / resolution < math.inf):
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    import numpy as np

    x0 = spec.x0
    cap = DURATION_CAP_FACTOR * min_time_to_origin(x0)
    cells = max(2, int(round(1.0 / resolution)))
    axis = np.linspace(0.0, cap, cells + 1)
    n_free = n_switches - 1

    theta = _grid_argmin(x0, sign, epsilon, axis, n_free, spec.equibound) if n_free else []
    if theta is None:
        raise AllStartsInfeasible(f"no feasible grid cell for sign {sign:+.0f}")
    # local refinement around the best cell: cyclic coordinate golden
    # sections over one cell on each side, clipped to [0, cap], each kept
    # when strictly better; at most 8 passes, stopping once one gains less
    # than 1e-15 (1 + |value|)
    def value(free):
        return _value(_evaluate(x0, sign, free, spec.equibound), epsilon)

    val, half, xtol = value(theta), cap / cells, 1e-12 * (1.0 + cap)
    for _ in range(8):
        prev = val
        for j in range(n_free):
            lo = max(0.0, theta[j] - half)
            hi = min(cap, theta[j] + half)
            before, after = theta[:j], theta[j + 1:]
            g_t, g_f = _golden(lambda t: value(before + [t] + after), lo, hi, xtol)
            if g_f < val:
                theta[j], val = g_t, g_f
        if not val < prev - 1e-15 * (1.0 + abs(prev)):
            break
    res = _evaluate(x0, sign, theta, spec.equibound)
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
class SweepStop:
    """Where a path's switch-count sweep stopped and why: the last count it
    solved, J_floor = J* (`fuller.optimal_cost`), the least J_k - J_floor
    over the counts it solved, 2 * epsilon_min, and `reason`, "j_star_bound"
    when that gap fell below 2 * epsilon_min (within 1e-13 * max(1,
    |J_floor|)) or "max_switches" when the sweep reached MAX_SWITCHES first,
    which only subproblems the solver fails to solve can cause."""

    n_switches: int
    j_floor: float
    min_gap: float
    two_eps_min: float
    reason: str


@dataclass(frozen=True)
class SolutionPath:
    """Per-epsilon solutions of the regularized problem, largest epsilon
    first.  The value function is a pointwise minimum of affine functions of
    epsilon, hence concave and nondecreasing.  `subproblems` holds the
    (count, sign, running cost or None when infeasible, DescentReport) of
    every table entry the path read, counts ascending and sign -1 before
    +1, and `stop` the sweep's end."""

    records: tuple[PathPoint, ...]
    subproblems: tuple = ()
    stop: SweepStop | None = None

    def laws(self) -> dict:
        """Monotonicity and concavity checks along the path (epsilon
        ascending): value nondecreasing, total variation nonincreasing,
        running cost nondecreasing, each to 1e-9, and the value concave as
        the lower envelope of the points' lines, value_i <= L_j + eps_i *
        TV_j for all i, j within the selection's tie band (divided
        differences of the values read rounding at small epsilon as a
        breach)."""
        recs = sorted(self.records, key=lambda r: r.epsilon)
        val = [r.value for r in recs]
        tvs = [r.tv for r in recs]
        jls = [r.lagrangian for r in recs]
        tol = 1e-9
        return {
            "value_nondecreasing": all(b >= a - tol for a, b in zip(val, val[1:])),
            "value_concave": all(
                a.value <= b.lagrangian + a.epsilon * b.tv + _tie_band(a.value)
                for a in recs for b in recs),
            "tv_nonincreasing": all(b <= a + tol for a, b in zip(tvs, tvs[1:])),
            "lagrangian_nondecreasing": all(b >= a - tol for a, b in zip(jls, jls[1:])),
        }


def regularization_path(epsilons, spec: ProblemSpec, *,
                        synth: FullerSynthesis | None = None) -> SolutionPath:
    """Minimize running cost + epsilon * TV over switch counts and both
    initial signs, for each of a descending grid of penalty weights.

    For a fixed switch count the penalty is an additive constant, so the
    path reads the epsilon = 0 table (`_grow`) count by count; candidates
    whose arcs collapse are already represented by lower counts.  The
    counts are read upward once, and the sweep stops after count n once
    some solved count k <= n has J_k - J_floor < 2 * epsilon_min, J_floor =
    J* the closed-form optimal cost (`fuller.optimal_cost`), which no
    admissible control undercuts at any truncation radius.  A count m > n
    that keeps its arcs has value at least J_floor + 2 (n + 1) epsilon,
    above count k's at every epsilon of the grid; a candidate whose arcs
    collapse is a lower count.  The stop's rounding slack, 1e-13 * max(1,
    |J_floor|), is below the tie band.  Each point is then the cheapest
    entry of the one table, ties going to the lower switch count, so the
    exchange inequalities hold to roundoff.  An empty grid, or one not
    positive and strictly descending, raises ConfigError.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ConfigError("epsilon grid must be nonempty")
    if not all(e > 0.0 for e in eps):
        raise ConfigError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be sorted descending")
    synth = synth or default_synthesis()
    j_floor = optimal_cost(spec.x0, synth)
    two_eps_min = 2.0 * eps[-1]
    slack = 1e-13 * max(1.0, abs(j_floor))
    feasible = []  # (count, candidate) of the feasible entries read
    min_gap = math.inf
    for n in range(1, MAX_SWITCHES + 1):
        table = _grow(spec, synth, n)
        for sign in (-1.0, 1.0):
            cand = table[n, sign][0]
            if cand is not None:
                min_gap = min(min_gap, cand.lagrangian - j_floor)
                feasible.append((n, cand))
        if not feasible:
            # no feasible candidate at counts 1-3: the problem itself is
            # inadmissible
            if n >= 3:
                raise AllStartsInfeasible(
                    f"no feasible candidate for switch counts 1-{n}")
        elif min_gap < two_eps_min + slack:
            stop = SweepStop(n, j_floor, min_gap, two_eps_min, "j_star_bound")
            break
    else:
        stop = SweepStop(MAX_SWITCHES, j_floor, min_gap, two_eps_min, "max_switches")
    points = []
    for e in eps:
        best = None
        for n, cand in feasible:
            v = cand.value(e)
            if _better(v, n, best):
                best = (v, n, cand)
        value, n, cand = best
        points.append(PathPoint(epsilon=e, n_switches=n, lagrangian=cand.lagrangian,
                                tv=cand.tv, value=value, candidate=cand))
    reports = tuple((n, sign, None if cand is None else cand.lagrangian, report)
                    for (n, sign), (cand, report) in table.items()
                    if n <= stop.n_switches)
    return SolutionPath(tuple(points), reports, stop)
