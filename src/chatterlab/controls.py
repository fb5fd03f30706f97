"""Controls, trajectories, costs and total variation of the double integrator.

The model is x1' = x2, x2' = u with running cost x1^2.  Every constant-
control arc is propagated by its exact polynomial flow, and its cost and
state sup are closed forms; `di_arc` computes all three and is the one place
that arc mathematics is written down.  Everything here is a pure function of
immutable inputs, so values can be shared freely across threads and sweeps.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import EquiboundViolation


def di_arc(x1, x2, u: float, d):
    """One exact double-integrator arc from (x1, x2) under constant control u
    for duration d.

    Returns (end x1, end x2, integral of x1^2 over the arc, |x1| at an
    interior velocity zero or 0 when the velocity does not vanish inside).
    The arc's sup of max(|x1|, |x2|) is the largest of the last value and
    the endpoint magnitudes; callers fold it themselves.  Plain arithmetic,
    so x1, x2 and d may be floats or equally shaped numpy grids; u is a
    scalar.
    """
    c = 0.5 * u
    cost = d * (x1 * x1 + d * (x1 * x2 + d * ((x2 * x2 + 2.0 * x1 * c) / 3.0
                                              + d * (x2 * c / 2.0 + d * (c * c / 5.0)))))
    e1 = x1 + x2 * d + 0.5 * u * d * d
    e2 = x2 + u * d
    if u == 0.0:
        return e1, e2, cost, 0.0
    s = -x2 / u
    vertex = abs(x1 + x2 * s + 0.5 * u * s * s) * ((0.0 < s) & (s < d))
    return e1, e2, cost, vertex


def di_arc_cost_grad(x1, x2, u: float, d):
    """Partial derivatives of `di_arc`'s cost in its start state (x1, x2).

    The other arc sensitivities are read off `di_arc`'s results: the cost's
    derivative in d is (end x1)^2, the end state's is (end x2, u), and the
    end state moves with the start state by [[1, d], [0, 1]].
    """
    return (2.0 * d * (x1 + d * (0.5 * x2 + d * (u / 6.0))),
            d * d * (x1 + d * (x2 * (2.0 / 3.0) + d * (0.25 * u))))


def motion_gap(a, b, d: float) -> float:
    """Exact sup over s in [0, d] of max(|a1(s) - b1(s)|, |a2(s) - b2(s)|) for
    two planar polynomial motions, each given as (x1, v, u, x2, w) with
    x1(s) = x1 + v s + u s^2 / 2 and x2(s) = x2 + w s.

    The first component of the difference is one double-integrator arc with
    control ua - ub, so `di_arc` gives its end and vertex; the second is
    linear and peaks at an end.  A double-integrator arc from (x1, x2) under
    u is the motion (x1, x2, u, x2, u).  The two tuples are unpacked and
    subtracted field by field: this is the inner step of every exact
    deviation metric, so it builds no intermediate sequence.
    """
    a1, av, au, a2, aw = a
    b1, bv, bu, b2, bw = b
    x1, v, u, x2, w = a1 - b1, av - bv, au - bu, a2 - b2, aw - bw
    e1, _, _, vertex = di_arc(x1, v, u, d)
    return max(abs(x1), abs(e1), vertex, abs(x2), abs(x2 + w * d))


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseConstantControl:
    """A finite switching structure: strictly increasing breakpoints and one
    scalar control value per interval.  Total variation is finite by
    construction.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(map(float, self.breakpoints))
        vals = tuple(map(float, self.values))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) < 2:
            raise ValueError("control needs at least one arc")
        if len(vals) != len(bp) - 1:
            raise ValueError("need exactly one value per interval")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        for a, b in zip(bp, bp[1:]):
            if not b > a:
                raise ValueError("breakpoints must be strictly increasing")
        if not (math.isfinite(bp[-1]) and all(map(math.isfinite, vals))):
            raise ValueError("breakpoints and values must be finite")

    @property
    def duration(self) -> float:
        return self.breakpoints[-1]

    @property
    def n_arcs(self) -> int:
        return len(self.values)

    @classmethod
    def from_ends(cls, ends, values) -> "PiecewiseConstantControl | None":
        """Control from absolute arc ends and one value per arc, the first arc
        starting at 0.  An arc whose end does not pass the previous one is
        dropped; None when no arc is left."""
        bp, vals = [0.0], []
        for t, v in zip(ends, values):
            if t > bp[-1]:
                bp.append(t)
                vals.append(v)
        return cls(bp, vals) if vals else None

    def restrict(self, t_end: float) -> "PiecewiseConstantControl":
        """Restriction to [0, t_end]; a cut exactly at a breakpoint keeps the
        arc ending there and drops the zero-length remainder."""
        if not 0.0 < t_end <= self.duration:
            raise ValueError("t_end must lie in (0, duration]")
        k = bisect_left(self.breakpoints, t_end)  # first breakpoint at or past t_end
        return self.from_ends(self.breakpoints[1:k] + (t_end,), self.values[:k])

    def concat(self, other: "PiecewiseConstantControl") -> "PiecewiseConstantControl":
        """Concatenation u (+) v: v shifted to start where u ends; an arc of v
        too short to advance u's clock is dropped."""
        t0 = self.duration
        ends = self.breakpoints[1:] + tuple(t0 + t for t in other.breakpoints[1:])
        return self.from_ends(ends, self.values + other.values)


def tv(control: PiecewiseConstantControl) -> float:
    """Total variation: sum of jump magnitudes between consecutive arc values."""
    vals = control.values
    return sum(abs(b - a) for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """One constant-control arc of the double integrator, propagated exactly:
    x2(s) = x2 + u s,  x1(s) = x1 + x2 s + u s^2 / 2.
    """

    t0: float
    duration: float
    x0: tuple[float, float]
    u: float

    def state_at(self, s: float) -> tuple[float, float]:
        x1, x2, _, _ = di_arc(self.x0[0], self.x0[1], self.u, s)
        return (x1, x2)

    @property
    def end_state(self) -> tuple[float, float]:
        return self.state_at(self.duration)

    def sup_abs(self) -> float:
        """Exact sup over the arc of max(|x1|, |x2|)."""
        a, b = self.x0
        e1, e2, _, vertex = di_arc(a, b, self.u, self.duration)
        return max(abs(a), abs(e1), abs(b), abs(e2), vertex)

    def cost_x1sq(self) -> float:
        """Exact integral of x1(s)^2 over the arc (quintic in the duration)."""
        return di_arc(self.x0[0], self.x0[1], self.u, self.duration)[2]


@dataclass(frozen=True)
class Trajectory:
    """State history of the double integrator under a piecewise-constant
    control: one exact arc per control interval."""

    arcs: tuple[Arc, ...]
    final_state: tuple[float, float]

    @cached_property
    def ends(self) -> tuple[float, ...]:
        """Absolute end time of each arc, nondecreasing: every lookup of the
        arc that holds a time reads this one record."""
        return tuple(arc.t0 + arc.duration for arc in self.arcs)

    @cached_property
    def duration(self) -> float:
        return self.ends[-1]

    def state_at(self, t: float) -> tuple[float, float]:
        if not 0.0 <= t <= self.duration * (1.0 + 1e-12) + 1e-300:  # NaN fails
            raise ValueError(f"t={t} outside [0, {self.duration}]")
        k = bisect_left(self.ends, t)  # the first arc ending at or after t
        if k == len(self.arcs):
            return self.arcs[-1].end_state
        arc = self.arcs[k]
        return arc.state_at(t - arc.t0)

    def sup_abs(self) -> float:
        return max(arc.sup_abs() for arc in self.arcs)

    @cached_property
    def _cost_suffixes(self) -> tuple:
        """Running cost from the start of each arc to the end (and a final
        0), summed from the last arc backward, smallest terms first."""
        acc, out = 0.0, [0.0]
        for arc in reversed(self.arcs):
            acc += arc.cost_x1sq()
            out.append(acc)
        return tuple(reversed(out))

    def cost_after(self, t: float) -> float:
        """Running cost on [t, end]: the part of the arc holding t plus the
        later arcs' suffix sum, which is cached, so cutting one trajectory
        at many times costs one arc per cut.  The whole cost before the
        start, 0 at or past the end, ValueError for NaN."""
        if math.isnan(t):
            raise ValueError(f"t={t} is not a time")
        k = bisect_right(self.ends, t)  # the first arc ending after t
        if k == len(self.arcs):
            return 0.0
        arc = self.arcs[k]
        if arc.t0 >= t:
            return self._cost_suffixes[k]
        x1, x2 = arc.state_at(t - arc.t0)
        return self._cost_suffixes[k + 1] + di_arc(x1, x2, arc.u, self.ends[k] - t)[2]


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Initial state and admissibility data of the double-integrator problem
    with running cost x1^2.

    x0: planar initial state (x1, x2).
    equibound: admissible candidates must satisfy t_u + sup|x| <= equibound.

    Admissible control values lie in [-1, 1].
    """

    x0: tuple[float, float]
    equibound: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.x0) != 2:
            raise ValueError("double integrator needs a planar initial state")
        if not all(map(math.isfinite, self.x0)):
            raise ValueError("initial state must be finite")
        if not self.equibound > 0.0:  # NaN fails it too; inf is no bound
            raise ValueError("equibound must be positive")


def simulate(spec: ProblemSpec, control: PiecewiseConstantControl) -> Trajectory:
    """Propagate spec.x0 under the control by exact arcs.

    Raises ValueError when a control value lies outside [-1, 1] and
    EquiboundViolation when t_u + sup|x| exceeds spec.equibound.
    """
    for v in control.values:
        if not abs(v) <= 1.0 + 1e-12:
            raise ValueError(f"control value {v} outside admissible set")
    arcs = []
    x = spec.x0
    for i, u in enumerate(control.values):
        t0 = control.breakpoints[i]
        arc = Arc(t0, control.breakpoints[i + 1] - t0, x, u)
        arcs.append(arc)
        x = arc.end_state
    traj = Trajectory(tuple(arcs), x)
    excess = control.duration + traj.sup_abs()
    if excess > spec.equibound:
        raise EquiboundViolation(
            f"t_u + sup|x| = {excess:.6g} exceeds equibound {spec.equibound:.6g}")
    return traj


def lagrangian_cost(traj: Trajectory) -> float:
    """Running cost of the trajectory: the integral of x1^2, summed from the
    exact quintic arc integrals."""
    total = 0.0
    for arc in traj.arcs:
        total += arc.cost_x1sq()
    return total
