"""Controls, trajectories, costs and total variation of the double integrator.

The model is x1' = x2, x2' = u with running cost x1^2.  Every constant-
control arc is propagated by its exact polynomial flow, and its cost and
state sup are closed forms; `di_arc` computes all three and is the one place
that arc mathematics is written down.  Everything here is a pure function of
immutable inputs, so values can be shared freely across threads and sweeps.
"""

from __future__ import annotations

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
        bp = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
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

    @property
    def duration(self) -> float:
        return self.breakpoints[-1]

    @property
    def n_arcs(self) -> int:
        return len(self.values)

    def value_at(self, t: float) -> float:
        """Control value at time t; arcs are half open, the last one closed."""
        bp = self.breakpoints
        if t < bp[0] or t > bp[-1]:
            raise ValueError(f"t={t} outside [0, {bp[-1]}]")
        for i in range(len(self.values)):
            if t < bp[i + 1]:
                return self.values[i]
        return self.values[-1]

    def restrict(self, t_end: float) -> "PiecewiseConstantControl":
        """Restriction to [0, t_end]; a cut exactly at a breakpoint keeps the
        arc ending there and drops the zero-length remainder."""
        if not 0.0 < t_end <= self.duration:
            raise ValueError("t_end must lie in (0, duration]")
        bp = [0.0]
        vals = []
        for i, v in enumerate(self.values):
            right = self.breakpoints[i + 1]
            if right < t_end:
                bp.append(right)
                vals.append(v)
            else:
                bp.append(t_end)
                vals.append(v)
                break
        return PiecewiseConstantControl(tuple(bp), tuple(vals))

    def split(self, t: float) -> tuple["PiecewiseConstantControl", "PiecewiseConstantControl"]:
        """Head on [0, t] and tail re-based to start at 0."""
        head = self.restrict(t)
        bp = [0.0]
        vals = []
        for i, v in enumerate(self.values):
            right = self.breakpoints[i + 1]
            if right <= t:
                continue
            bp.append(right - t)
            vals.append(v)
        if not vals:
            raise ValueError("split point at or beyond the final time")
        return head, PiecewiseConstantControl(tuple(bp), tuple(vals))

    def concat(self, other: "PiecewiseConstantControl") -> "PiecewiseConstantControl":
        """Concatenation u (+) v: v shifted to start where u ends."""
        t0 = self.duration
        bp = self.breakpoints + tuple(t0 + t for t in other.breakpoints[1:])
        return PiecewiseConstantControl(bp, self.values + other.values)


def constant_control(value: float, duration: float) -> PiecewiseConstantControl:
    return PiecewiseConstantControl((0.0, float(duration)), (value,))


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
    def duration(self) -> float:
        last = self.arcs[-1]
        return last.t0 + last.duration

    def state_at(self, t: float) -> tuple[float, float]:
        if t < 0.0 or t > self.duration * (1.0 + 1e-12) + 1e-300:
            raise ValueError(f"t={t} outside [0, {self.duration}]")
        for arc in self.arcs:
            if t <= arc.t0 + arc.duration:
                return arc.state_at(t - arc.t0)
        return self.arcs[-1].state_at(self.arcs[-1].duration)

    def sup_abs(self) -> float:
        return max(arc.sup_abs() for arc in self.arcs)


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Initial state and admissibility data of the double-integrator problem
    with running cost x1^2.

    x0: planar initial state (x1, x2).
    control_bounds: admissible control values lie in [lo, hi].
    equibound: admissible candidates must satisfy t_u + sup|x| <= equibound.
    """

    x0: tuple[float, float]
    control_bounds: tuple[float, float] = (-1.0, 1.0)
    equibound: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.x0) != 2:
            raise ValueError("double integrator needs a planar initial state")
        if self.equibound <= 0.0:
            raise ValueError("equibound must be positive")
        lo, hi = self.control_bounds
        if not lo < hi:
            raise ValueError("control bounds must satisfy lo < hi")

    def check_value(self, v: float) -> bool:
        lo, hi = self.control_bounds
        return lo - 1e-12 <= v <= hi + 1e-12


def simulate(spec: ProblemSpec, control: PiecewiseConstantControl) -> Trajectory:
    """Propagate spec.x0 under the control by exact arcs.

    Raises EquiboundViolation when t_u + sup|x| exceeds spec.equibound.
    """
    for v in control.values:
        if not spec.check_value(v):
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


def lagrangian_cost(traj: Trajectory, control: PiecewiseConstantControl,
                    spec: ProblemSpec) -> float:
    """Running cost of the trajectory: the integral of x1^2, summed from the
    exact quintic arc integrals.  `control` must be the control that
    produced `traj` (checked by arc count); the closed form needs nothing
    from `spec`, which keeps the (traj, control, spec) signature that
    regularized_cost shares."""
    if len(traj.arcs) != control.n_arcs:
        raise ValueError("trajectory was not produced from this control")
    total = 0.0
    for arc in traj.arcs:
        total += arc.cost_x1sq()
    return total


def regularized_cost(traj: Trajectory, control: PiecewiseConstantControl,
                     spec: ProblemSpec, epsilon: float) -> float:
    """Running cost plus epsilon times the control's total variation."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    return lagrangian_cost(traj, control, spec) + epsilon * tv(control)
