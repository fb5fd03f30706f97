"""Chattering synthesis for the double-integrator problem with running cost
x1^2 and a two-sided unit control bound.

The optimal feedback switches on a curve x1 + zeta * x2|x2| = 0 and the
switch points contract geometrically: one arc maps a switch state (x1, x2)
to (-lam^2 x1, -lam x2), with lam = sqrt((1 - 2 zeta)/(1 + 2 zeta)).  That
crossing relation holds for every curve coefficient, so the coefficient
itself is pinned by optimality: along an optimal arc the switch function of
the adjoint system must vanish at both endpoints.  With the free-time
normalization (the Hamiltonian is zero along optimal trajectories) the start
adjoint is fixed and a single scalar residual in zeta remains; its root is
found by bisection and never hard-coded.

The synthesized control switches infinitely often in finite time; it is cut
at a small radius around the origin and closed with the exact two-arc
minimum-time tail, whose cost contribution scales like radius^(5/2).
The optimal cost needs no cut: by the same self-similarity it has a closed
form (`optimal_cost`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .controls import (
    PiecewiseConstantControl,
    ProblemSpec,
    di_arc,
    simulate,
)
from .errors import NoRootBracket, TolTooSmall
from .truncation import min_time_steer

#: search interval for the switching-curve coefficient
ZETA_BRACKET = (0.40, 0.50)

#: relative half-width of the on-curve tie band of the feedback
CURVE_TIE_BAND = 1e-14

#: spare switch count; a tol of 1e-13 needs ~30 arcs from unit scale
_MAX_ARCS = 400


def curve_residual(x, zeta: float) -> float:
    """Signed distance-like residual of the switching curve x1 + zeta*x2|x2|."""
    return x[0] + zeta * x[1] * abs(x[1])


def contraction_ratio(zeta: float) -> float:
    """Per-arc contraction of |x2| between consecutive switch points."""
    return math.sqrt((1.0 - 2.0 * zeta) / (1.0 + 2.0 * zeta))


def _on_curve(x, zeta: float) -> bool:
    """Whether x lies on the switching curve, within the tie band
    CURVE_TIE_BAND * (|x1| + x2^2)."""
    return abs(curve_residual(x, zeta)) <= CURVE_TIE_BAND * (abs(x[0]) + x[1] * x[1])


def feedback_sign(x, zeta: float) -> float:
    """Feedback value: -1 above the curve, +1 below; on the curve
    (`_on_curve`), the post-switch sign that continues the spiral."""
    if _on_curve(x, zeta):
        return -1.0 if x[1] > 0.0 else 1.0
    return -1.0 if curve_residual(x, zeta) > 0.0 else 1.0


def _quad_roots(a: float, b: float, c: float):
    """Real roots of a t^2 + b t + c, numerically stable form."""
    if a == 0.0:
        return () if b == 0.0 else (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    if q == 0.0:
        return (0.0, 0.0)
    return (q / a, c / q)


def first_crossing(x, u: float, zeta: float) -> float:
    """Time of the next switching-curve crossing along a constant-control arc.

    On each side of x2 = 0 the curve residual along the flow is a quadratic
    polynomial in time, so the crossing is a filtered quadratic root: the
    least positive one, however small.  An arc that starts on the curve
    (`_on_curve`) starts at a root: its first piece's constant term is set
    to exactly 0, so that root is 0 and drops out.
    """
    z1, z2 = x
    pieces = []
    if z2 * u < 0.0:
        t_zero = -z2 / u
        sgn = math.copysign(1.0, z2)
        pieces.append((0.0, t_zero, sgn))
        pieces.append((t_zero, math.inf, -sgn))
    else:
        sgn = math.copysign(1.0, z2) if z2 != 0.0 else math.copysign(1.0, u)
        pieces.append((0.0, math.inf, sgn))
    on_curve = _on_curve(x, zeta)
    for lo, hi, eps in pieces:
        a = 0.5 * u + zeta * eps
        b = z2 * (1.0 + 2.0 * zeta * eps * u)
        c = 0.0 if on_curve and lo == 0.0 else z1 + zeta * eps * z2 * z2
        hi_eff = hi if hi is math.inf else hi * (1.0 + 1e-15) + 1e-300
        degenerate = (abs(a) < 1e-15
                      and abs(b) <= 1e-14 * (abs(z2) + 1.0)
                      and abs(c) <= 1e-14 * (abs(z1) + z2 * z2 + 1e-280))
        if degenerate and hi is not math.inf:
            # the arc rides the curve (coefficient exactly 1/2): the
            # crossing degenerates to the vertex of the parabola
            return hi
        hits = [t for t in _quad_roots(a, b, c) if lo < t <= hi_eff]
        if hits:
            return min(hits)
    raise ArithmeticError(f"no curve crossing from {x} with u={u}")


def _adjoint_switch_residual(zeta: float, scale: float = 1.0) -> float:
    """Switch-function value at the next switch point, started from a switch.

    From the curve point (-zeta s^2, s) with u = -1 the costate starts at
    (zeta^2 s^3, 0): the switch component vanishes at a switch and the zero
    Hamiltonian of the free-time problem fixes the other component.  The
    costate obeys p1' = 2 x1, p2' = -p1, so along the arc both components
    are polynomials in time.  At the optimal coefficient the switch
    component returns to zero exactly at the next crossing.  Normalized by
    scale^4 so the residual is scale-free.
    """
    s = scale
    x = (-zeta * s * s, s)
    d = first_crossing(x, -1.0, zeta)
    p2 = -d * (zeta * zeta * s ** 3
               - zeta * s * s * d
               + s * d * d / 3.0
               - d ** 3 / 12.0)
    return p2 / s ** 4


def compute_fuller_constant(tol: float = 1e-12, start_scale: float = 1.0):
    """Switching-curve coefficient and contraction ratio, by bisection of the
    adjoint switch residual on (0.40, 0.50).

    Raises NoRootBracket when the residual does not change sign there.  The
    root is independent of start_scale; recomputing from several scales is
    the scaling-invariance oracle used in tests.
    """
    if not tol >= 1e-12:
        raise ValueError("tol below 1e-12 is not resolvable in double precision")
    if not 1e-76 <= start_scale <= 1e76:
        raise ValueError(f"start_scale must lie in [1e-76, 1e76], where the residual's "
                         f"fourth power of it is a normal float, got {start_scale!r}")
    lo, hi = ZETA_BRACKET
    r_lo = _adjoint_switch_residual(lo, start_scale)
    r_hi = _adjoint_switch_residual(hi, start_scale)
    if r_lo == 0.0:
        zeta = lo
    elif r_hi == 0.0 or r_lo * r_hi > 0.0:
        # the upper endpoint residual vanishes identically in exact
        # arithmetic, so rescue the bracket just inside before giving up
        for hi_try in (0.4999, 0.499, 0.495, 0.49, 0.47, 0.45):
            r_hi = _adjoint_switch_residual(hi_try, start_scale)
            if r_lo * r_hi < 0.0:
                hi = hi_try
                break
        else:
            raise NoRootBracket(
                f"residual has signs ({r_lo:.3g}, {r_hi:.3g}) on {ZETA_BRACKET}")
    if r_lo != 0.0:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            r_mid = _adjoint_switch_residual(mid, start_scale)
            if r_mid == 0.0:
                lo = hi = mid
                break
            if r_lo * r_mid < 0.0:
                hi = mid
            else:
                lo, r_lo = mid, r_mid
        zeta = 0.5 * (lo + hi)
    x = (-zeta * start_scale ** 2, start_scale)
    d = first_crossing(x, -1.0, zeta)
    rho = -di_arc(x[0], x[1], -1.0, d)[1] / start_scale
    return zeta, rho


@dataclass(frozen=True)
class FullerSynthesis:
    """Computed synthesis data: curve coefficient, contraction ratio, and the
    radius at which chattering is cut and closed by the minimum-time tail."""

    zeta: float
    rho: float
    truncation_tol: float = 1e-10

    def __post_init__(self):
        if not ZETA_BRACKET[0] < self.zeta < ZETA_BRACKET[1]:
            raise ValueError(f"zeta={self.zeta} outside {ZETA_BRACKET}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("contraction ratio must lie in (0, 1)")
        if not 0.0 < self.truncation_tol < math.inf:
            raise ValueError("truncation_tol must be positive and finite")

    @cached_property
    def value_constant(self) -> float:
        """K = C / (1 - rho^5), C the cost of the unit arc from (-zeta, 1)
        under u = -1 up to its next crossing: the optimal cost from a switch
        state of velocity s is K|s|^5."""
        d = first_crossing((-self.zeta, 1.0), -1.0, self.zeta)
        return di_arc(-self.zeta, 1.0, -1.0, d)[2] / (1.0 - self.rho ** 5)


@lru_cache(maxsize=1)
def _cached_constant() -> tuple[float, float]:
    return compute_fuller_constant()


def default_synthesis(truncation_tol: float = 1e-10) -> FullerSynthesis:
    zeta, rho = _cached_constant()
    return FullerSynthesis(zeta=zeta, rho=rho, truncation_tol=truncation_tol)


def synthesize_chattering(x0, synth: FullerSynthesis):
    """Generate the optimal control from x0 by the switching-curve feedback.

    The feedback decides the first sign at x0; every later arc starts on
    the curve, where the feedback reverses the sign, so each crossing simply
    flips it.  Each curve crossing is found by the closed-form quadratic
    solve of the arc polynomial; once the state enters the truncation radius
    the exact two-arc minimum-time steering closes the control at the
    origin.  Returns (control, final time).  Raises TolTooSmall when the
    crossing solve would overflow at x0 or at a state an arc reaches, or an
    arc no longer advances the clock, which a state far outside the
    truncation radius reaches before the radius.
    """
    x = (float(x0[0]), float(x0[1]))
    if x == (0.0, 0.0):
        raise ValueError("x0 must differ from the origin")
    if synth.truncation_tol < 1e-13:
        raise TolTooSmall(
            f"truncation radius {synth.truncation_tol} underflows arc durations")
    breakpoints = [0.0]
    values: list[float] = []

    def append(u, d):
        if breakpoints[-1] + d == breakpoints[-1]:
            raise TolTooSmall(
                f"arc of {d:.3g} no longer advances the clock at t = {breakpoints[-1]:.6g}: "
                f"|x0| is too large for the truncation radius {synth.truncation_tol}")
        breakpoints.append(breakpoints[-1] + d)
        values.append(u)

    u = feedback_sign(x, synth.zeta)
    while True:
        # 8 (|x1| + x2^2) bounds every term of the crossing's quadratic
        if not math.isfinite(8.0 * (abs(x[0]) + x[1] * x[1])):
            raise TolTooSmall(f"the switching-curve residual at {x} overflows: "
                              f"x0 = {tuple(x0)} is too large")
        if math.hypot(*x) < synth.truncation_tol:
            break
        d = first_crossing(x, u, synth.zeta)
        append(u, d)
        x = di_arc(x[0], x[1], u, d)[:2]
        u = -u
        if len(values) > _MAX_ARCS:
            raise ArithmeticError("switching cascade failed to contract")
    tail, _ = min_time_steer(x)
    if tail is not None:
        for i, v in enumerate(tail.values):
            append(v, tail.breakpoints[i + 1] - tail.breakpoints[i])
    if not values:
        raise ValueError("x0 is indistinguishable from the origin at this tol")
    control = PiecewiseConstantControl(tuple(breakpoints), tuple(values))
    return control, control.duration


@lru_cache(maxsize=16)
def chattering_reference(x0: tuple, synth: FullerSynthesis) -> tuple:
    """(control, final time, trajectory) of the chattering control
    synthesized from x0, the trajectory simulated without an equibound,
    which far states' references exceed.  A CLI run holds its candidates to
    this reference and a regularization path builds its starts from it, so
    one run synthesizes once."""
    control, t_star = synthesize_chattering(x0, synth)
    return control, t_star, simulate(ProblemSpec(x0, equibound=math.inf), control)


def optimal_cost(x0, synth: FullerSynthesis) -> float:
    """Optimal running cost V(x0), exact and independent of the truncation
    radius; zero at the origin.  Fuller's synthesis is self-similar (Zelikin
    & Borisov, Theory of Chattering Control, Birkhauser 1994): an optimal arc
    maps a switch state of velocity s to one of velocity -rho s, at rho^5
    times the cost, so V = K|s|^5 at a switch state with K = C / (1 - rho^5)
    (`FullerSynthesis.value_constant`).  From x0, V is the first feedback
    arc's cost plus K|s|^5 at its crossing.  x0 is first scaled exactly onto
    unit size by a power of two lam, as V(lam^2 x1, lam x2) = lam^5 V(x), so
    |s|^5 neither underflows nor overflows before V itself does.  Raises
    TolTooSmall when V overflows.
    """
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 == 0.0 and x2 == 0.0:
        return 0.0
    if not math.isfinite(x1 + x2):
        raise TolTooSmall(f"the optimal cost from x0 = {(x1, x2)} overflows")
    e = math.frexp(max(math.sqrt(abs(x1)), abs(x2)))[1]
    x = (math.ldexp(x1, -2 * e), math.ldexp(x2, -e))
    u = feedback_sign(x, synth.zeta)
    _, s, cost, _ = di_arc(x[0], x[1], u, first_crossing(x, u, synth.zeta))
    try:
        return math.ldexp(cost + synth.value_constant * abs(s) ** 5, 5 * e)
    except OverflowError:
        raise TolTooSmall(f"the optimal cost from x0 = {(x1, x2)} overflows") from None
