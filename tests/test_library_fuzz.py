"""Fuzz of the library's numeric inputs: every bad number fails cleanly.

Each probe calls one public function of `chatterlab.__all__` with one of its
numeric arguments replaced by NaN, +inf, -inf, 0, a negative value or a
subnormal, every other argument well formed.  Under a per-call deadline the
call must raise ValueError or a ChatterlabError, or return a result whose
numbers are all finite; where infinity is a documented value of the argument
(an equibound or a horizon of infinity bounds nothing), an infinite input
may come back in the result.  Result records that hold what a computation
returned and check nothing themselves (BangBangCandidate, Trajectory,
HybridTrajectory, ZenoFit, ...) are not probed, nor are the writers, which
take paths.  The oracle runs at resolution 0.05 only.

KNOWN names the bad inputs found outside the probes, each of which once
hung, raised the wrong error or answered a meaningless question with a
finite number; each now raises ValueError.  The probes found the rest: a
NaN control value, cost rate, flow or guard coefficient, an infinite
control end or truncation depth, a start scale whose fourth power leaves
the normal floats, a NaN accumulation time and a NaN J*.
"""

import dataclasses
import math
import signal

import pytest

import chatterlab as cl
from chatterlab.errors import ChatterlabError

BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324]
#: seconds one call may take; every probe returns in milliseconds
DEADLINE = 5.0
#: the coarse oracle grid of every probe
COARSE = 0.05

SPEC = cl.ProblemSpec(x0=(1.0, 0.0))
SYNTH = cl.default_synthesis()
U_STAR, _ = cl.synthesize_chattering((1.0, 0.0), SYNTH)
TRAJ_STAR = cl.simulate(SPEC, U_STAR)
BALL = cl.bouncing_ball()
BALL_RUN = cl.execute(BALL, "flight", (1.0, 0.0), horizon=5.0, max_events=22)
BALL_COST = cl.HybridLagrangian({"flight": 1.0})
ETAS = [0.1, 0.05, 0.01, 0.005, 0.001]
PATH = cl.regularization_path([1e-1, 1e-2, 1e-3], SPEC)

#: name -> (call of one bad number v, whether an infinite v may come back)
PROBES = {
    "ProblemSpec.x0": (lambda v: cl.ProblemSpec(x0=(v, 0.3)), False),
    "ProblemSpec.equibound": (lambda v: cl.ProblemSpec(x0=(1.0, 0.0), equibound=v), True),
    "PiecewiseConstantControl.breakpoints":
        (lambda v: cl.PiecewiseConstantControl((0.0, v), (1.0,)), False),
    "PiecewiseConstantControl.values":
        (lambda v: cl.PiecewiseConstantControl((0.0, 1.0), (v,)), False),
    "simulate.control":
        (lambda v: cl.simulate(SPEC, cl.PiecewiseConstantControl((0.0, v), (1.0,))), False),
    "compute_fuller_constant.start_scale":
        (lambda v: cl.compute_fuller_constant(start_scale=v), False),
    "default_synthesis.truncation_tol": (lambda v: cl.default_synthesis(v), False),
    "FullerSynthesis.zeta": (lambda v: cl.FullerSynthesis(v, SYNTH.rho), False),
    "FullerSynthesis.rho": (lambda v: cl.FullerSynthesis(SYNTH.zeta, v), False),
    "optimal_cost.x1": (lambda v: cl.optimal_cost((v, 0.3), SYNTH), False),
    "optimal_cost.x2": (lambda v: cl.optimal_cost((0.3, v), SYNTH), False),
    "synthesize_chattering.x0": (lambda v: cl.synthesize_chattering((0.3, v), SYNTH), False),
    "min_time_to_origin.x1": (lambda v: cl.min_time_to_origin((v, 0.3)), False),
    "min_time_to_origin.x2": (lambda v: cl.min_time_to_origin((0.3, v)), False),
    "min_time_steer.x1": (lambda v: cl.min_time_steer((v, 0.3)), False),
    "min_time_steer.x2": (lambda v: cl.min_time_steer((0.3, v)), False),
    "truncation_lag_for_budget.budget":
        (lambda v: cl.truncation_lag_for_budget(U_STAR, v), False),
    "truncate.eta": (lambda v: cl.truncate(U_STAR, TRAJ_STAR, v, SPEC), False),
    "truncation_rate_sweep.etas":
        (lambda v: cl.truncation_rate_sweep(U_STAR, TRAJ_STAR, ETAS + [v], SPEC), False),
    "composite_rate_bound.j_star":
        (lambda v: cl.composite_rate_bound(PATH.records, U_STAR, v), False),
    "optimize_durations.n_switches": (lambda v: cl.optimize_durations(v, 1.0, 1e-3, SPEC), False),
    "optimize_durations.sign": (lambda v: cl.optimize_durations(2, v, 1e-3, SPEC), False),
    "optimize_durations.epsilon": (lambda v: cl.optimize_durations(2, 1.0, v, SPEC), False),
    "brute_force_oracle.n_switches":
        (lambda v: cl.brute_force_oracle(v, 1.0, 1e-3, SPEC, resolution=COARSE), False),
    "brute_force_oracle.sign":
        (lambda v: cl.brute_force_oracle(2, v, 1e-3, SPEC, resolution=COARSE), False),
    "brute_force_oracle.epsilon":
        (lambda v: cl.brute_force_oracle(2, 1.0, v, SPEC, resolution=COARSE), False),
    "brute_force_oracle.resolution":
        (lambda v: cl.brute_force_oracle(2, 1.0, 1e-3, SPEC, resolution=v), False),
    "regularization_path.epsilons": (lambda v: cl.regularization_path([1e-1, v], SPEC), False),
    "bouncing_ball.gravity": (lambda v: cl.bouncing_ball(gravity=v), False),
    "bouncing_ball.restitution": (lambda v: cl.bouncing_ball(restitution=v), False),
    "water_tank.inflow": (lambda v: cl.water_tank(inflow=v), False),
    "water_tank.drain": (lambda v: cl.water_tank(drain=(v, 0.5)), False),
    "water_tank.thresholds": (lambda v: cl.water_tank(thresholds=(v, 0.0)), False),
    "execute.x0": (lambda v: cl.execute(BALL, "flight", (1.0, v), 5.0), False),
    "execute.horizon": (lambda v: cl.execute(BALL, "flight", (1.0, 0.0), v), True),
    "HybridSystem.flows": (lambda v: cl.HybridSystem(
        BALL.modes, {"flight": (1.0, 0.0, v)}, BALL.edges, BALL.guards, BALL.resets), False),
    "HybridSystem.guards": (lambda v: cl.HybridSystem(
        BALL.modes, BALL.flows, BALL.edges, {e: (v, 0.0, 0.0) for e in BALL.edges},
        BALL.resets), False),
    "zeno_rate_sweep.ns":
        (lambda v: cl.zeno_rate_sweep(BALL_RUN, [v, 3, 4, 5, 6], BALL_COST, BALL), False),
    "truncate_zeno.tau_inf": (lambda v: cl.truncate_zeno(BALL_RUN, 3, BALL, v), False),
    "HybridLagrangian.per_mode": (lambda v: cl.HybridLagrangian({"flight": v}), False),
    "hybrid_cost.lagrangian":
        (lambda v: cl.hybrid_cost(BALL_RUN, cl.HybridLagrangian({"flight": v})), False),
    "fit_power_law.points":
        (lambda v: cl.fit_power_law([(v, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 5.0)]), False),
    "RateRecord.param": (lambda v: cl.RateRecord(v, 1.0, 1.0, 1.0, 2.0, 0.5), False),
}

#: inputs that once misbehaved: the call and what it did
KNOWN = {
    "oracle-negative-epsilon": lambda: cl.brute_force_oracle(2, 1.0, -1.0, SPEC),
    "oracle-nan-epsilon": lambda: cl.brute_force_oracle(2, 1.0, math.nan, SPEC),
    "oracle-inf-epsilon": lambda: cl.brute_force_oracle(2, 1.0, math.inf, SPEC),
    "oracle-zero-sign": lambda: cl.brute_force_oracle(2, 0.0, 1e-3, SPEC),
    "oracle-nan-sign": lambda: cl.brute_force_oracle(2, math.nan, 1e-3, SPEC),
    "oracle-zero-resolution": lambda: cl.brute_force_oracle(2, 1.0, 1e-3, SPEC, resolution=0),
    "oracle-nan-resolution":
        lambda: cl.brute_force_oracle(2, 1.0, 1e-3, SPEC, resolution=math.nan),
    "oracle-negative-resolution":
        lambda: cl.brute_force_oracle(2, 1.0, 1e-3, SPEC, resolution=-1.0),
    "oracle-inf-resolution":
        lambda: cl.brute_force_oracle(2, 1.0, 1e-3, SPEC, resolution=math.inf),
    "solver-inf-epsilon": lambda: cl.optimize_durations(2, 1.0, math.inf, SPEC),
    "synthesis-nan-tol": lambda: cl.default_synthesis(truncation_tol=math.nan),
    "min-time-nan-state": lambda: cl.min_time_to_origin((math.nan, 0.0)),
    "min-steer-nan-state": lambda: cl.min_time_steer((math.nan, 0.0)),
    "lag-nan-budget": lambda: cl.truncation_lag_for_budget(U_STAR, math.nan),
    "bound-empty-path": lambda: cl.composite_rate_bound([], U_STAR, 1.0),
    "execute-nan-horizon": lambda: cl.execute(BALL, "flight", (1.0, 0.0), math.nan),
    "execute-nan-state": lambda: cl.execute(BALL, "flight", (math.nan, 0.0), 5.0),
    "execute-fractional-budget":
        lambda: cl.execute(BALL, "flight", (1.0, 0.0), 5.0, max_events=2.5),
    "execute-bool-budget": lambda: cl.execute(BALL, "flight", (1.0, 0.0), 5.0, max_events=True),
    "execute-nan-budget":
        lambda: cl.execute(BALL, "flight", (1.0, 0.0), 5.0, max_events=math.nan),
}


def _numbers(obj):
    """Every int and float inside a result: tuples, lists, dict values and
    dataclass fields are walked, anything else is skipped."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)


def _expire(signum, frame):
    raise TimeoutError(f"no return within {DEADLINE} s")


def _call(fn, *args):
    """fn(*args) under the deadline: its result, or the ValueError or
    ChatterlabError it raised, whose message must be one line."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE)
    try:
        return fn(*args)
    except (ValueError, ChatterlabError) as exc:
        assert "\n" not in str(exc)
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_bad_numbers_fail_cleanly_or_return_finite_values(name):
    call, inf_ok = PROBES[name]
    for v in BAD:
        out = _call(call, v)
        if isinstance(out, Exception) or (inf_ok and math.isinf(v)):
            continue
        bad = [x for x in _numbers(out) if not math.isfinite(x)]
        assert not bad, f"{name}({v!r}) returned non-finite {bad[:3]}"


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_bad_inputs_raise_value_errors(name):
    assert isinstance(_call(KNOWN[name]), ValueError)


def test_every_public_function_taking_numbers_is_probed():
    # a new public function or validated type must join PROBES or this list
    probed = {name.split(".")[0] for name in PROBES}
    unprobed = {"AllStartsInfeasible", "BangBangCandidate", "ChatterlabError", "ConfigError",
                "CutTooLarge", "DegenerateFit", "EquiboundViolation", "HybridTrajectory", "Inconclusive", "NoRootBracket", "PowerLawFit",
                "SolutionPath", "TolTooSmall", "Trajectory", "TruncationResult", "ZenoFit",
                "detect_zeno", "lagrangian_cost", "tv", "write_csv", "write_manifest"}
    public = {name for name in cl.__all__ if callable(getattr(cl, name))}
    assert public == probed | unprobed


@pytest.mark.parametrize("call", [
    lambda: cl.regularization_path([], SPEC),
    # largest / smallest is 98.99...: below the sweep's two decades
    lambda: cl.truncation_rate_sweep(
        U_STAR, TRAJ_STAR, [49.04812357402852, 10, 5, 1, 0.4954355916568538], SPEC),
    lambda: cl.zeno_rate_sweep(BALL_RUN, [-1, 2, 3, 4, 5], BALL_COST, BALL),
    lambda: cl.truncation_rate_sweep(U_STAR, TRAJ_STAR, ETAS + [math.nan], SPEC),
    lambda: cl.truncation_rate_sweep(U_STAR, TRAJ_STAR, ETAS + [math.inf], SPEC),
    lambda: cl.zeno_rate_sweep(BALL_RUN, [2.5, 3, 4, 5, 6], BALL_COST, BALL),
    lambda: cl.zeno_rate_sweep(BALL_RUN, [True, 3, 4, 5, 6], BALL_COST, BALL),
    lambda: cl.truncation_rate_sweep(U_STAR, TRAJ_STAR, [0.1, 0.1, 0.05, 0.01, 0.001], SPEC),
])
def test_sweep_grid_faults_are_config_errors_and_value_errors(call):
    # each sweep checks its own grid; the CLI maps the error to exit 2 and
    # a library caller catches it as a ValueError
    exc = _call(call)
    assert isinstance(exc, cl.ConfigError) and isinstance(exc, ValueError)
