"""The three benchmark workloads: their seeded inputs, operations and checks.

Inputs come from a shifted Kronecker sequence: the seed draws the shift, and
point k of a d-dimensional sequence is frac(shift + k * alpha) with alpha
from the generalized golden ratio.  Each point is uniform on the unit cube
(the shift is), while any run of consecutive points covers the cube evenly.
A run of 20 slow operations therefore sees the same spread of problem sizes
whatever its seed, which keeps per-run medians steady; independent draws can
give one run mostly small states and the next mostly large ones.

An operation's `run()` drives chatterlab (CLI in process or the public
library functions) and is the only timed part; `check()` then verifies the
outputs with `checks` and returns the SHA-256 of every CSV the program
wrote, so two sets of runs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from chatterlab import cli, controls, errors, fuller, solver

import checks

#: decade ladder of the path workload, and its CLI spelling
PATH_EPS = [10.0 ** (-k) for k in range(1, 9)]
PATH_EPS_ARG = "1e-1:1e-8:decade"

#: penalty, grid resolution and relative slack of the oracle comparison
#: (criterion 4's)
ORACLE_EPS = 1e-4
ORACLE_RESOLUTION = 2e-3
ORACLE_SLACK = 1e-6

#: scale factor of the quasi-homogeneity check; not a power of two, so the
#: scaled problem is not an exact binary shift of the original
SCALING_LAMBDA = 3.0

#: water-tank drain rates and initial levels, and the ball (CLI defaults)
TANK_DRAIN = (0.5, 0.5)
TANK_LEVELS = (0.5, 0.5)
BALL_HEIGHT = 1.0
BALL_GRAVITY = 1.0
BALL_RESTITUTION = 0.5
BALL_HORIZON = 5.0


class OpFailed(RuntimeError):
    """The program returned a nonzero exit code."""


def kronecker(seed: int, dims: int):
    """Point k of the seed-shifted d-dimensional Kronecker sequence."""
    g = 2.0
    for _ in range(64):  # root of x^(d+1) = x + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = np.array([g ** -(j + 1) for j in range(dims)])
    shift = np.random.default_rng(seed).random(dims)

    def point(k: int):
        return tuple(float(v) for v in np.mod(shift + k * alpha, 1.0))

    return point


def seeded_state(u_radius: float, u_angle: float):
    """State at radius 0.5-2 (uniform) and uniform angle."""
    r = 0.5 + 1.5 * u_radius
    a = 2.0 * math.pi * u_angle
    return (r * math.cos(a), r * math.sin(a))


def _x0_arg(x) -> str:
    # "--x0=" form: argparse takes a bare "-1,0" for an option name
    return f"--x0={x[0]!r},{x[1]!r}"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def _read_manifest(path: Path) -> dict:
    return json.loads(path.read_text())["results"]


@dataclass
class Op:
    """One benchmark operation: a timed program run plus its checks."""

    index: int
    label: str
    inputs: dict
    run: Callable[[], object]
    check: Callable[[object], dict]
    #: diagnostics the check leaves for the run record
    notes: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: operations per round; every run attempts whole rounds
    round_size = 1
    #: dimensions of the seeded input points
    dims = 2

    def __init__(self, seed: int, work_dir: Path):
        self.work = work_dir
        self.point = kronecker(seed, self.dims)

    def op(self, k: int) -> Op:
        raise NotImplementedError

    def extra_checks(self) -> dict:
        """Checks run once per process, outside the timed loop."""
        return {}

    @staticmethod
    def _cli(*argvs):
        """run() for a sequence of CLI calls; a nonzero exit fails the op.
        Functions are looked up on their modules at call time, so a traced
        run sees its wrappers."""

        def run():
            for argv in argvs:
                code = cli.main(list(argv))
                if code != 0:
                    raise OpFailed(f"exit code {code} from {' '.join(argv)}")
            return None

        return run


class RegPath(Workload):
    """tv-path and corollary-check alternate, each on its own state."""

    name = "reg-path"
    round_size = 2

    def op(self, k: int) -> Op:
        x = seeded_state(*self.point(k))
        experiment = "tv-path" if k % 2 == 0 else "corollary-check"
        out = self.work / "out"
        argv = [experiment, _x0_arg(x), "--eps", PATH_EPS_ARG, "--out", str(out)]
        return Op(k, experiment, {"x0": x}, self._cli(argv),
                  lambda _: self._check(experiment, out))

    def _check(self, experiment: str, out: Path) -> dict:
        csv_path = out / f"{experiment}.csv"
        table = _read_csv(csv_path)
        manifest = _read_manifest(out / f"{experiment}-manifest.json")
        j_star = manifest["j_star"]
        if experiment == "tv-path":
            points = [(p["epsilon"], p["lagrangian"], p["tv"], p["value"])
                      for p in manifest["per_epsilon"]]
        else:
            checks.is_true(manifest["bound_holds_everywhere"], "corollary bound")
            points = [(e, j_star + gap, tv, j_star + gap + e * tv) for e, gap, tv
                      in zip(table["param"], table["cost_gap"], table["tv"])]
        checks.exchange_inequalities(points)
        checks.path_monotone(points)
        checks.all_positive(table["cost_gap"], "gap L - J*")
        return {csv_path.name: _digest(csv_path)}

    def extra_checks(self) -> dict:
        """Odd symmetry and quasi-homogeneity of V on the first two states."""
        lam = SCALING_LAMBDA
        worst_sym = worst_scale = 0.0
        for k in range(2):
            x = seeded_state(*self.point(k))

            def path(x0, scale=1.0):
                p = solver.regularization_path([e * scale for e in PATH_EPS],
                                               controls.ProblemSpec(x0=x0))
                return [r.value for r in p.records], [r.n_switches for r in p.records]

            v, n = path(x)
            v_neg, n_neg = path((-x[0], -x[1]))
            checks.same_counts(n, n_neg, "odd symmetry")
            worst_sym = max(worst_sym,
                            checks.values_scale(v, v_neg, 1.0, 1e-12, "odd symmetry"))
            v_s, n_s = path((lam * lam * x[0], lam * x[1]), lam ** 5)
            checks.same_counts(n, n_s, "scaling law")
            worst_scale = max(worst_scale,
                              checks.values_scale(v, v_s, lam ** 5, 1e-12, "scaling law"))
        return {"odd_symmetry_rel": worst_sym, "scaling_rel": worst_scale}


class Oracle(Workload):
    """Every (switch count 1-3, sign) subproblem of a state, solver and
    brute-force oracle side by side."""

    name = "oracle"

    def op(self, k: int) -> Op:
        x = seeded_state(*self.point(k))
        spec = controls.ProblemSpec(x0=x)

        def attempt(fn, *args, **kw):
            try:
                return fn(*args, **kw)
            except errors.AllStartsInfeasible:
                return None

        def run():
            return [(n, sign,
                     attempt(solver.optimize_durations, n, sign, ORACLE_EPS, spec),
                     attempt(solver.brute_force_oracle, n, sign, ORACLE_EPS, spec,
                             resolution=ORACLE_RESOLUTION))
                    for n in (1, 2, 3) for sign in (-1.0, 1.0)]

        notes = {}
        return Op(k, "oracle", {"x0": x}, run, lambda res: self._check(x, res, notes),
                  notes)

    def _check(self, x, results, notes) -> dict:
        j_star = fuller.optimal_cost(x, fuller.default_synthesis())
        misses, worst = 0, 0.0
        for n, sign, cand, orc in results:
            for c in [c for c in (cand, orc) if c is not None]:
                checks.candidate_cost(x, sign, c.durations, c.lagrangian)
                checks.all_positive([c.lagrangian - j_star], "candidate cost above J*")
            if orc is None:
                continue
            # An oracle optimum with zero-length arcs (TV below 2n) is a
            # lower-count candidate; the solver represents those by its
            # lower switch counts (see solve_regularized), so it is held
            # to its best over counts <= n there, and to (n, sign) itself
            # everywhere else.
            if orc.tv < 2.0 * n:
                mine = min((c.value(ORACLE_EPS) for m, _, c, _ in results
                            if m <= n and c is not None), default=math.inf)
                # the (n, sign) comparison itself, recorded but not failed
                if cand is None:
                    misses += 1
                else:
                    excess = ((cand.value(ORACLE_EPS) - orc.value(ORACLE_EPS))
                              / abs(orc.value(ORACLE_EPS)))
                    if excess > ORACLE_SLACK:
                        misses += 1
                        worst = max(worst, excess)
            elif cand is None:
                raise checks.CheckFailed(
                    f"solver infeasible for n={n}, sign={sign:+.0f} where the oracle is not")
            else:
                mine = cand.value(ORACLE_EPS)
            checks.no_worse_than(mine, orc.value(ORACLE_EPS), ORACLE_SLACK,
                                 f"solver vs oracle n={n}, sign={sign:+.0f}")
        notes.update(collapsed_misses=misses, worst_rel_excess=worst)
        for sign in (-1.0, 1.0):
            cand = next(c for n, s, c, _ in results if n == 1 and s == sign)
            steer = checks.two_arc_steering(x, sign)
            if (steer is None) != (cand is None):
                raise checks.CheckFailed(
                    f"count-1 feasibility for sign {sign:+.0f}: own {steer}, solver {cand}")
            if steer is not None:
                own, _ = checks.exact_cost(x, sign, steer)
                checks.close_rel(cand.lagrangian, own, 1e-10, "count-1 steering cost")
        return {}


class Truncation(Workload):
    """Both truncation experiments in one round: fuller-synthesize, then
    truncation-rate on its automatic cut grid, for a seeded state; then
    zeno-rate on a seeded water-tank and on the default bouncing ball.

    The ball keeps its CLI defaults (restitution 0.5, horizon 5): with
    seeded restitutions now and then every cost gap of the sweep is exactly
    0 and the run exits 5 (no usable points for the gap fit), so a seeded
    ball would make failures depend on the seed."""

    name = "truncation"
    #: state radius and angle, tank contraction ratio and horizon factor
    dims = 4

    def op(self, k: int) -> Op:
        u_radius, u_angle, u_ratio, u_horizon = self.point(k)
        x = seeded_state(u_radius, u_angle)
        ratio = 0.55 + 0.25 * u_ratio  # (inflow - drain) / drain
        inflow = TANK_DRAIN[0] * (1.0 + ratio)
        tank_tau = checks.water_tank_tau_inf(TANK_LEVELS, TANK_DRAIN, inflow)
        tank = {"inflow": inflow, "horizon": tank_tau * (1.2 + 0.8 * u_horizon)}
        ball_tau = checks.bouncing_ball_tau_inf(BALL_HEIGHT, BALL_GRAVITY,
                                                BALL_RESTITUTION)
        ball = {"restitution": BALL_RESTITUTION, "horizon": BALL_HORIZON}
        fuller_out = self.work / "fuller"
        argvs = [["fuller-synthesize", _x0_arg(x), "--out", str(fuller_out)],
                 ["truncation-rate", _x0_arg(x), "--out", str(fuller_out)]]
        zeno = []  # (model, closed-form tau, output directory)
        for model, grid, params, tau in (("water-tank", "2:12", tank, tank_tau),
                                         ("bouncing-ball", "2:8", ball, ball_tau)):
            out = self.work / model
            config = self.work / f"{model}.json"
            config.write_text(json.dumps({"model_params": params}))
            argvs.append(["zeno-rate", "--model", model, "--n", grid,
                          "--config", str(config), "--out", str(out)])
            zeno.append((model, tau, out))

        def check(_):
            digests = self._check_fuller(fuller_out)
            for model, tau, out in zeno:
                digests.update(self._check_zeno(model, tau, out))
            return digests

        return Op(k, "truncation", {"x0": x, "water-tank": tank}, self._cli(*argvs),
                  check)

    @staticmethod
    def _check_fuller(out: Path) -> dict:
        synth_csv, trunc_csv = out / "fuller-synthesize.csv", out / "truncation-rate.csv"
        synth = _read_manifest(out / "fuller-synthesize-manifest.json")
        trunc = _read_manifest(out / "truncation-rate-manifest.json")
        switches = _read_csv(synth_csv)["param"]
        table = _read_csv(trunc_csv)
        checks.fuller_constant(synth["zeta"])
        checks.close_rel(synth["rho"], checks.contraction_ratio(synth["zeta"]), 1e-9,
                         "contraction ratio")
        checks.interval_ratios(switches, synth["rho"])
        checks.close_rel(trunc["j_star"], synth["j_star"], 0.0, "J* of both experiments")
        checks.all_at_least([trunc["fitted_exponent"]], 0.4, "fitted gap exponent")
        checks.is_true(trunc["tail_tv_budget_ok"], "tail TV budget flag")
        checks.tail_tv_budget(switches, trunc["t_star"], table["param"], table["tv"])
        checks.all_at_least(table["cost_gap"], -1e-12, "truncation gap")
        return {synth_csv.name: _digest(synth_csv), trunc_csv.name: _digest(trunc_csv)}

    @staticmethod
    def _check_zeno(model: str, tau: float, out: Path) -> dict:
        csv_path = out / "zeno-rate.csv"
        result = _read_manifest(out / "zeno-rate-manifest.json")
        checks.close_rel(result["tau_inf"], tau, 1e-9, f"{model} accumulation time")
        checks.is_true(result["bound_ok"], "cost-gap rate bound")
        if model == "water-tank":
            checks.slope_near(result["dev_slope"], 1.0, 0.1, "deviation slope")
            checks.slope_near(result["gap_slope"], 1.0, 0.1, "gap slope")
        return {f"{model}/{csv_path.name}": _digest(csv_path)}


WORKLOADS = {w.name: w for w in (RegPath, Oracle, Truncation)}
