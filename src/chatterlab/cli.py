"""Command-line front end: run the experiment families and emit CSV/JSON.

Each experiment writes one CSV of sweep records (sorted by parameter, 17
significant digits, wall column zeroed so reruns are byte identical) and a
JSON manifest with the configuration echo, fitted constants, measured
timings and versions.  Logs go to standard error only.

Exit codes: 0 success, or the `exit_code` of the ChatterlabError that ended
the run (`errors`): 2 configuration error, 3 solver infeasibility,
4 synthesis failure, 5 truncation failure, 6 hybrid/Zeno failure,
7 equibound violation, 1 unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

from . import __version__
from .controls import ProblemSpec, simulate
from .errors import ChatterlabError, ConfigError, DegenerateFit, Inconclusive
from .fuller import chattering_reference, default_synthesis, optimal_cost
from .hybrid import (
    bouncing_ball,
    bouncing_ball_lagrangian,
    execute,
    water_tank,
    water_tank_lagrangian,
    zeno_rate_sweep,
    zeno_tail_cost,
)
from .records import RateRecord, write_csv, write_manifest
from .solver import regularization_path
from .truncation import (
    HOLDER_EXPONENT,
    STEERING_RADIUS,
    TAIL_TV_BUDGET,
    composite_rate_bound,
    l1_control_distance,
    sup_state_deviation,
    truncation_rate_sweep,
)

EXPERIMENTS = ("fuller-synthesize", "tv-path", "truncation-rate",
               "zeno-rate", "corollary-check")


@dataclass(frozen=True)
class _Model:
    """A built-in zeno-rate model: its automaton builder (keyword physics
    from model_params), its running cost and the defaults of the run values
    model_params may override."""

    build: Callable
    lagrangian: Callable
    run: dict


_MODELS = {
    "water-tank": _Model(water_tank, water_tank_lagrangian,
                         {"q0": "fill-1", "x0": (0.5, 0.5), "horizon": 5.0,
                          "max_events": 30}),
    "bouncing-ball": _Model(bouncing_ball, bouncing_ball_lagrangian,
                            {"q0": "flight", "x0": (1.0, 0.0), "horizon": 5.0,
                             "max_events": 22}),
}


@dataclass
class ExperimentConfig:
    experiment: str
    #: None means (1, 0); zeno-rate takes its state from model_params.x0
    x0: tuple[float, float] | None = None
    eps: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    n: list = field(default_factory=list)
    model: str = "water-tank"
    model_params: dict = field(default_factory=dict)
    tol: float = 1e-10
    out: str = "runs"

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.experiment == "zeno-rate":
            if not isinstance(self.model, str) or self.model not in _MODELS:
                raise ConfigError(f"unknown model {self.model!r}")
            if self.x0 is not None:
                raise ConfigError("zeno-rate takes its initial state from "
                                  "model_params.x0, not from x0")
        else:
            self.x0 = tuple(_finite_numbers("x0", (1.0, 0.0) if self.x0 is None
                                            else self.x0))
            if len(self.x0) != 2:
                raise ConfigError("x0 needs exactly two components")
            if self.x0 == (0.0, 0.0):
                raise ConfigError("x0 must differ from the origin")
        if not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"out must be a nonempty path, got {self.out!r}")
        if not isinstance(self.model_params, dict):
            raise ConfigError(f"model_params must be an object, got {self.model_params!r}")
        (self.tol,) = _finite_numbers("tol", [self.tol])
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        self.eps = sorted(_finite_numbers("eps", self.eps), reverse=True)
        self.eta = sorted(_finite_numbers("eta", self.eta), reverse=True)
        if any(e <= 0 for e in self.eps) or any(e <= 0 for e in self.eta):
            raise ConfigError("grid values must be positive")
        n = _finite_numbers("n", self.n)
        if any(v != int(v) for v in n):
            raise ConfigError("truncation depths must be integers")
        self.n = sorted(int(v) for v in n)
        for name in ("eps", "eta", "n"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} grid repeats a value")
        return self

    def echo(self) -> dict:
        """Every field but the output directory, for the manifest."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


def _finite_numbers(name: str, values) -> list:
    """Floats of a list of configuration values; ConfigError unless each is
    an int or a float (not a bool) that is finite as a float."""
    try:
        out = [float(v) for v in values
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    except (TypeError, OverflowError):  # not a list; an int past the float range
        raise ConfigError(f"{name} must hold finite numbers, got {values!r}") from None
    if len(out) != len(values) or not all(math.isfinite(v) for v in out):
        raise ConfigError(f"{name} must hold finite numbers, got {values!r}")
    return out


def parse_grid(text: str):
    """Grid syntax: 'a,b,c' explicit, or 'hi:lo:decade' for a decade ladder,
    or 'a:b' for an inclusive integer range."""
    text = text.strip()
    if not text:
        raise ConfigError("empty grid")
    parts = text.split(":")
    decade = len(parts) == 3 and parts[2] == "decade"
    try:
        if len(parts) == 1:
            return [float(v) for v in text.split(",")]
        if len(parts) == 2:
            a, b = int(parts[0]), int(parts[1])
            return list(range(min(a, b), max(a, b) + 1))
        if decade:
            hi, lo = float(parts[0]), float(parts[1])
            positive = hi > 0 and lo > 0
            hi, lo = max(hi, lo), min(hi, lo)
            decades = math.log10(hi / lo) if positive else 0.0
            n_dec = round(decades)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}") from None
    # raised here, not in the try: a ConfigError is a ValueError too
    if not decade:
        raise ConfigError(f"cannot parse grid {text!r}")
    if not positive:
        raise ConfigError("decade grids need positive endpoints")
    if n_dec < 1 or abs(decades - n_dec) > 1e-9:
        raise ConfigError("decade grids need endpoints a power of ten apart")
    return [hi * 10.0 ** (-k) for k in range(n_dec + 1)]


def _parse_x0(text: str):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse x0 {text!r}: {exc}") from None
    return tuple(parts)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = _Parser(
        prog="chatterlab",
        description="chattering-control regularization experiments")
    sub = parser.add_subparsers(dest="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--x0", default=None, help="initial state, e.g. 1,0")
        p.add_argument("--eps", default=None, help="penalty grid, e.g. 1e-1:1e-6:decade")
        p.add_argument("--eta", default=None, help="cut-window grid")
        p.add_argument("--n", default=None, help="event-depth grid, e.g. 2:12")
        p.add_argument("--model", default=None, choices=sorted(_MODELS))
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory")
    return parser


def load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    keys = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - keys)
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
    # the subcommand names the experiment; a config-file "experiment" is
    # accepted and ignored
    cfg = ExperimentConfig(experiment=args.experiment)
    for key in keys - {"experiment"}:
        if key in data:
            setattr(cfg, key, data[key])
    # command-line flags override the config file; the state and the grids
    # are parsed, the rest taken as given
    flags = {"x0": _parse_x0, "eps": parse_grid, "eta": parse_grid, "n": parse_grid,
             "model": None, "tol": None, "out": None}
    for key, parse in flags.items():
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value if parse is None else parse(value))
    return cfg.validate()


def _versions() -> dict:
    return {
        "chatterlab": __version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _reference_solution(cfg: ExperimentConfig):
    """The synthesized reference and the spec every candidate of the run is
    held to: its equibound is 1e3, or ten times the reference's own
    t* + sup|x*| when that is larger, so the reference is admissible."""
    synth = default_synthesis(truncation_tol=cfg.tol)
    u_star, t_star, traj_star = chattering_reference(cfg.x0, synth)
    spec = ProblemSpec(x0=cfg.x0,
                       equibound=max(1e3, 10.0 * (t_star + traj_star.sup_abs())))
    j_star = optimal_cost(cfg.x0, synth)
    return synth, spec, u_star, t_star, traj_star, j_star


def run_fuller_synthesize(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    records = []
    acc_tv = 0.0
    for k, arc in enumerate(traj_star.arcs[:-1]):
        t_k = u_star.breakpoints[k + 1]
        if k > 0:
            acc_tv += abs(u_star.values[k] - u_star.values[k - 1])
        x_k = arc.end_state
        # an arc that starts outside the truncation radius follows the
        # feedback to a switch state, where the optimal cost is K|x2|^5
        feedback = math.hypot(*arc.x0) >= synth.truncation_tol
        records.append(RateRecord(
            param=t_k,
            cost_gap=(synth.value_constant * abs(x_k[1]) ** 5 if feedback
                      else optimal_cost(x_k, synth)),
            sup_dev=math.hypot(*x_k),
            l1_dev=t_star - t_k,
            tv=acc_tv + (abs(u_star.values[k + 1] - u_star.values[k])),
            wall_ms=0.0,
        ))
    # the closing two-arc tail replaces the infinite switching cascade; its
    # own running cost bounds the replacement error, which scales like
    # truncation_radius^(5/2)
    tail_cost = sum(arc.cost_x1sq() for arc in traj_star.arcs[-2:])
    manifest = {
        "zeta": synth.zeta,
        "rho": synth.rho,
        "t_star": t_star,
        "j_star": j_star,
        "n_arcs": u_star.n_arcs,
        "terminal_state": list(traj_star.final_state),
        "truncation_radius": synth.truncation_tol,
        "tail_cost": tail_cost,
    }
    return records, manifest


def _sweep_report(path) -> dict:
    """Manifest entries of a path's (count, sign) subproblems, each with its
    running cost J_n (None when infeasible), the projected-gradient norm at
    the returned durations (first-order certificate), the objective
    evaluations and the feasible starts; and where the count sweep stopped
    and why."""
    return {
        "subproblems": [
            {"n_switches": n, "sign": sign, "lagrangian": lag, "pg_norm": r.pg_norm,
             "evaluations": r.evaluations, "feasible_starts": r.feasible_starts}
            for n, sign, lag, r in path.subproblems],
        "sweep_stop": asdict(path.stop),
    }


def run_tv_path(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    path = regularization_path(cfg.eps, spec, synth=synth)
    records = []
    # a path holds one candidate object for every epsilon that selects it,
    # so each distinct candidate is simulated and measured once
    deviations = {}
    for point in path.records:
        t0 = time.perf_counter()
        cand = point.candidate
        if cand not in deviations:
            control = cand.control()
            traj = simulate(spec, control)
            deviations[cand] = (sup_state_deviation(traj, traj_star),
                                l1_control_distance(control, u_star))
        sup_dev, l1_dev = deviations[cand]
        records.append(RateRecord(
            param=point.epsilon,
            cost_gap=point.lagrangian - j_star,
            sup_dev=sup_dev,
            l1_dev=l1_dev,
            tv=point.tv,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        ))
    manifest = {
        "j_star": j_star,
        "laws": path.laws(),
        "per_epsilon": [
            {"epsilon": p.epsilon, "n_switches": p.n_switches,
             "lagrangian": p.lagrangian, "tv": p.tv, "value": p.value}
            for p in path.records
        ],
        **_sweep_report(path),
    }
    return records, manifest


def _default_eta_grid(u_star, traj_star):
    """Logarithmic cut-window grid inside `truncate`'s steering
    neighborhood, the ball of radius R = STEERING_RADIUS: nine windows over
    three decades.

    The largest window ends at 0.9 of the time left after the last of the
    samples t_k = t* (k + 1) / 2001, k < 2000, where the reference lies
    outside that ball.  The samples are scanned backward from the last,
    stopping at the first one outside.  Two rules skip samples that cannot
    be outside, so a scan evaluates a few states instead of hundreds:
    - on an arc whose sup norm times sqrt(2) is below R - 1e-9, no sample
      is outside, and the scan moves on to the previous arc;
    - at a sample of radius r <= R and velocity x2, the arc's motion s
      earlier differs by (-x2 s + u s^2 / 2, -u s), at most
      s (|x2| + 1) + s^2 / 2 in norm for |u| <= 1.  Every sample of the
      same arc within the s where that reaches R - r, less a rounding
      allowance of 1e-9 (1 + t*)^2, is inside.
    A skip ends at the previous arc, where another motion takes over, and
    keeps only samples more than 1e-9 of a spacing above its limits, far
    beyond the rounding of t_k, so the scan stops at the sample, and
    returns the floats, that a scan of all 2000 samples does.  Raises
    DegenerateFit when the smallest window is below the normal floats.
    """
    t_star = u_star.duration
    arcs, ends = traj_star.arcs, traj_star.ends
    allowance = 1e-9 * (1.0 + t_star) ** 2
    hi = None
    k = 1999
    while k >= 0:
        t = t_star * (k + 1) / 2001.0
        i = bisect_left(ends, t)  # arcs[i] is the first arc ending at or after t
        arc = arcs[i]
        floor = ends[i - 1] if i > 0 else 0.0
        if math.sqrt(2.0) * arc.sup_abs() >= STEERING_RADIUS - 1e-9:
            x1, x2 = arc.state_at(t - arc.t0)
            r = math.hypot(x1, x2)
            if r > STEERING_RADIUS:
                hi = t
                break
            gap, b = max(0.0, STEERING_RADIUS - r - allowance), abs(x2) + 1.0
            # the root s of s^2 / 2 + b s = gap
            floor = max(floor, t - 2.0 * gap / (b + math.sqrt(b * b + 2.0 * gap)))
        k = min(k - 1, math.floor(floor * 2001.0 / t_star + 1e-9) - 1)
    eta_max = 0.9 * (t_star - hi) if hi is not None else 0.9 * t_star
    etas = [eta_max * 10.0 ** (-3 * k / 8) for k in range(9)]
    if not etas[-1] >= sys.float_info.min:
        raise DegenerateFit(f"the cut windows below t* = {t_star:.3g} underflow")
    return etas


def run_truncation_rate(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    etas = cfg.eta or _default_eta_grid(u_star, traj_star)
    sweep = truncation_rate_sweep(u_star, traj_star, etas, spec)
    manifest = {
        "j_star": j_star,
        "t_star": t_star,
        "fitted_exponent": sweep.exponent,
        "fitted_constant": sweep.constant,
        "max_rel_residual": sweep.max_rel_residual,
        "n_dropped_at_floor": sweep.n_dropped,
        "monotone": sweep.monotone,
        "tail_tv_budget_ok": all(rec.tv <= res.prefix_tv + TAIL_TV_BUDGET
                                 for rec, res in zip(sweep.records, sweep.results)),
    }
    return list(sweep.records), manifest


def run_corollary_check(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    path = regularization_path(cfg.eps, spec, synth=synth)
    check = composite_rate_bound(path.records, u_star, j_star)
    records = []
    for (eps, gap, lag, bound), point in zip(check.rows, path.records):
        records.append(RateRecord(
            param=eps,
            cost_gap=gap,
            sup_dev=lag,
            l1_dev=bound,
            tv=point.tv,
            wall_ms=0.0,
        ))
    manifest = {
        "j_star": j_star,
        "m_hat": check.m_hat,
        "bound_holds_everywhere": check.holds,
        "holder_exponent": HOLDER_EXPONENT,
        **_sweep_report(path),
    }
    return records, manifest


def _check_run_values(run: dict, modes) -> None:
    """ConfigError unless the zeno-rate run values have their types."""
    if not (isinstance(run["q0"], str) and run["q0"] in modes):
        raise ConfigError(f"model_params.q0 must be one of {', '.join(modes)}, "
                          f"got {run['q0']!r}")
    if len(_finite_numbers("model_params.x0", run["x0"])) != 2:
        raise ConfigError(f"model_params.x0 must be two finite numbers, got {run['x0']!r}")
    if _finite_numbers("model_params.horizon", [run["horizon"]])[0] <= 0:
        raise ConfigError("model_params.horizon must be a finite number > 0, "
                          f"got {run['horizon']!r}")
    max_events = run["max_events"]
    if isinstance(max_events, bool) or not isinstance(max_events, int) or max_events < 1:
        raise ConfigError(f"model_params.max_events must be an integer >= 1, "
                          f"got {max_events!r}")


def run_zeno_rate(cfg: ExperimentConfig):
    model = _MODELS[cfg.model]
    run = dict(model.run)
    builder_kwargs = {}
    for key, value in cfg.model_params.items():
        if key in run:
            run[key] = value
        else:
            builder_kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        system = model.build(**builder_kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad model parameters for {cfg.model}: {exc}") from None
    _check_run_values(run, system.modes)
    traj = execute(system, run["q0"], run["x0"], run["horizon"],
                   max_events=run["max_events"])
    try:
        fit = traj.fit
    except ValueError as exc:  # too few events to fit
        stop = ("its event budget or Zeno cut" if traj.hit_max_events
                else f"the horizon {run['horizon']:g}")
        raise Inconclusive(f"model {cfg.model} reached {stop}: {exc}") from None
    if not fit.is_zeno:
        raise Inconclusive(f"model {cfg.model} did not produce a Zeno execution")
    lagrangian = model.lagrangian()
    ns = [n for n in cfg.n if n < traj.n_events]
    dropped = [n for n in cfg.n if n >= traj.n_events]
    if dropped:
        print(f"warning: dropped truncation depths {', '.join(map(str, dropped))}: "
              f"the run has {traj.n_events} events", file=sys.stderr)
    sweep = zeno_rate_sweep(traj, ns, lagrangian, system)
    # the linear cost-gap rate is asserted for identity resets only
    linear_rate_asserted = all(reset is None for reset in system.resets.values())
    if linear_rate_asserted and sweep.gap_slope is None:
        raise DegenerateFit("cost gaps at the rounding floor leave no linear-rate fit")
    tail, tail_bound = zeno_tail_cost(traj, lagrangian)
    manifest = {
        "model": cfg.model,
        "tau_inf": fit.tau_inf,
        "zeno_ratio": fit.ratio,
        "zeno_fit_residual": fit.residual,
        "n_events": traj.n_events,
        "dropped_depths": dropped,
        "dev_slope": sweep.dev_slope,
        "gap_slope": sweep.gap_slope,
        "gap_constant": sweep.gap_constant,
        "rate_bound_constant": sweep.rate_bound_constant,
        "bound_ok": sweep.bound_ok,
        "max_guard_residual": max(traj.guard_residuals),
        "zeno_tail_cost": tail,
        "zeno_tail_error_bound": tail_bound,
        "linear_rate_asserted": linear_rate_asserted,
    }
    return list(sweep.records), manifest


_RUNNERS = {
    "fuller-synthesize": run_fuller_synthesize,
    "tv-path": run_tv_path,
    "truncation-rate": run_truncation_rate,
    "zeno-rate": run_zeno_rate,
    "corollary-check": run_corollary_check,
}


def run(cfg: ExperimentConfig) -> int:
    """Dispatch one experiment; writes `<experiment>.csv` and
    `<experiment>-manifest.json` under the output directory."""
    t0 = time.perf_counter()
    records, manifest = _RUNNERS[cfg.experiment](cfg)
    wall_total = (time.perf_counter() - t0) * 1e3
    payload = {
        "config": cfg.echo(),
        "results": manifest,
        "timings_ms": {
            "total": wall_total,
            "per_record": [r.wall_ms for r in
                           sorted(records, key=lambda r: r.param)],
        },
        "versions": _versions(),
    }
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = write_csv(out_dir / f"{cfg.experiment}.csv", records)
        write_manifest(out_dir / f"{cfg.experiment}-manifest.json", payload)
    except OSError as exc:
        raise ConfigError(f"cannot write output under {cfg.out}: "
                          f"{exc.strerror or exc}") from None
    print(f"wrote {csv_path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.experiment:
            raise ConfigError(f"choose an experiment: {', '.join(EXPERIMENTS)}")
        cfg = load_config(args)
        return run(cfg)
    except ChatterlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
