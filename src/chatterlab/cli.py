"""Command-line front end: run the experiment families and emit CSV/JSON.

Each experiment writes one CSV of sweep records (sorted by parameter, 17
significant digits, wall column zeroed so reruns are byte identical) and a
JSON manifest with the configuration echo, fitted constants, measured
timings and versions.  Logs go to standard error only.

Exit codes: 0 success, 2 configuration error, 3 solver infeasibility,
4 synthesis failure, 5 truncation failure, 6 hybrid/Zeno failure,
7 equibound violation, 1 unexpected error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .controls import ProblemSpec, lagrangian_cost, simulate, tv
from .errors import (
    AllStartsInfeasible,
    ChatterlabError,
    ConfigError,
    CutTooLarge,
    DegenerateFit,
    EquiboundViolation,
    EventOverflow,
    Inconclusive,
    Infeasible,
    NoRootBracket,
    TolTooSmall,
)
from .fuller import default_synthesis, synthesize_chattering
from .hybrid import (
    MODEL_BUILDERS,
    bouncing_ball_lagrangian,
    detect_zeno,
    run_until_overflow,
    water_tank_lagrangian,
    zeno_rate_sweep,
    zeno_tail_cost,
)
from .records import RateRecord, write_csv, write_manifest
from .solver import regularization_path
from .truncation import (
    composite_rate_bound,
    l1_control_distance,
    sup_state_deviation,
    truncation_rate_sweep,
)

EXPERIMENTS = ("fuller-synthesize", "tv-path", "truncation-rate",
               "zeno-rate", "corollary-check")

_EXIT_CODES = (
    ((ConfigError,), 2),
    ((Infeasible, AllStartsInfeasible), 3),
    ((NoRootBracket, TolTooSmall), 4),
    ((CutTooLarge, DegenerateFit), 5),
    ((EventOverflow, Inconclusive), 6),
    ((EquiboundViolation,), 7),
)


@dataclass
class ExperimentConfig:
    experiment: str
    x0: tuple[float, float] = (1.0, 0.0)
    eps: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    n: list = field(default_factory=list)
    model: str = "water-tank"
    model_params: dict = field(default_factory=dict)
    seed: int = 0
    tol: float = 1e-10
    out: str = "runs"

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.experiment in ("tv-path", "corollary-check") and not self.eps:
            raise ConfigError("epsilon grid must be nonempty")
        if self.experiment == "zeno-rate":
            if not self.n:
                raise ConfigError("truncation-depth grid must be nonempty")
            if self.model not in MODEL_BUILDERS:
                raise ConfigError(f"unknown model {self.model!r}")
        self.x0 = tuple(_finite_numbers("x0", self.x0))
        if len(self.x0) != 2:
            raise ConfigError("x0 needs exactly two components")
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
        return {
            "experiment": self.experiment,
            "x0": list(self.x0),
            "eps": self.eps,
            "eta": self.eta,
            "n": self.n,
            "model": self.model,
            "model_params": self.model_params,
            "seed": self.seed,
            "tol": self.tol,
        }


def _finite_numbers(name: str, values) -> list:
    """Floats of a configuration value; ConfigError unless all are finite."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must hold numbers, got {values!r}") from None
    if not all(math.isfinite(v) for v in out):
        raise ConfigError(f"{name} must be finite, got {values!r}")
    return out


def parse_grid(text: str):
    """Grid syntax: 'a,b,c' explicit, or 'hi:lo:decade' for a decade ladder,
    or 'a:b' for an inclusive integer range."""
    text = text.strip()
    if not text:
        raise ConfigError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 3 and parts[2] == "decade":
            hi, lo = float(parts[0]), float(parts[1])
            if hi <= 0 or lo <= 0:
                raise ConfigError("decade grids need positive endpoints")
            if hi < lo:
                hi, lo = lo, hi
            n_dec = round(math.log10(hi / lo))
            if n_dec < 1 or abs(math.log10(hi / lo) - n_dec) > 1e-9:
                raise ConfigError("decade grids need endpoints a power of ten apart")
            return [hi * 10.0 ** (-k) for k in range(n_dec + 1)]
        if len(parts) == 2:
            a, b = int(parts[0]), int(parts[1])
            if b < a:
                a, b = b, a
            return list(range(a, b + 1))
        raise ConfigError(f"cannot parse grid {text!r}")
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}") from None


def _parse_x0(text: str):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse x0 {text!r}: {exc}") from None
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--model", default=None, choices=sorted(MODEL_BUILDERS))
        p.add_argument("--seed", type=int, default=None)
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
    cfg = ExperimentConfig(experiment=args.experiment)
    for key in ("x0", "eps", "eta", "n", "model", "seed", "tol", "out"):
        if key in data:
            setattr(cfg, key, data[key])
    cfg.model_params = dict(data.get("model_params", {}))
    # command-line flags override the config file
    if args.x0 is not None:
        cfg.x0 = _parse_x0(args.x0)
    if args.eps is not None:
        cfg.eps = parse_grid(args.eps)
    if args.eta is not None:
        cfg.eta = parse_grid(args.eta)
    if args.n is not None:
        cfg.n = parse_grid(args.n)
    if args.model is not None:
        cfg.model = args.model
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol is not None:
        cfg.tol = args.tol
    if args.out is not None:
        cfg.out = args.out
    return cfg.validate()


def _versions() -> dict:
    return {
        "chatterlab": __version__,
        "numpy": np.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _reference_solution(cfg: ExperimentConfig):
    synth = default_synthesis(truncation_tol=cfg.tol)
    spec = ProblemSpec(x0=cfg.x0)
    u_star, t_star = synthesize_chattering(cfg.x0, synth)
    traj_star = simulate(spec, u_star)
    j_star = lagrangian_cost(traj_star, u_star, spec)
    return synth, spec, u_star, t_star, traj_star, j_star


def run_fuller_synthesize(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    records = []
    running_cost = 0.0
    acc_tv = 0.0
    for k, arc in enumerate(traj_star.arcs[:-1]):
        t_k = u_star.breakpoints[k + 1]
        running_cost += arc.cost_x1sq()
        if k > 0:
            acc_tv += abs(u_star.values[k] - u_star.values[k - 1])
        x_k = arc.end_state
        records.append(RateRecord(
            param=t_k,
            cost_gap=max(j_star - running_cost, 0.0),
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


def run_tv_path(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    path = regularization_path(cfg.eps, spec, seed=cfg.seed, synth=synth)
    records = []
    for point in path.records:
        t0 = time.perf_counter()
        control = point.candidate.control()
        traj = simulate(spec, control)
        records.append(RateRecord(
            param=point.epsilon,
            cost_gap=point.lagrangian - j_star,
            sup_dev=sup_state_deviation(traj, traj_star),
            l1_dev=l1_control_distance(control, u_star),
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
    }
    return records, manifest


def _default_eta_grid(u_star, traj_star, decades: int = 3, points: int = 9):
    """Logarithmic cut-window grid inside the unit steering neighborhood."""
    t_star = u_star.duration
    hi = None
    for k in range(2000):
        t = t_star * (k + 1) / 2001.0
        x = traj_star.state_at(t)
        if math.hypot(*x) > 1.0:
            hi = t
    eta_max = 0.9 * (t_star - hi) if hi is not None else 0.9 * t_star
    return [eta_max * 10.0 ** (-decades * k / (points - 1)) for k in range(points)]


def run_truncation_rate(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    etas = cfg.eta or _default_eta_grid(u_star, traj_star)
    sweep = truncation_rate_sweep(u_star, traj_star, etas, spec, j_star=j_star)
    manifest = {
        "j_star": j_star,
        "t_star": t_star,
        "fitted_exponent": sweep.exponent,
        "fitted_constant": sweep.constant,
        "max_rel_residual": sweep.max_rel_residual,
        "n_dropped_at_floor": sweep.n_dropped,
        "monotone": sweep.monotone,
        "tail_tv_budget_ok": all(
            tv(res.control) <= res.prefix_tv + 4.0 for res in sweep.results),
    }
    return list(sweep.records), manifest


def run_corollary_check(cfg: ExperimentConfig):
    synth, spec, u_star, t_star, traj_star, j_star = _reference_solution(cfg)
    path = regularization_path(cfg.eps, spec, seed=cfg.seed, synth=synth)
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
        "holder_exponent": 0.5,
    }
    return records, manifest


_MODEL_DEFAULTS = {
    "water-tank": {"q0": "fill-1", "x0": (0.5, 0.5), "horizon": 5.0,
                   "max_events": 30},
    "bouncing-ball": {"q0": "flight", "x0": (1.0, 0.0), "horizon": 5.0,
                      "max_events": 22},
}


def run_zeno_rate(cfg: ExperimentConfig):
    run_keys = set(_MODEL_DEFAULTS[cfg.model])
    defaults = dict(_MODEL_DEFAULTS[cfg.model])
    builder_kwargs = {}
    for key, value in cfg.model_params.items():
        if key in run_keys:
            defaults[key] = value
        else:
            builder_kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        system = MODEL_BUILDERS[cfg.model](**builder_kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad model parameters for {cfg.model}: {exc}") from None
    traj = run_until_overflow(system, defaults["q0"],
                              tuple(defaults["x0"]), defaults["horizon"],
                              max_events=int(defaults["max_events"]))
    is_zeno, tau_inf = detect_zeno(traj)
    if not is_zeno:
        raise Inconclusive(f"model {cfg.model} did not produce a Zeno execution")
    lagrangian = (water_tank_lagrangian() if cfg.model == "water-tank"
                  else bouncing_ball_lagrangian())
    ns = [n for n in cfg.n if n < traj.n_events]
    if len(ns) < 5:
        raise ConfigError("need at least 5 usable truncation depths")
    sweep = zeno_rate_sweep(traj, ns, lagrangian, system)
    linear_rate_asserted = cfg.model == "water-tank"
    if linear_rate_asserted and sweep.gap_slope is None:
        raise DegenerateFit("cost gaps at the rounding floor leave no linear-rate fit")
    tail, tail_bound = zeno_tail_cost(traj, lagrangian)
    manifest = {
        "model": cfg.model,
        "tau_inf": tau_inf,
        "n_events": traj.n_events,
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
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(out_dir / f"{cfg.experiment}.csv", records)
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
    write_manifest(out_dir / f"{cfg.experiment}-manifest.json", payload)
    print(f"wrote {csv_path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.experiment:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args)
        return run(cfg)
    except ChatterlabError as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
