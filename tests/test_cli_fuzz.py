"""Seeded fuzz of the CLI inputs: every run ends in a documented exit.

Each case draws an experiment, grid flags (`--eps`, `--eta`, `--n`) in every
grid syntax, an `--x0` over many magnitudes and a config file with some of
its keys, `model_params` included.  Each part is well formed most of the
time and broken now and then, so runs reach every layer.  Every exit code
must be 0 or one of 2-7 with exactly one stderr line ("wrote ..." or
"error: ..."; a zeno-rate run may add its documented dropped-depth warning)
and no traceback.  Successful runs stay small: no penalty below 1e-2 and no
event budget above 200.  Edge cases of the double-integrator experiments
follow the drawn ones: states on or within 1e-14 of the switching curve
below unit scale, small states at a truncation radius comparable to |x0|,
states near overflow, subnormal states and states just inside the curve;
last comes a water-tank run whose horizon ends it after its ninth event,
before its accumulation time.
"""

import json
import math
import random

from chatterlab.cli import main
from chatterlab.fuller import default_synthesis

SEED = 20261018
CASES = 180

GRIDS = {
    "--eps": ["1e-1", "1e-1,1e-2", "1e-1:1e-2:decade", "0.5,1e-1"],
    "--eta": ["1e-1:1e-3:decade", "0.5,0.1,0.05,0.01,0.005", "0.1,0.01",
              "0.3,0.2,0.1,0.05,0.03", "1e-1:1e-4:decade", "5,1,0.1,0.01,0.001"],
    "--n": ["2:12", "2:8", "3:9", "2,3,4,5,6", "0:40", "2:3", "12:2"],
}
BAD_TOKENS = ["0", "-1", "nan", "inf", "1e400", "x", "", "2.5", "1e-300"]
#: the flags each experiment reads
READS = {"fuller-synthesize": (), "tv-path": ("--eps",), "corollary-check": ("--eps",),
         "truncation-rate": ("--eta",), "zeno-rate": ("--n",)}
#: every experiment takes 1-40 ms on these grids, a solver run included
EXPERIMENTS = ["fuller-synthesize"] * 6 + ["truncation-rate"] * 7 + ["zeno-rate"] * 11 \
    + ["tv-path", "corollary-check"] * 6
PARAMS = {
    "water-tank": {"inflow": lambda r: r.uniform(0.55, 1.05),
                   "drain": lambda r: r.choice([[0.5, 0.5], [0.4, 0.6]]),
                   "thresholds": lambda r: r.choice([[0.0, 0.0], [0.1, 0.0]]),
                   "q0": lambda r: r.choice(["fill-1", "fill-2"]),
                   "x0": lambda r: [r.uniform(0.1, 1.0), r.uniform(0.1, 1.0)]},
    "bouncing-ball": {"restitution": lambda r: r.uniform(0.05, 0.95),
                      "gravity": lambda r: r.uniform(0.5, 3.0),
                      "q0": lambda r: "flight",
                      "x0": lambda r: [r.uniform(0.1, 2.0), r.uniform(-1.0, 1.0)]},
}
RUN = {"horizon": lambda r: r.uniform(0.5, 30.0),
       "max_events": lambda r: r.choice([8, 22, 30, 200])}
NONSENSE = [0, -1.0, 1.5, 3, math.nan, math.inf, 10 ** 400, "x", True, None, [0.5], {}]


def _grid(rng, flag):
    if rng.random() < 0.85:
        return rng.choice(GRIDS[flag])
    tokens = [rng.choice(BAD_TOKENS) for _ in range(3)]
    return rng.choice([",".join(tokens), ":".join(tokens[:2]),
                       f"{tokens[0]}:{tokens[1]}:decade", "1:2:3", "1e-1:1e-2:century"])


def _x0(rng):
    u = rng.random()
    if u < 0.6:
        exponents = [-9, -1, 0, 0, 0, 1]
    elif u < 0.85:
        exponents = [8, 12, 200, 300, -300, 400]
    else:
        return rng.choice(["nan,0", "inf,1", "1", "1,0,0", "a,b", "0,0"])
    return ",".join(f"{rng.choice(['', '-'])}{rng.uniform(1.0, 9.9):.4g}"
                    f"e{rng.choice(exponents)}" for _ in range(2))


def _model_params(rng, model):
    table = {**PARAMS[model], **RUN, "bogus": lambda r: 1.0}
    keys = rng.sample(sorted(table), rng.randint(1, 3))
    return {key: table[key](rng) if rng.random() < 0.8 and key != "bogus"
            else rng.choice(NONSENSE) for key in keys}


def _config(rng, experiment, model):
    config = {}
    for key in rng.sample(["x0", "eps", "eta", "n", "tol", "seed", "model_params"],
                          rng.randint(1, 3)):
        broken = rng.random() < 0.25
        if key == "model_params":
            config[key] = rng.choice(NONSENSE) if broken else _model_params(rng, model)
        elif key == "seed":
            config[key] = rng.choice(["abc", -1, 2.5, True]) if broken else rng.randint(0, 9)
        elif key == "tol":
            config[key] = rng.choice([0, -1, 1e-14, "x"]) if broken else 1e-10
        elif key == "x0":
            if experiment != "zeno-rate" or broken:
                config[key] = [rng.choice(NONSENSE), 0.5] if broken else [0.6, -0.3]
        elif broken:
            config[key] = rng.choice([[rng.choice(NONSENSE)], rng.choice(NONSENSE)])
        else:
            config[key] = {"eps": [0.1, 0.01], "eta": [0.1, 0.03, 0.01, 0.003, 0.001],
                           "n": [2, 3, 4, 5, 6, 7]}[key]
    return config


def _case(rng):
    experiment = rng.choice(EXPERIMENTS)
    model = rng.choice(sorted(PARAMS))
    argv = [experiment]
    if experiment == "zeno-rate":
        argv += ["--model", model]
    if (experiment != "zeno-rate" and rng.random() < 0.8) or rng.random() < 0.1:
        argv.append(f"--x0={_x0(rng)}")
    for flag in GRIDS:
        if rng.random() < (0.9 if flag in READS[experiment] else 0.15):
            argv.append(f"{flag}={_grid(rng, flag)}")
    if rng.random() < 0.1:
        argv += [rng.choice(["--seed", "--tol"]), rng.choice(["x", "1", "-1", "1e-14"])]
    config = _config(rng, experiment, model) if rng.random() < 0.4 else {}
    if "--eps" in READS[experiment] and rng.random() < 0.3:
        # a truncation radius comparable to |x0|, where the reference is
        # mostly its closing tail
        argv += ["--tol", rng.choice(["0.5", "3"])]
    return argv, config


#: inputs that once ended in a traceback, run ahead of the drawn cases:
#: integer ranges with a non-integer end; states so far outside the
#: truncation radius that the switch intervals stop advancing the clock or
#: the first arc overflows; states within 1e-14 of the curve but far from it
#: at their own scale; a cut on the closing tail's switching curve; a
#: subnormal state whose cut windows underflow; states whose feedback
#: crossing came sooner than a start-point skip (just inside the curve, and
#: on it with a subnormal x1); a subnormal state whose wrong-sign
#: terminal pair rounded to two zero durations; and grids the CLI passed on
#: that the sweeps reject: a negative truncation depth, on the command line
#: and in a config file, and cut windows spanning just under 99x
KNOWN = [
    (["zeno-rate", "--n=2:x"], {}),
    (["zeno-rate", "--n=2.5:8"], {}),
    (["fuller-synthesize", "--x0=1e12,0"], {}),
    (["fuller-synthesize", "--x0=1e200,0"], {}),
    (["truncation-rate", "--x0=1e12,0"], {}),
    (["fuller-synthesize", "--x0=-5e-15,1.5e-10"], {}),
    (["tv-path", "--x0=-1e-14,1e-7", "--eps=1e-1"], {}),
    (["truncation-rate", "--x0=0.2,0", "--tol", "0.5"], {}),
    (["corollary-check", "--x0=1e154,1e154", "--eps=1e-1,1e-2"], {}),
    (["truncation-rate", "--x0=0,5e-324"], {}),
    (["fuller-synthesize", "--x0=-0.4446235601873816,1"], {}),
    (["tv-path", "--x0=-3.0751893392e-313,8.316482812154222e-157", "--eps=1e-1"], {}),
    (["tv-path", "--x0=0.0,-3.72988e-318", "--eps=1e-1:1e-2:decade"], {}),
    (["zeno-rate", "--n=-3:5"], {}),
    (["zeno-rate"], {"n": [-1, 2, 3, 4, 5, 6]}),
    (["truncation-rate", "--eta=49.04812357402852,10,5,1,0.4954355916568538"], {}),
]


def _edge_case(rng, kind):
    """A double-integrator run from one of the five edge classes."""
    experiment = "truncation-rate" if kind == 1 else rng.choice(
        ["fuller-synthesize", "truncation-rate", "tv-path", "corollary-check"])
    sign = rng.choice([1.0, -1.0])
    if kind == 0:  # on the curve, or within 1e-14 of it
        x2 = sign * rng.uniform(1.0, 9.9) * 10.0 ** rng.randint(-12, -1)
        x1 = -default_synthesis().zeta * x2 * abs(x2)
        if abs(x2) < 1e-5:
            x1 += rng.uniform(-1e-14, 1e-14)
    elif kind == 1:  # the reference is mostly its closing tail
        r, a = rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        x1, x2 = r * math.cos(a), r * math.sin(a)
    elif kind == 2:  # near overflow, x2^2 finite or not
        x1 = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(0.0, 308.0)
        x2 = sign * 10.0 ** rng.uniform(153.5, 154.5)
    elif kind == 3:  # subnormal components
        x1, x2 = (rng.choice([0.0, sign]) * rng.randint(1, 10 ** 6) * 5e-324
                  for _ in range(2))
        x2 = x2 or 5e-324
    else:  # just inside the curve, at a relative residual of 1e-16 to 1e-10
        zeta = default_synthesis().zeta
        x2 = sign * 10.0 ** rng.uniform(-6.0, 2.0)
        residual = 10.0 ** rng.uniform(-16.0, -10.0) * (1.0 + zeta) * x2 * x2
        x1 = -zeta * x2 * abs(x2) - sign * residual
    argv = [experiment, f"--x0={x1!r},{x2!r}"]
    if experiment in ("tv-path", "corollary-check"):
        argv.append("--eps=1e-1:1e-2:decade")
    if kind == 1:
        argv += ["--tol", rng.choice(["0.5", "3"])]
    return argv, {}


EDGE_CASES = 50

#: the default tank's ninth event is at 3.98828125 and its tenth at 3.994140625
HORIZON_CUT = (["zeno-rate", "--model", "water-tank", "--n=2:8"],
               {"model_params": {"horizon": 3.99}})

CASE_LIST = KNOWN + [_case(random.Random(SEED + k)) for k in range(CASES)] + [
    _edge_case(random.Random(SEED + CASES + k), k % 5) for k in range(EDGE_CASES)] + [
    HORIZON_CUT]


def test_fuzzed_inputs_end_in_documented_exits(tmp_path, capsys):
    for k, (argv, config) in enumerate(CASE_LIST):
        args = list(argv)
        if config:
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        code = main(args + ["--out", str(tmp_path / f"out{k}")])
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines()
                 if not line.startswith("warning: dropped truncation depths")]
        assert code == 0 or 2 <= code <= 7, (args, config, code, err)
        assert len(lines) == 1 and "Traceback" not in err, (args, config, err)
        assert lines[0].startswith("wrote " if code == 0 else "error: "), (args, err)


def test_path_manifests_say_where_the_sweep_stopped(tmp_path):
    # every tv-path and corollary-check case that succeeds lists J_n per
    # subproblem (None where no start was feasible) and the sweep's stop:
    # its last count, the lower bound J_floor = J*, the least J_n - J_floor,
    # and why the sweep ended there
    ran = 0
    for k, (argv, config) in enumerate(CASE_LIST):
        if argv[0] not in ("tv-path", "corollary-check"):
            continue
        args = list(argv)
        if config:
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        out = tmp_path / f"out{k}"
        if main(args + ["--out", str(out)]) != 0:
            continue
        results = json.loads((out / f"{argv[0]}-manifest.json").read_text())["results"]
        entries, stop = results["subproblems"], results["sweep_stop"]
        j_floor = stop["j_floor"]
        assert all((e["lagrangian"] is None) == (e["feasible_starts"] == 0)
                   for e in entries), args
        assert stop["n_switches"] == entries[-1]["n_switches"], args
        assert j_floor == results["j_star"], args
        assert stop["min_gap"] == min(e["lagrangian"] - j_floor for e in entries
                                      if e["lagrangian"] is not None), args
        if stop["reason"] == "j_star_bound":
            assert stop["min_gap"] < stop["two_eps_min"] + 1e-13 * max(1.0, abs(j_floor))
        else:
            assert stop["reason"] == "max_switches" and stop["n_switches"] == 40, args
        ran += 1
    assert ran >= 10
