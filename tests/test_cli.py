import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chatterlab import cli, errors, fuller, hybrid
from chatterlab.cli import main, parse_grid
from chatterlab.controls import Arc, ProblemSpec, simulate
from chatterlab.errors import ConfigError
from chatterlab.fuller import default_synthesis, synthesize_chattering
from chatterlab.hybrid import GEOMETRIC_FIT_TOL, HybridLagrangian, detect_zeno


def test_parse_decade_grid():
    grid = parse_grid("1e-1:1e-4:decade")
    assert grid == pytest.approx([1e-1, 1e-2, 1e-3, 1e-4])


def test_parse_integer_range():
    assert parse_grid("2:6") == [2, 3, 4, 5, 6]


def test_parse_comma_list():
    assert parse_grid("0.5,0.25,0.125") == [0.5, 0.25, 0.125]


def test_parse_rejects_garbage():
    for bad in ("", "a,b", "1e-1:3e-4:decade", "1:2:3:4", "2:x", "2.5:8"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_decade_grid_faults_keep_their_one_line_messages():
    # a ConfigError is a ValueError: the parse's own except must not wrap it
    for bad, message in (("0:1:decade", "decade grids need positive endpoints"),
                         ("1:2:decade", "decade grids need endpoints a power of ten apart")):
        with pytest.raises(ConfigError) as info:
            parse_grid(bad)
        assert str(info.value) == message


def test_missing_subcommand_exits_with_config_code(capsys):
    assert main([]) == 2


def test_empty_epsilon_grid_is_config_error(tmp_path):
    code = main(["tv-path", "--eps", ",", "--out", str(tmp_path)])
    assert code == 2


def test_fuller_synthesize_outputs(tmp_path):
    code = main(["fuller-synthesize", "--x0", "1,0", "--tol", "1e-10",
                 "--out", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "fuller-synthesize.csv"
    manifest_path = tmp_path / "fuller-synthesize-manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    results = manifest["results"]
    assert 0.40 < results["zeta"] < 0.50
    assert 0.0 < results["rho"] < 1.0
    assert results["t_star"] > 0.0
    assert results["j_star"] > 0.0
    # the cascade-replacement error is bounded by the recorded tail cost,
    # which scales like the 5/2 power of the truncation radius
    assert 0.0 <= results["tail_cost"] <= results["truncation_radius"] ** 2
    header = csv_path.read_text().splitlines()[0]
    assert header == "param,cost_gap,sup_dev,l1_dev,tv,wall_ms"


def test_tv_path_monotone_columns(tmp_path):
    code = main(["tv-path", "--eps", "1e-1:1e-4:decade", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "tv-path.csv").read_text().splitlines()[1:]
    data = [[float(v) for v in row.split(",")] for row in rows]
    eps = [d[0] for d in data]
    tv_col = [d[4] for d in data]
    gap_col = [d[1] for d in data]
    assert eps == sorted(eps)
    # epsilon ascending: total variation falls, running-cost gap rises
    assert all(b <= a for a, b in zip(tv_col, tv_col[1:]))
    assert all(b >= a for a, b in zip(gap_col, gap_col[1:]))
    manifest = json.loads((tmp_path / "tv-path-manifest.json").read_text())
    assert all(manifest["results"]["laws"].values())


def test_coarse_truncation_radius_keeps_j_star(tmp_path):
    # J* is the closed-form optimum, so a truncation radius comparable to
    # |x0| changes neither it nor the sign of any gap, and the sweep still
    # stops on it
    results = {}
    for tol in (None, "0.5", "3"):
        out = tmp_path / str(tol)
        argv = ["tv-path", "--x0=1,0", "--eps", "1e-1:1e-6:decade", "--out", str(out)]
        assert main(argv + (["--tol", tol] if tol else [])) == 0
        rows = (out / "tv-path.csv").read_text().splitlines()[1:]
        assert all(float(row.split(",")[1]) >= 0.0 for row in rows), tol
        results[tol] = json.loads((out / "tv-path-manifest.json").read_text())["results"]
        stop = results[tol]["sweep_stop"]
        assert stop["reason"] == "j_star_bound" and stop["n_switches"] <= 4, tol
        assert stop["j_floor"] == results[tol]["j_star"]
    assert results["0.5"]["j_star"] == results["3"]["j_star"] == results[None]["j_star"]
    assert results[None]["j_star"] == 0.7640175477256331


def test_config_file_with_flag_override(tmp_path):
    cfg = {"experiment": "tv-path", "x0": [1.0, 0.0],
           "eps": [1e-1, 1e-2], "out": str(tmp_path / "ignored")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "actual"
    code = main(["tv-path", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "tv-path.csv").exists()
    manifest = json.loads((out / "tv-path-manifest.json").read_text())
    assert manifest["config"]["eps"] == [1e-1, 1e-2]


def test_config_file_must_be_valid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tv-path", "--config", str(bad)]) == 2


def test_zeno_rate_needs_model_grid(tmp_path):
    code = main(["zeno-rate", "--model", "water-tank", "--n", "2:3",
                 "--out", str(tmp_path)])
    assert code == 2  # fewer than 5 usable depths


def test_zeno_rate_bouncing_ball_runs(tmp_path):
    code = main(["zeno-rate", "--model", "bouncing-ball", "--n", "2:8",
                 "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "zeno-rate-manifest.json").read_text())
    assert not manifest["results"]["linear_rate_asserted"]
    assert manifest["results"]["tau_inf"] == pytest.approx(4.242640687119285,
                                                           rel=1e-9)


def test_corollary_check_bound_holds(tmp_path):
    code = main(["corollary-check", "--eps", "1e-1:1e-5:decade",
                 "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "corollary-check-manifest.json").read_text())
    assert manifest["results"]["bound_holds_everywhere"]
    rows = (tmp_path / "corollary-check.csv").read_text().splitlines()[1:]
    for row in rows:
        vals = [float(v) for v in row.split(",")]
        assert vals[1] <= vals[3] * (1.0 + 1e-9)  # gap <= bound column


def test_truncation_rate_defaults(tmp_path):
    code = main(["truncation-rate", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "truncation-rate-manifest.json").read_text())
    res = manifest["results"]
    assert res["fitted_exponent"] >= 0.4
    assert res["tail_tv_budget_ok"]
    assert all(res["monotone"].values())


def test_default_eta_grid_equals_the_forward_sample_scan():
    # the backward scan that skips arcs inside the ball returns the floats
    # of sampling all 2000 points forward and keeping the last one outside
    def forward(u_star, traj_star, decades=3, points=9):
        t_star = u_star.duration
        hi = None
        for k in range(2000):
            t = t_star * (k + 1) / 2001.0
            if math.hypot(*traj_star.state_at(t)) > 1.0:
                hi = t
        eta_max = 0.9 * (t_star - hi) if hi is not None else 0.9 * t_star
        return [eta_max * 10.0 ** (-decades * k / (points - 1)) for k in range(points)]

    synth = default_synthesis()
    rng = np.random.default_rng(8)
    states = [(1.0, 0.0), (0.3, -0.2), (40.0, -3.0)]
    states += [tuple(float(v) for v in r * rng.uniform(-1.0, 1.0, 2))
               for r in (0.8, 2.0, 6.0) for _ in range(15)]
    for x0 in states:
        u_star, _ = synthesize_chattering(x0, synth)
        traj_star = simulate(ProblemSpec(x0=x0, equibound=1e6), u_star)
        assert cli._default_eta_grid(u_star, traj_star) == forward(u_star, traj_star)


def forward_eta_grid(u_star, traj_star, decades=3, points=9):
    """The automatic grid from all 2000 samples, scanned forward, keeping the
    last one outside the unit ball."""
    t_star = u_star.duration
    hi = None
    for k in range(2000):
        t = t_star * (k + 1) / 2001.0
        if math.hypot(*traj_star.state_at(t)) > 1.0:
            hi = t
    eta_max = 0.9 * (t_star - hi) if hi is not None else 0.9 * t_star
    return [eta_max * 10.0 ** (-decades * k / (points - 1)) for k in range(points)]


def test_default_eta_grid_skips_exactly_from_far_states():
    # from radii 6-40 the reference's long first arcs pass near the unit
    # ball, where the scan's skips are shortest
    synth = default_synthesis()
    rng = np.random.default_rng(29)
    for _ in range(16):
        r, a = rng.uniform(6.0, 40.0), rng.uniform(0.0, 2.0 * math.pi)
        x0 = (r * math.cos(a), r * math.sin(a))
        u_star, _ = synthesize_chattering(x0, synth)
        traj_star = simulate(ProblemSpec(x0=x0, equibound=1e6), u_star)
        assert cli._default_eta_grid(u_star, traj_star) == forward_eta_grid(u_star, traj_star)


def test_default_eta_grid_evaluates_few_states(monkeypatch):
    # the scan skips the samples its bound keeps inside the ball: a few
    # dozen states at most, where a scan of every sample takes up to 2000
    evaluated = []
    state_at = Arc.state_at

    def counted(arc, s):
        evaluated.append(s)
        return state_at(arc, s)

    synth = default_synthesis()
    for x0 in ((1.0, 0.0), (40.0, -3.0), (1e4, 0.0)):
        u_star, _ = synthesize_chattering(x0, synth)
        traj_star = simulate(ProblemSpec(x0=x0, equibound=1e6), u_star)
        evaluated.clear()
        monkeypatch.setattr(Arc, "state_at", counted)
        grid = cli._default_eta_grid(u_star, traj_star)
        monkeypatch.undo()
        assert len(evaluated) <= 50, x0
        assert grid == forward_eta_grid(u_star, traj_star)


def test_truncation_rate_from_a_far_state_measures_its_gaps(tmp_path):
    # J* is about 7.6e9 from here; gaps taken against it read rounding
    # (exit 5), the tail's cost minus the reference's cost after the cut
    # resolves them
    code = main(["truncation-rate", "--x0=1e4,0", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "truncation-rate.csv").read_text().splitlines()[1:]
    gaps = [float(row.split(",")[1]) for row in rows]
    assert len(gaps) >= 5 and all(g > 0.0 for g in gaps)


@pytest.mark.parametrize("experiment", ["tv-path", "corollary-check"])
def test_path_manifest_certifies_every_subproblem(tmp_path, experiment):
    # one entry per (count, sign) subproblem, in the order the path solved
    # them: feasible ones carry a first-order certificate and their work
    code = main([experiment, "--eps", "1e-1:1e-5:decade", "--out", str(tmp_path)])
    assert code == 0
    results = json.loads((tmp_path / f"{experiment}-manifest.json").read_text())["results"]
    entries = results["subproblems"]
    assert [(e["n_switches"], e["sign"]) for e in entries] == [
        (n, s) for n in range(1, entries[-1]["n_switches"] + 1) for s in (-1.0, 1.0)]
    feasible = [e for e in entries if e["feasible_starts"] > 0]
    assert len(feasible) >= len(entries) - 2
    for e in entries:
        assert e["evaluations"] >= 1
        if e["feasible_starts"] == 0:
            assert e["pg_norm"] is None
        else:
            # x0 = (1, 0): the gradient scale is J / cap, about 0.1
            assert 0.0 <= e["pg_norm"] <= 1e-6


def test_model_params_reach_the_builder(tmp_path):
    cfg = {"experiment": "zeno-rate", "model": "bouncing-ball",
           "n": [2, 3, 4, 5, 6, 7, 8],
           "model_params": {"restitution": 0.4, "max_events": 20}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["zeno-rate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "zeno-rate-manifest.json").read_text())
    # drop from rest at height 1 with restitution c: tau_inf = sqrt(2)(1+c)/(1-c)
    expected = math.sqrt(2.0) * (1.0 + 0.4) / (1.0 - 0.4)
    assert manifest["results"]["tau_inf"] == pytest.approx(expected, rel=1e-9)


def test_unknown_model_param_is_config_error(tmp_path):
    cfg = {"experiment": "zeno-rate", "model": "bouncing-ball",
           "n": [2, 3, 4, 5, 6, 7, 8], "model_params": {"bounciness": 2}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["zeno-rate", "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 2


def _config_file(tmp_path, data):
    """A config file holding data, for argv lists that stand one in by a dict."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    return cfg_path


@pytest.mark.parametrize("argv", [
    ["fuller-synthesize", "--x0", "nan,0"],
    ["fuller-synthesize", "--x0", "inf,0"],
    ["fuller-synthesize", "--x0", "1,0,0"],
    ["tv-path", "--eps", "1e-1,1e-1,1e-2"],
    ["tv-path", "--eps", "1e-1,nan"],
    ["truncation-rate", "--eta", "inf,1e-2,1e-3,1e-4,1e-5"],
    ["zeno-rate", "--n", "2,2,3,4,5,6"],
    ["zeno-rate", "--n", "2,3,4,5,inf"],
    ["zeno-rate", "--n", "2.5,3,4,5,6"],
    ["fuller-synthesize", "--tol", "nan"],
    ["fuller-synthesize", "--tol", "inf"],
    ["tv-path", "--config", {"seed": "abc", "eps": [0.1, 0.01]}],
    ["tv-path", "--config", {"eps": [0.1, 0.01], "esp": 1}],
    ["zeno-rate", "--config", {"model_params": 5, "n": [2, 3, 4, 5, 6]}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"horizon": "x"}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"horizon": -1.0}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"max_events": 0}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"max_events": True}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"max_events": 30.0}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"x0": [0.5]}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"x0": [0.5, "a"]}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"x0": [0.5, math.nan]}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"q0": "flight"}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"inflow": "x"}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model": ["a"]}],
    ["tv-path", "--config", {"eps": [10 ** 400, 0.1]}],
    ["zeno-rate", "--model", "bouncing-ball", "--n", "2:8",
     "--config", {"model_params": {"restitution": math.nan}}],
    ["zeno-rate", "--model", "bouncing-ball", "--n", "2:8",
     "--config", {"model_params": {"restitution": 1.5}}],
    ["zeno-rate", "--model", "bouncing-ball", "--n", "2:8",
     "--config", {"model_params": {"gravity": -1.0}}],
    ["zeno-rate", "--n", "2:12", "--config", {"model_params": {"inflow": math.nan}}],
    ["tv-path", "--x0=0,0", "--eps", "1e-1:1e-2:decade"],
    ["corollary-check", "--x0=0,0", "--eps", "1e-1:1e-2:decade"],
    ["truncation-rate", "--x0=0,0"],
    ["fuller-synthesize", "--x0=0,0"],
    ["zeno-rate", "--n", "2:x"],
    ["zeno-rate", "--n", "2.5:8"],
    # grids the sweeps reject: a negative depth, and windows spanning
    # 98.99... times, which a CLI-side copy of the 99x rule let through
    ["zeno-rate", "--n=-3:5"],
    ["zeno-rate", "--config", {"n": [-1, 2, 3, 4, 5, 6]}],
    ["truncation-rate", "--eta", "49.04812357402852,10,5,1,0.4954355916568538"],
])
def test_bad_input_exits_with_config_code(tmp_path, capsys, argv):
    args = [str(_config_file(tmp_path, arg)) if isinstance(arg, dict) else arg
            for arg in argv]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["zeno-rate", "--x0", "0.5,0.5"],
    ["zeno-rate", "--config", {"x0": [0.5, 0.5]}],
])
def test_zeno_rate_rejects_x0(tmp_path, capsys, argv):
    # the hybrid models take their initial state from model_params.x0
    args = [str(_config_file(tmp_path, arg)) if isinstance(arg, dict) else arg
            for arg in argv]
    out = tmp_path / "out"
    assert main(args + ["--n", "2:12", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "model_params.x0" in err
    assert not out.exists()


def test_zeno_rate_reports_dropped_depths(tmp_path, capsys):
    # the default tank stops at its 30-event budget: depths 30-40 cannot be
    # truncated, are named on stderr and in the manifest, and leave the CSV
    # as if they had not been asked for
    assert main(["zeno-rate", "--n", "2:40", "--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("warning: dropped truncation depths "
                      + ", ".join(str(n) for n in range(30, 41))
                      + ": the run has 30 events")
    assert len(err) == 2 and err[1].startswith("wrote ")
    assert main(["zeno-rate", "--n", "2:29", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err.count("\n") == 1
    for run, dropped in (("a", list(range(30, 41))), ("b", [])):
        manifest = json.loads((tmp_path / run / "zeno-rate-manifest.json").read_text())
        assert manifest["results"]["dropped_depths"] == dropped
    assert ((tmp_path / "a" / "zeno-rate.csv").read_bytes()
            == (tmp_path / "b" / "zeno-rate.csv").read_bytes())


def test_zeno_rate_manifest_reports_the_fit(tmp_path, tank_run):
    _, traj = tank_run
    fit = detect_zeno(traj)
    results = []
    for run in ("a", "b"):
        assert main(["zeno-rate", "--model", "water-tank", "--n", "2:12",
                     "--out", str(tmp_path / run)]) == 0
        manifest = json.loads((tmp_path / run / "zeno-rate-manifest.json").read_text())
        results.append(manifest["results"])
    assert results[0] == results[1]
    # the geometric fit behind tau_inf: the default tank contracts by 1/2
    assert results[0]["n_events"] == traj.n_events == 30
    assert results[0]["zeno_ratio"] == fit.ratio == pytest.approx(0.5, abs=1e-9)
    assert 0.0 <= results[0]["zeno_fit_residual"] <= GEOMETRIC_FIT_TOL
    assert results[0]["tau_inf"] == fit.tau_inf == 4.0


@pytest.mark.parametrize("model, grid, params", [
    ("water-tank", "2:12", {"inflow": 0.7}),
    ("water-tank", "2:12", {"inflow": 0.75616, "horizon": 6.134}),
    ("water-tank", "2:12", {"inflow": 0.6}),
    ("bouncing-ball", "2:8", {"restitution": 0.4}),
    ("bouncing-ball", "2:8", {"restitution": 0.1, "horizon": 7.0}),
])
def test_zeno_rate_resolves_fast_contractions(tmp_path, model, grid, params):
    # ratios at or below 1/2 resolve: their durations are exact, not bisected
    cfg = _config_file(tmp_path, {"model_params": params})
    assert main(["zeno-rate", "--model", model, "--n", grid, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv, code", [
    (["fuller-synthesize", "--x0=1e12,0"], 4),
    (["fuller-synthesize", "--x0=1e200,0"], 4),
    (["truncation-rate", "--x0=1e12,0"], 4),
])
def test_synthesis_far_from_the_radius_exits_with_one_line(tmp_path, capsys, argv, code):
    # switch intervals that no longer advance the clock end the synthesis
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fuller-synthesize", "--x0=1e8,0"],
    ["tv-path", "--x0=1e4,0", "--eps", "1e-1:1e-6:decade"],
])
def test_far_states_run_under_the_reference_equibound(tmp_path, argv):
    # the equibound grows with the reference's own t* + sup|x*|, which a
    # fixed 1e3 rejected from these states (exit 7)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / f"{argv[0]}-manifest.json").read_text())["results"]
    assert all(results.get("laws", {}).values())


@pytest.mark.parametrize("case", ["below-a-file", "a-file", "not-a-string"])
def test_unwritable_out_exits_with_config_code(tmp_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = {"below-a-file": ["--out", str(blocker / "out")],
           "a-file": ["--out", str(blocker)],
           "not-a-string": ["--config", str(_config_file(tmp_path, {"out": 5}))]}[case]
    before = sorted(tmp_path.rglob("*"))
    assert main(["fuller-synthesize"] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "kept\n"


def test_zeno_rate_ball_with_gaps_at_floor(tmp_path):
    # every cost gap of this run is exactly 0: nothing is left to fit, and
    # the ball asserts no rate, so the run succeeds with a null gap fit
    cfg = {"experiment": "zeno-rate", "model": "bouncing-ball", "n": [2, 3, 4, 5, 6, 7, 8],
           "model_params": {"restitution": 0.5749880970107938,
                            "horizon": 8.914861584224687}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["zeno-rate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "zeno-rate-manifest.json").read_text())["results"]
    assert results["gap_slope"] is None and results["gap_constant"] is None
    assert math.isfinite(results["dev_slope"])


def test_zeno_rate_horizon_before_enough_events_is_hybrid_failure(tmp_path, capsys):
    # the horizon ends the run after one event, before any Zeno fit can start
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model_params": {"inflow": 0.7, "horizon": 2}}))
    out = tmp_path / "out"
    assert main(["zeno-rate", "--model", "water-tank", "--n", "2:12",
                 "--config", str(cfg_path), "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_zeno_rate_horizon_before_tau_inf_keeps_the_gaps(tmp_path):
    # a horizon between the ninth event and tau_inf = 4 ends the run on a
    # partial arc; past its last event the run is continued by its fitted
    # tail either way, so every gap and l1_dev equals the default run's
    rows = {}
    for run, params in (("default", {}), ("short", {"horizon": 3.99})):
        cfg = _config_file(tmp_path, {"model_params": params})
        assert main(["zeno-rate", "--model", "water-tank", "--n", "2:8", "--config",
                     str(cfg), "--out", str(tmp_path / run)]) == 0
        lines = (tmp_path / run / "zeno-rate.csv").read_text().splitlines()[1:]
        rows[run] = [[float(v) for v in line.split(",")] for line in lines]
    assert len(rows["short"]) == len(rows["default"]) == 7
    for short, default in zip(rows["short"], rows["default"]):
        assert short[4] == default[4]
        for col in (0, 1, 3):  # param, cost_gap, l1_dev
            assert short[col] == pytest.approx(default[col], rel=1e-15, abs=0.0)


def test_water_tank_gaps_at_floor_fail_the_rate(tmp_path, monkeypatch):
    # equal mode rates make every gap rounding: the asserted linear rate
    # cannot be fitted
    tank = cli._MODELS["water-tank"]
    monkeypatch.setitem(cli._MODELS, "water-tank", dataclasses.replace(
        tank, lagrangian=lambda: HybridLagrangian({"fill-1": 1.0, "fill-2": 1.0})))
    assert main(["zeno-rate", "--model", "water-tank", "--n", "2:12",
                 "--out", str(tmp_path)]) == 5


#: SHA-256 of each CSV of the README commands, recorded before the arc
#: mathematics was collapsed into one kernel; a refactor must keep them.
#: The zeno-rate pair was re-pinned when the hybrid arcs became closed
#: forms, and the tv-path and corollary-check pair when the solver kept
#: three deterministic starts; each moved columns at rounding level only
#: (see CHANGES.md).  The fuller-synthesize digest was re-pinned when its
#: cost_gap column became the closed-form optimal cost at each switch, and
#: the zeno-rate pair again when the time, cost and mode-mismatch tails all
#: came from the one fitted continuation: the tank's l1_dev gained its tail
#: and the ball's rounding-level gaps became exact zeros
GOLDEN_CSV_SHA256 = {
    ("fuller-synthesize", "--x0", "1,0", "--tol", "1e-10"):
        "e9aa7444942a7069c218cb0aec6e5eebf097a318bfe47038d4df3f870989dcf3",
    ("tv-path", "--x0", "1,0", "--eps", "1e-1:1e-6:decade"):
        "2cab4bf80923ca9ec513a2a7fda36417ea63b40ac95af8d0768c54f0bbdd266b",
    ("truncation-rate", "--x0", "1,0"):
        "335991917c43c8e1b16ee40449d7a031b1b4a6ca470cadf8b1296a89d9c3df8f",
    ("zeno-rate", "--model", "water-tank", "--n", "2:12"):
        "a6714038d6fd70b941e18ae1edcc69badbdee5cfcc81ce14a83be00bd50c0b1c",
    ("zeno-rate", "--model", "bouncing-ball", "--n", "2:8"):
        "063ccd802f4cef50536f180aa808fccd93c9d36ae370e9d3a2927404115a523e",
    ("corollary-check", "--x0", "1,0", "--eps", "1e-1:1e-6:decade"):
        "57c8f88867723a6b1ef6c285a9ec4d14e4a94e970903b073f8ed4bca74754d3d",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_CSV_SHA256))
def test_readme_csvs_match_golden_digests(tmp_path, argv):
    assert main(list(argv) + ["--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{argv[0]}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[argv]


#: README runs with short grids, one per experiment
_SHORT_RUNS = (
    ["fuller-synthesize", "--x0", "1,0"],
    ["tv-path", "--x0", "1,0", "--eps", "1e-1:1e-2:decade"],
    ["truncation-rate", "--x0", "1,0"],
    ["zeno-rate", "--model", "water-tank", "--n", "2:6"],
    ["corollary-check", "--x0", "1,0", "--eps", "1e-1:1e-2:decade"],
)


def test_cli_runs_never_load_numpy(tmp_path):
    # only the solver's grid oracle imports numpy, and no experiment reaches
    # it; a fresh interpreter shows what the runs themselves load
    script = ("import json, sys\n"
              "from chatterlab.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
    runs = [argv + ["--out", str(tmp_path / argv[0])] for argv in _SHORT_RUNS]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    codes, numpy_loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert not numpy_loaded


def test_path_run_synthesizes_its_reference_once(tmp_path, monkeypatch):
    # the run's J* and the path's starts and J_floor come from one cached
    # synthesis of the reference
    calls = []
    original = fuller.synthesize_chattering
    monkeypatch.setattr(fuller, "synthesize_chattering",
                        lambda *a, **kw: calls.append(a) or original(*a, **kw))
    fuller.chattering_reference.cache_clear()
    assert main(["tv-path", "--x0=0.83,-0.41", "--eps", "1e-1:1e-4:decade",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("model, grid", [("water-tank", "2:12"), ("bouncing-ball", "2:8")])
def test_zeno_rate_fits_its_run_once(tmp_path, monkeypatch, model, grid):
    # the CLI's check, the sweep and the tail cost all read the run's one
    # fit, HybridTrajectory.fit
    calls = []
    original = hybrid.detect_zeno
    monkeypatch.setattr(hybrid, "detect_zeno",
                        lambda traj: calls.append(traj) or original(traj))
    assert main(["zeno-rate", "--model", model, "--n", grid,
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


#: the documented exit code of each error class, kept apart from the classes
EXIT_CODES = {
    errors.ChatterlabError: 1,
    errors.ConfigError: 2,
    errors.AllStartsInfeasible: 3,
    errors.NoRootBracket: 4,
    errors.TolTooSmall: 4,
    errors.CutTooLarge: 5,
    errors.DegenerateFit: 5,
    errors.Inconclusive: 6,
    errors.EquiboundViolation: 7,
}


def test_every_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch):
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.ChatterlabError)}
    assert classes == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        def runner(cfg):
            raise cls("one line")
        monkeypatch.setitem(cli._RUNNERS, "fuller-synthesize", runner)
        assert cls.exit_code == code
        assert main(["fuller-synthesize", "--out", str(tmp_path / "out")]) == code, cls
        assert capsys.readouterr().err == "error: one line\n"
    assert not (tmp_path / "out").exists()


def test_readme_flag_list_names_every_option():
    # the README's "Flags:" sentence lists the options every subcommand takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Flags:", 1)[1].split("(flags override", 1)[0]
    listed = set(re.findall(r"`(--[a-z0-9-]+)", sentence))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        options = {o for a in sub._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
        assert options == listed, name


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process: a rejected command line, the
    # call after it and a call to another experiment exit and write as
    # they do from a parser of their own
    calls = [["truncation-rate", "--x0", "1,0", "--bogus"],
             ["truncation-rate", "--x0", "1,0"],
             ["fuller-synthesize", "--x0", "1,0", "--tol", "1e-10"]]

    def run_all(fresh):
        outcomes = []
        for k, argv in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{k}"
            code = main(argv + ["--out", str(out)])
            csv_path = out / f"{argv[0]}.csv"
            outcomes.append((code, csv_path.read_bytes() if csv_path.exists() else None))
        return outcomes

    alone = run_all(fresh=True)
    assert [code for code, _ in alone] == [2, 0, 0]
    assert run_all(fresh=False) == alone
    assert cli.build_parser() is cli.build_parser()
