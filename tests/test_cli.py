import hashlib
import json
import math

import pytest

from chatterlab import cli
from chatterlab.cli import main, parse_grid
from chatterlab.errors import ConfigError
from chatterlab.hybrid import HybridLagrangian


def test_parse_decade_grid():
    grid = parse_grid("1e-1:1e-4:decade")
    assert grid == pytest.approx([1e-1, 1e-2, 1e-3, 1e-4])


def test_parse_integer_range():
    assert parse_grid("2:6") == [2, 3, 4, 5, 6]


def test_parse_comma_list():
    assert parse_grid("0.5,0.25,0.125") == [0.5, 0.25, 0.125]


def test_parse_rejects_garbage():
    for bad in ("", "a,b", "1e-1:3e-4:decade", "1:2:3:4"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


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
])
def test_bad_input_exits_with_config_code(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


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


def test_water_tank_gaps_at_floor_fail_the_rate(tmp_path, monkeypatch):
    # equal mode rates make every gap rounding: the asserted linear rate
    # cannot be fitted
    monkeypatch.setattr(cli, "water_tank_lagrangian", lambda: HybridLagrangian(
        {"fill-1": lambda t, x: 1.0, "fill-2": lambda t, x: 1.0}))
    assert main(["zeno-rate", "--model", "water-tank", "--n", "2:12",
                 "--out", str(tmp_path)]) == 5


#: SHA-256 of each CSV of the README commands, recorded before the arc
#: mathematics was collapsed into one kernel; a refactor must keep them
GOLDEN_CSV_SHA256 = {
    ("fuller-synthesize", "--tol", "1e-10"):
        "d55e4f6b86dcb4264c3925ad8d4451eab180cc2e1b5387ff2ed6e2d7c319571a",
    ("tv-path", "--eps", "1e-1:1e-6:decade"):
        "45f173b17998269b9e602d384815a29a8cbcaa5ad89e09249af402d2bbbe9dcd",
    ("truncation-rate",):
        "94e26a612c4ce6dccb99e4dd6d7e4b9e7410e296ac827929e749adb60c83f678",
    ("zeno-rate", "--model", "water-tank", "--n", "2:12"):
        "43c3740c2507b9550dc2af3357b64c51d4862c9864047bcb4500ae3d3beb8b36",
    ("zeno-rate", "--model", "bouncing-ball", "--n", "2:8"):
        "b5edb5a76cdc6fb1a260b839bd4e11c86584d1558b47162e9821deedec4c1d36",
    ("corollary-check", "--eps", "1e-1:1e-6:decade"):
        "ef13e4703553f7f6210a0c3e8f88c4e3f8b76933202b36c1ff0782d22fa045e8",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_CSV_SHA256))
def test_readme_csvs_match_golden_digests(tmp_path, argv):
    assert main(list(argv) + ["--x0", "1,0", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{argv[0]}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[argv]
