"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math

import numpy as np
import pytest

from chatterlab.controls import ProblemSpec, tv
from chatterlab.errors import AllStartsInfeasible
from chatterlab.fuller import compute_fuller_constant
from chatterlab.hybrid import detect_zeno, water_tank_lagrangian, zeno_rate_sweep
from chatterlab.solver import brute_force_oracle, optimize_durations
from chatterlab.truncation import (
    TAIL_TV_BUDGET,
    composite_rate_bound,
    truncation_rate_sweep,
)

SQRT2 = math.sqrt(2.0)


def _report(index, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index} {name}: PASS{suffix}")


def test_criterion_1_fuller_self_similarity(reference, synth):
    _, u_star, _, _, _ = reference
    bp = np.array(u_star.breakpoints)
    intervals = np.diff(bp[1:-2])
    ratios = intervals[1:] / intervals[:-1]
    assert len(ratios) >= 10
    worst = float(np.max(np.abs(ratios[:10] - synth.rho) / synth.rho))
    assert worst <= 1e-6
    spread = 0.0
    for scale in (0.1, 0.5, 1.0, 3.0, 10.0):
        zeta, _ = compute_fuller_constant(start_scale=scale)
        spread = max(spread, abs(zeta - synth.zeta))
    assert spread <= 1e-8
    _report(1, "Fuller self-similarity",
            f"10 ratios within {worst:.2e}, zeta spread {spread:.2e}")


def test_criterion_2_chattering_certificate(reference, synth):
    _, u_star, _, t_star, _ = reference
    switch_times = u_star.breakpoints[1:-1]
    growth = []
    for n in range(1, len(switch_times) - 1):
        t_n = 0.5 * (switch_times[n - 1] + switch_times[n])
        growth.append(tv(u_star.restrict(t_n)))
        assert growth[-1] == 2.0 * n
        assert t_n < t_star
    assert growth == sorted(growth) and growth[-1] >= 20.0
    t1, t2 = u_star.breakpoints[1], u_star.breakpoints[2]
    predicted = t1 + (t2 - t1) / (1.0 - synth.rho)
    rel = abs(t_star - predicted) / t_star
    assert rel <= 1e-8
    _report(2, "chattering certificate",
            f"TV reaches {growth[-1]:.0f}, accumulation-time error {rel:.2e}")


def test_criterion_3_regularization_path_laws(decade_path, reference):
    j_star = reference[4]
    recs = sorted(decade_path.records, key=lambda r: r.epsilon)
    eps = [r.epsilon for r in recs]
    values = [r.value for r in recs]
    tvs = [r.tv for r in recs]
    jls = [r.lagrangian for r in recs]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    slopes = [(v2 - v1) / (e2 - e1) for (e1, v1), (e2, v2)
              in zip(zip(eps, values), zip(eps[1:], values[1:]))]
    concavity = max((s2 - s1 for s1, s2 in zip(slopes, slopes[1:])), default=0.0)
    assert concavity <= 1e-9
    assert all(b <= a for a, b in zip(tvs, tvs[1:]))
    assert all(b >= a for a, b in zip(jls, jls[1:]))
    gaps = [jl - j_star for jl in jls]
    assert all(g > 0.0 for g in gaps)
    assert all(b >= a - 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] * 10.0 <= gaps[-1]
    _report(3, "regularization-path laws",
            f"concavity residual {concavity:.2e}, "
            f"gap shrink factor {gaps[-1] / gaps[0]:.1e}")


def test_criterion_4_oracle_equivalence(synth):
    rng = np.random.default_rng(12345)
    eps = 1e-4
    worst = 0.0
    for _ in range(5):
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        radius = float(rng.uniform(0.5, 2.0))
        x0 = (radius * math.cos(angle), radius * math.sin(angle))
        spec = ProblemSpec(x0=x0)
        for n in (1, 2, 3):
            solver_vals = []
            oracle_vals = []
            for sign in (-1.0, 1.0):
                try:
                    cand = optimize_durations(n, sign, eps, spec, synth=synth)
                    solver_vals.append(cand.value(eps))
                except AllStartsInfeasible:
                    pass
                try:
                    cand = brute_force_oracle(n, sign, eps, spec, resolution=2e-3)
                    oracle_vals.append(cand.value(eps))
                except AllStartsInfeasible:
                    pass
            assert solver_vals and oracle_vals
            rel = abs(min(solver_vals) - min(oracle_vals)) / min(oracle_vals)
            worst = max(worst, rel)
            assert rel <= 1e-6
    _report(4, "oracle equivalence", f"worst relative gap {worst:.2e}")


def test_criterion_5_truncation_rate(reference):
    spec, u_star, traj_star, t_star, j_star = reference
    # largest cut inside the unit steering neighborhood, then 3 decades down
    eta_max = None
    for t in np.linspace(0.0, t_star, 4001)[:-1]:
        if math.hypot(*traj_star.state_at(t)) > 1.0:
            eta_max = t_star - t
    assert eta_max is not None
    eta_hi = 0.9 * eta_max
    etas = [eta_hi * 10.0 ** (-3.0 * k / 8.0) for k in range(9)]
    sweep = truncation_rate_sweep(u_star, traj_star, etas, spec)
    assert sweep.exponent >= 0.4
    for res in sweep.results:
        assert tv(res.control) <= res.prefix_tv + TAIL_TV_BUDGET
    assert all(sweep.monotone.values()), sweep.monotone
    _report(5, "truncation rate",
            f"fitted exponent {sweep.exponent:.2f} "
            f"(threshold 0.4), {sweep.n_dropped} floor points dropped")


def test_criterion_6_composite_bound(decade_path, reference):
    _, u_star, _, _, j_star = reference
    check = composite_rate_bound(decade_path.records, u_star, j_star)
    assert check.holds
    margin = min(bound / gap for _, gap, _, bound in check.rows if gap > 0.0)
    assert margin >= 1.0
    _report(6, "composite rate bound",
            f"single constant {check.m_hat:.3e}, smallest margin {margin:.3f}x")


def test_criterion_7_zeno_closed_forms(ball_run, tank_run):
    _, ball_traj = ball_run
    _, tank_traj = tank_run
    fit_ball = detect_zeno(ball_traj)
    assert fit_ball.is_zeno
    expected_ball = 3.0 * SQRT2
    rel_ball = abs(fit_ball.tau_inf - expected_ball) / expected_ball
    assert rel_ball <= 1e-9
    fit_tank = detect_zeno(tank_traj)
    assert fit_tank.is_zeno
    expected_tank = 1.0 + 1.5 / (1.0 - 0.5)
    rel_tank = abs(fit_tank.tau_inf - expected_tank) / expected_tank
    assert rel_tank <= 1e-9
    _report(7, "Zeno closed forms",
            f"ball {rel_ball:.1e}, water tank {rel_tank:.1e} relative")


def test_criterion_8_zeno_linear_rates(tank_run):
    system, traj = tank_run
    sweep = zeno_rate_sweep(traj, range(2, 13), water_tank_lagrangian(), system)
    assert abs(sweep.dev_slope - 1.0) <= 0.1
    assert abs(sweep.gap_slope - 1.0) <= 0.1
    assert sweep.bound_ok
    _report(8, "Zeno truncation linear rates",
            f"deviation slope {sweep.dev_slope:.4f}, "
            f"cost-gap slope {sweep.gap_slope:.4f}")


def test_criterion_9_determinism(tmp_path):
    from chatterlab.cli import main

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["tv-path", "--eps", "1e-1:1e-4:decade"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    csv_a = (out_a / "tv-path.csv").read_bytes()
    csv_b = (out_b / "tv-path.csv").read_bytes()
    assert csv_a == csv_b
    args = ["zeno-rate", "--model", "bouncing-ball", "--n", "2:8"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "zeno-rate.csv").read_bytes() == \
        (out_b / "zeno-rate.csv").read_bytes()
    _report(9, "byte-identical reruns", "tv-path and zeno-rate CSVs")
