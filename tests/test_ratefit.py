import numpy as np
import pytest

from chatterlab.errors import DegenerateFit
from chatterlab.ratefit import fit_line, fit_power_law
from chatterlab.records import RateRecord


def test_exact_linear_law():
    xs = np.logspace(-3, 0, 7)
    fit = fit_power_law(zip(xs, 2.0 * xs))
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)
    assert fit.constant == pytest.approx(2.0, rel=1e-12)
    assert fit.max_rel_residual <= 1e-12


def test_exact_square_root_law():
    xs = np.logspace(-4, 2, 9)
    fit = fit_power_law(zip(xs, 3.0 * np.sqrt(xs)))
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.constant == pytest.approx(3.0, rel=1e-12)


def test_tuple_input_and_column_selection():
    # callers pick the record columns they fit by building the pairs
    xs = np.logspace(-2, 0, 5)
    recs = [RateRecord(param=x, cost_gap=x ** 2, sup_dev=5.0 * x, l1_dev=0.0,
                       tv=0.0, wall_ms=0.0) for x in xs]
    fit = fit_power_law([(r.param, r.cost_gap) for r in recs])
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    fit = fit_power_law([(r.param, r.sup_dev) for r in recs])
    assert fit.constant == pytest.approx(5.0, rel=1e-12)


def test_single_point_is_degenerate():
    with pytest.raises(DegenerateFit):
        fit_power_law([(1.0, 2.0)])


def test_nonpositive_points_are_dropped():
    xs = [1.0, 2.0, 4.0, -1.0, 8.0]
    ys = [1.0, 2.0, 4.0, 3.0, 0.0]
    fit = fit_power_law(list(zip(xs, ys)))  # two unusable points dropped
    assert fit.n_points == 3
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)


def test_all_points_filtered_is_degenerate():
    with pytest.raises(DegenerateFit):
        fit_power_law([(1.0, 0.0), (2.0, -1.0), (3.0, 0.0)])


def test_fit_line_matches_lstsq_on_seeded_lines():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        xs = rng.uniform(-5.0, 5.0, n)
        ys = rng.uniform(-3.0, 3.0) + rng.uniform(-2.0, 2.0) * xs + rng.normal(0.0, 0.1, n)
        design = np.column_stack([np.ones(n), xs])
        expected, *_ = np.linalg.lstsq(design, ys, rcond=None)
        assert fit_line(xs.tolist(), ys.tolist()) == pytest.approx(expected, rel=1e-12)
