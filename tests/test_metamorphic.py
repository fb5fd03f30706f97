"""Exact identities of the Fuller problem, checked on seeded states.

The double integrator x1' = x2, x2' = u with |u| <= 1 and running cost x1^2
is invariant under x -> -x with u -> -u (odd symmetry), and under
(x1, x2, t) -> (lam^2 x1, lam x2, lam t) every running cost scales by
lam^5 while the total variation of u is unchanged; so with the penalty
weight scaled by lam^5 the regularized value scales by lam^5 too.
"""

import math

import numpy as np
import pytest

from chatterlab.controls import ProblemSpec
from chatterlab.fuller import optimal_cost
from chatterlab.solver import regularization_path

SEED = 7
LAM = 3.0
EPS = 1e-3
LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
REL = 1e-12


def _states(count):
    rng = np.random.default_rng(SEED)
    for _ in range(count):
        radius = float(rng.uniform(0.5, 2.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        yield (radius * math.cos(angle), radius * math.sin(angle))


def _negated(x, eps):
    """(state, penalty weight, cost factor) after x -> -x."""
    return (-x[0], -x[1]), eps, 1.0


def _scaled(x, eps, lam=LAM):
    """(state, penalty weight, cost factor) after the lam-scaling."""
    return (lam ** 2 * x[0], lam * x[1]), lam ** 5 * eps, lam ** 5


@pytest.mark.parametrize("transform", [_negated, _scaled])
def test_optimal_cost_identities(synth, transform):
    for x in _states(4):
        x_t, _, factor = transform(x, EPS)
        cost = factor * optimal_cost(x, synth)
        assert abs(optimal_cost(x_t, synth) - cost) <= REL * cost


@pytest.mark.parametrize("transform", [_negated, _scaled])
def test_regularized_value_identities(synth, transform):
    # every point of a path keeps its switch count and scales its value
    (x,) = _states(1)
    x_t, _, factor = transform(x, EPS)
    ladder_t = [transform(x, eps)[1] for eps in LADDER]
    base = regularization_path(LADDER, ProblemSpec(x0=x), synth=synth)
    moved = regularization_path(ladder_t, ProblemSpec(x0=x_t), synth=synth)
    for a, b in zip(base.records, moved.records):
        assert b.n_switches == a.n_switches
        value = factor * a.value
        assert abs(b.value - value) <= REL * value


def test_regularized_value_identity_where_values_are_large(synth):
    # lam = 30 multiplies every value by 2.43e7, where one ulp is far above
    # an absolute 1e-12: the selection's tie band, the concavity law and the
    # sweep's stop scale with the values, so the counts still match
    lam = 30.0
    (x,) = _states(1)
    x_t, _, factor = _scaled(x, EPS, lam)
    base = regularization_path(LADDER, ProblemSpec(x0=x), synth=synth)
    moved = regularization_path([_scaled(x, eps, lam)[1] for eps in LADDER],
                                ProblemSpec(x0=x_t, equibound=math.inf), synth=synth)
    assert all(moved.laws().values())
    for a, b in zip(base.records, moved.records):
        assert b.n_switches == a.n_switches
        value = factor * a.value
        assert abs(b.value - value) <= REL * value
