"""Shared fixtures: expensive reference objects are built once per session."""

import pytest

from chatterlab.controls import ProblemSpec, lagrangian_cost, simulate
from chatterlab.fuller import default_synthesis, synthesize_chattering
from chatterlab.hybrid import bouncing_ball, execute, water_tank
from chatterlab.solver import regularization_path

DECADE_EPS = [10.0 ** (-k) for k in range(1, 7)]


@pytest.fixture(scope="session")
def synth():
    return default_synthesis()


@pytest.fixture(scope="session")
def reference(synth):
    """Synthesized solution from (1, 0): spec, control, trajectory, costs."""
    spec = ProblemSpec(x0=(1.0, 0.0))
    u_star, t_star = synthesize_chattering((1.0, 0.0), synth)
    traj_star = simulate(spec, u_star)
    j_star = lagrangian_cost(traj_star)
    return spec, u_star, traj_star, t_star, j_star


@pytest.fixture(scope="session")
def decade_path(reference, synth):
    spec = reference[0]
    return regularization_path(DECADE_EPS, spec, synth=synth)


@pytest.fixture(scope="session")
def tank_run():
    system = water_tank()
    traj = execute(system, "fill-1", (0.5, 0.5), horizon=5.0, max_events=30)
    return system, traj


@pytest.fixture(scope="session")
def ball_run():
    system = bouncing_ball()
    traj = execute(system, "flight", (1.0, 0.0), horizon=5.0, max_events=22)
    return system, traj
