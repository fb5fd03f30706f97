"""chatterlab: a numerical laboratory for total-variation regularization of
chattering optimal control and Zeno executions of hybrid systems."""

__version__ = "0.1.0"

from .controls import (
    PiecewiseConstantControl,
    ProblemSpec,
    Trajectory,
    constant_control,
    lagrangian_cost,
    regularized_cost,
    simulate,
    tv,
)
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
from .fuller import (
    FullerSynthesis,
    compute_fuller_constant,
    default_synthesis,
    optimal_cost,
    synthesize_chattering,
)
from .hybrid import (
    HybridLagrangian,
    HybridSystem,
    HybridTrajectory,
    bouncing_ball,
    detect_zeno,
    execute,
    hybrid_cost,
    run_until_overflow,
    truncate_zeno,
    water_tank,
    zeno_rate_sweep,
)
from .ratefit import PowerLawFit, fit_power_law
from .records import RateRecord, write_csv, write_manifest
from .solver import (
    BangBangCandidate,
    SolutionPath,
    brute_force_oracle,
    optimize_durations,
    regularization_path,
    solve_regularized,
    solve_terminal_arcs,
)
from .truncation import (
    TruncationResult,
    composite_rate_bound,
    min_time_steer,
    min_time_to_origin,
    truncate,
    truncation_lag_for_budget,
    truncation_rate_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
