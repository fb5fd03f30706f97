"""Exception hierarchy shared by all chatterlab modules.  Each class carries
the CLI's exit code for it: `cli.main` prints the one line and returns
`exc.exit_code`."""


class ChatterlabError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class ConfigError(ChatterlabError, ValueError):
    """Experiment configuration, or a sweep's grid, failed to parse or
    validate.  A ValueError too, so a library caller of a sweep gets one."""
    exit_code = 2


class AllStartsInfeasible(ChatterlabError):
    """Every start of the duration optimizer was infeasible;
    `evaluations` counts the objective evaluations spent finding out."""
    exit_code = 3

    def __init__(self, message: str = "", evaluations: int = 0):
        super().__init__(message)
        self.evaluations = evaluations


class NoRootBracket(ChatterlabError):
    """Switching-curve residual does not change sign on the search interval."""
    exit_code = 4


class TolTooSmall(ChatterlabError):
    """Requested truncation radius would underflow arc durations, or x0 lies
    so far out that its arcs overflow or stop advancing the clock, or its
    cost overflows."""
    exit_code = 4


class CutTooLarge(ChatterlabError):
    """Truncation window exceeds the neighborhood where the tail steering is valid."""
    exit_code = 5


class DegenerateFit(ChatterlabError):
    """Not enough usable points (or signal below arithmetic floor) for a power-law fit."""
    exit_code = 5


class Inconclusive(ChatterlabError):
    """Geometric model of inter-event intervals did not fit within tolerance."""
    exit_code = 6


class EquiboundViolation(ChatterlabError):
    """Candidate trajectory broke the a-priori bound t_u + sup|x| <= b."""
    exit_code = 7
