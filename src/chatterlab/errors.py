"""Exception hierarchy shared by all chatterlab modules."""


class ChatterlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ChatterlabError):
    """Experiment configuration failed to parse or validate."""


class EquiboundViolation(ChatterlabError):
    """Candidate trajectory broke the a-priori bound t_u + sup|x| <= b."""


class NoRootBracket(ChatterlabError):
    """Switching-curve residual does not change sign on the search interval."""


class TolTooSmall(ChatterlabError):
    """Requested truncation radius would underflow arc durations, or x0 lies
    so far out that its arcs overflow or stop advancing the clock, or its
    cost overflows."""


class AllStartsInfeasible(ChatterlabError):
    """Every start of the duration optimizer was infeasible;
    `evaluations` counts the objective evaluations spent finding out."""

    def __init__(self, message: str = "", evaluations: int = 0):
        super().__init__(message)
        self.evaluations = evaluations


class CutTooLarge(ChatterlabError):
    """Truncation window exceeds the neighborhood where the tail steering is valid."""


class DegenerateFit(ChatterlabError):
    """Not enough usable points (or signal below arithmetic floor) for a power-law fit."""


class Inconclusive(ChatterlabError):
    """Geometric model of inter-event intervals did not fit within tolerance."""
