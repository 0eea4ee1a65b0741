"""Exception types raised by the rolljoint solvers and models."""


class RolljointError(Exception):
    """Base class for all rolljoint errors."""


class DomainError(RolljointError):
    """Arc-length parameter outside a surface domain."""


class DegenerateTendonError(RolljointError):
    """A tendon segment collapsed below the minimum usable length."""


class SingularBlockError(RolljointError):
    """A per-link block or the boundary system is numerically singular."""


class UnsupportedLoadError(RolljointError):
    """Load variant not usable in the requested context (e.g. energy)."""


class InvalidLoadError(RolljointError, ValueError):
    """A load aimed at a link the mechanism lacks, or with a non-finite value;
    a ValueError like every other invalid solver input."""


class NonFiniteResultError(RolljointError):
    """A report or design to be written holds NaN or an infinity, which
    strict JSON cannot carry."""


class SolveError(RolljointError):
    """Solver failure carrying the partial result for diagnosis."""

    def __init__(self, message, report=None, configuration=None):
        super().__init__(message)
        self.report = report
        self.configuration = configuration


class NoConvergenceError(SolveError):
    """Iteration budget exhausted or line search stalled before tolerance."""


class ContactRolloffError(SolveError):
    """Converged with a contact parameter pinned at a surface-domain boundary."""


class TensionFloorError(SolveError):
    """Displacement descent pinned both tendon tensions at the lower bound."""
