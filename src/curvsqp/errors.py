"""Exception types shared across the package."""


class CurvSqpError(Exception):
    """Base class for all solver errors."""


class EvaluationError(CurvSqpError):
    """Problem callbacks returned bad data (wrong shape, NaN, Inf) or raised.

    One that the curvilinear search lets through carries its
    diagnostics, n_trials and bound_rejections, as LineSearchFailure does.
    """


class ProblemFormatError(CurvSqpError):
    """A problem file failed schema validation."""


class FactorizationBreakdown(CurvSqpError):
    """Stage-1 elimination stalled with dual rows still unpivoted.

    Carries the partial factor for diagnosis.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class LineSearchFailure(CurvSqpError):
    """Backtracking exhausted without satisfying the acceptance inequality."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class QpFailure(CurvSqpError):
    """Active-set iteration cap reached or data not finite. Carries the iterate reached, if any."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class QpInternalError(CurvSqpError):
    """The QP matrix was not positive definite; convexification bug upstream."""
