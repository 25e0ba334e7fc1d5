"""curvsqp: a regularized SQP solver with negative-curvature escapes.

Equality-constrained problems with nonnegativity bounds are driven to
points satisfying second-order necessary optimality conditions. The
negative-curvature machinery lives in factor/curvature; solve() in
driver ties everything together. The package exports what the README's
library section documents; every other name is imported from its own
module.
"""

from .api import IterationRecord, SolveResult, SolveStatus, SolverConfig
from .driver import second_order_certificate, solve
from .errors import (
    CurvSqpError,
    EvaluationError,
    FactorizationBreakdown,
    LineSearchFailure,
    ProblemFormatError,
    QpFailure,
    QpInternalError,
)
from .factor import apply_shift
from .merit import curvilinear_search, penalty_update
from .model import NlpProblem, check_derivatives, make_iterate
from .problemfile import parse_problem_file

__version__ = "0.1.0"

__all__ = [
    "CurvSqpError",
    "EvaluationError",
    "FactorizationBreakdown",
    "IterationRecord",
    "LineSearchFailure",
    "NlpProblem",
    "ProblemFormatError",
    "QpFailure",
    "QpInternalError",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "apply_shift",
    "check_derivatives",
    "curvilinear_search",
    "make_iterate",
    "parse_problem_file",
    "penalty_update",
    "second_order_certificate",
    "solve",
    "__version__",
]
