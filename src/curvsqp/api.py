"""Public types of a solve: its settings, status, records and result.

SolverConfig holds and checks every setting, SolveStatus the ways a
solve ends (each with its command-line exit code), IterationRecord one
iteration with the pinned log columns CSV_FIELDS, and SolveResult the
outcome. The module runs no numpy.
"""

import math
import numbers
import reprlib
from dataclasses import dataclass, fields
from enum import Enum


class SolveStatus(Enum):
    SECOND_ORDER_OPTIMAL = "second-order-optimal"
    FIRST_ORDER_ONLY = "first-order-only"
    ITERATION_LIMIT = "iteration-limit"
    LINE_SEARCH_FAILURE = "line-search-failure"
    QP_FAILURE = "qp-failure"
    EVALUATION_ERROR = "evaluation-error"
    FACTORIZATION_BREAKDOWN = "factorization-breakdown"

    @property
    def exit_code(self):
        return _EXIT_CODES[self]


_EXIT_CODES = {
    SolveStatus.SECOND_ORDER_OPTIMAL: 0,
    SolveStatus.FIRST_ORDER_ONLY: 2,
    SolveStatus.ITERATION_LIMIT: 3,
    SolveStatus.LINE_SEARCH_FAILURE: 4,
    SolveStatus.QP_FAILURE: 4,
    SolveStatus.EVALUATION_ERROR: 4,
    SolveStatus.FACTORIZATION_BREAKDOWN: 4,
}


# ranges of the float settings; every other one must be >= 0
_FLOAT_RANGES = {
    **{name: ("> 0", lambda v: v > 0.0) for name in ("mu0", "nu", "tau0", "u_max", "qp_tol")},
    "eta_S": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "alpha_min": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
}


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, limits and parameters of one solve.

    tol_first, tol_second and tol_constraint are the termination
    tolerances on stationarity, curvature and feasibility, and
    max_iterations caps the iterations; mu0 and tau0
    start the penalties and the stationarity tolerance; nu, eta_S and
    alpha_min condition the merit and its search (at most j_max + 1
    trials); epsilon_a sets the working-set threshold, margin the
    convexifying shift, u_max the curvature step cap and qp_tol the QP's
    stop test: a working set is solved when its free residual r_F has
    max|r_F| <= qp_tol * (1 + max|grad_F| + max_{i in F} s_i * max_j
    s_j |p_j|), s_i = sqrt(G_ii), and a bound is released while its
    multiplier is below -qp_tol * (1 + max|grad|) (see qpstep).
    enable_curvature=False turns off curvature steps. These
    defaults are the only ones: the layers below solve take every
    setting from their caller. Every setting is checked on construction
    and stored as a plain float, int or bool, so a numpy scalar or an
    int given for a float setting reaches neither the arithmetic nor the
    log.
    """

    tol_first: float = 1e-8
    tol_second: float = 1e-6
    tol_constraint: float = 1e-8
    max_iterations: int = 200
    u_max: float = 1.0
    epsilon_a: float = 1e-2
    nu: float = 1.0
    eta_S: float = 0.25
    alpha_min: float = 1e-2
    margin: float = 0.5
    mu0: float = 0.1
    tau0: float = 1e-2
    enable_curvature: bool = True
    j_max: int = 50
    qp_tol: float = 1e-10

    def __post_init__(self):
        """Raise ValueError on a setting outside its range, then store
        each number as the field's own type."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int:
                need = "an integer >= 0"
                ok = isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0
            elif f.type is float:
                need, test = _FLOAT_RANGES.get(f.name, (">= 0", lambda v: v >= 0.0))
                need = f"finite and {need}"
                # a float skips the slower abstract-class check
                real = type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)
                try:
                    ok = real and math.isfinite(v) and test(v)
                except OverflowError:  # an integer too large for a float
                    ok = False
            else:
                need, ok = "a boolean", isinstance(v, bool)
            if not ok:
                raise ValueError(f"{f.name} must be {need}, got {reprlib.repr(v)}")
            if type(v) is not f.type:
                object.__setattr__(self, f.name, f.type(v))


# pinned log column order; "class" maps to the cls attribute
CSV_FIELDS = (
    "k",
    "class",
    "eta",
    "omega",
    "phi_S",
    "phi_L",
    "mu",
    "mu_R",
    "tau",
    "alpha",
    "norm_p",
    "norm_u",
    "curv_ratio",
    "merit",
    "ws_size",
)


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: the 15 pinned log columns, then diagnostics.

    x and y are the iterate the record measured, y_E the reference
    multipliers its merit ran under, and merit_new the merit of the
    point it accepted (merit itself when it did not move). They are
    tuples of floats, so records compare exactly. With mu, alpha, N_k
    and R_k they rebuild the merit state of the search and let its
    acceptance inequality be checked again; the accepted point is the
    next record's (x, y), or the result's iterate after the last record.
    theta is the certification shift of the step and cholesky_attempts
    counts the positive-definiteness tests its search made (Cholesky
    factorizations, or sign tests on a diagonal); both are 0 on a record
    that made no step, and the next step's search starts at theta. trials
    and bound_rejections count the line-search trials of the step and
    those rejected at the bounds without a callback; a search that
    accepts has backtracked trials - 1 times. A step that raises keeps
    the fields it reached and alpha = 0; its counts are the failed
    search's, the trial that raised EvaluationError included, and 0
    when it failed before its search.
    """

    k: int
    cls: str
    eta: float
    omega: float
    phi_S: float
    phi_L: float
    mu: float
    mu_R: float
    tau: float
    alpha: float
    norm_p: float
    norm_u: float
    curv_ratio: float
    merit: float
    ws_size: int
    # diagnostics, not part of the pinned log columns
    norm_dv: float
    N_k: float
    R_k: float
    x: tuple
    y: tuple
    y_E: tuple
    merit_new: float
    theta: float
    cholesky_attempts: int
    trials: int
    bound_rejections: int

    def csv_values(self):
        return tuple(getattr(self, "cls" if name == "class" else name) for name in CSV_FIELDS)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: its status, final iterate and history.

    f and the measures (eta, omega_first, omega, curv_ratio) are those
    of the final iterate, NaN where the solve failed before measuring
    it; message holds the error text of a failed solve.
    """

    status: SolveStatus
    iterate: object
    history: tuple
    f: float
    eta: float
    omega_first: float
    omega: float
    curv_ratio: float
    class_counts: dict
    wall_time_s: float
    message: str = ""

    @property
    def iterations(self):
        return len(self.history)
