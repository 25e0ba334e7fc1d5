"""Outer solver loop combining the QP step with curvature escapes.

Per iteration: estimate the working set, factorize the free KKT system
at the regularization penalty, pull out a negative-curvature direction,
score and classify the iterate, update the reference multipliers and
penalties, check termination, convexify, solve the bound-constrained QP
in x on the certified H_used + J.T J / mu_R (the dual step follows in
closed form), scale the curvature step against the QP step, and
backtrack along the curvilinear path x + alpha*u + alpha^2*p.

Each point is evaluated once. The start gets the full evaluation here;
search trials get only f and c, and the accepted trial's full
evaluation, made by the search, is carried into the next step.

Parameter staging per iteration k: the working set uses the flexible
penalty carried over from the previous line search, classification runs
against the pre-update reference state, and everything after the update
(QP, scaling, search) uses the refreshed state. The penalty comparison
for the flexible mu re-tests the previous accepted step under the
parameters it was searched with, with the new regularization penalty as
its floor, comparing the two merits that search produced.
"""

import math
import numbers
import time
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .classify import (
    Measures,
    classify as classify_iterate,
    initial_state,
    measures,
    merit_residuals,
    update_state,
)
from .curvature import (
    ScaledStep,
    curvature_form,
    extract_direction,
    no_direction,
    orient,
    refresh_direction,
    scale,
)
from .errors import (
    EvaluationError,
    FactorizationBreakdown,
    LineSearchFailure,
    QpFailure,
    QpInternalError,
)
from .factor import apply_shift, build_kkt, convexify, stage1_factorize
from .merit import (
    MeritState,
    condense,
    curvilinear_search,
    dual_step,
    merit_gradient,
    merit_value,
    penalty_update,
)
from .model import checked_hessian, evaluate, make_iterate
from .qpstep import solve_qp
from .workset import estimate, restrict_columns, restrict_principal


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
        """Raise ValueError on a setting outside its range."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int:
                need = "an integer >= 0"
                ok = isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0
            elif f.type is float:
                need, test = _FLOAT_RANGES.get(f.name, (">= 0", lambda v: v >= 0.0))
                need, ok = f"finite and {need}", math.isfinite(v) and test(v)
            else:
                continue
            if not ok:
                raise ValueError(f"{f.name} must be {need}, got {v!r}")


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
    norm_dv: float = 0.0
    N_k: float = 0.0
    R_k: float = 0.0
    backtracks: int = 0

    def csv_values(self):
        return (
            self.k,
            self.cls,
            self.eta,
            self.omega,
            self.phi_S,
            self.phi_L,
            self.mu,
            self.mu_R,
            self.tau,
            self.alpha,
            self.norm_p,
            self.norm_u,
            self.curv_ratio,
            self.merit,
            self.ws_size,
        )


@dataclass(frozen=True)
class SolveResult:
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


# the measures of an iterate the solve failed before measuring
_UNMEASURED = Measures(
    eta=np.nan, omega_first=np.nan, curv_ratio=np.nan,
    omega=np.nan, phi_S=np.nan, phi_L=np.nan,
)


def _merit_state(fstate, mu, config):
    return MeritState(
        y_E=fstate.y_E,
        mu=mu,
        mu_R=fstate.mu_R,
        nu=config.nu,
        eta_S=config.eta_S,
        alpha_min=config.alpha_min,
    )


def _exact_merit_xx_hessian(problem, ev, iterate, state):
    """Lagrangian Hessian at the multiplier the merit actually carries."""
    if ev.c.shape[0] == 0:
        return ev.H
    pi = state.y_E - ev.c / state.mu
    w_mult = -(pi + state.nu * (pi - iterate.y))
    H = checked_hessian(problem, iterate.x, w_mult)
    return 0.5 * (H + H.T)


def _certified_hessian(H_tilde, J, mu, bump_rows, h_scale):
    """Diagonal-bump G = H_tilde + (1/mu) J.T J until it admits Cholesky.

    Returns the G factored and theta. The stage-1 shift certifies the
    free block only; entries of the working set can still make the full
    matrix indefinite, so their diagonals get the least bump theta on
    the grid 0, s, 2s, 4s, ...
    (s = 1e-8 * (1 + h_scale), up to 1e18 * (1 + h_scale)) at which the
    test factorization succeeds. theta = 0 is tried first and the rest
    of the grid is bisected: at most 8 Cholesky attempts on the usual
    88-point grid, where stepping through it takes one per point up to
    the answer. Both find the same theta whenever success is monotone in
    theta. Failure at the top of the grid means the free block itself is
    bad, which the convexification is supposed to rule out.
    """
    n = H_tilde.shape[0]
    if bump_rows.size == 0:
        bump_rows = np.arange(n)
    base = H_tilde + (J.T @ J) / mu if J.shape[0] else H_tilde.copy()
    base = 0.5 * (base + base.T)

    def factors(theta):
        try:
            np.linalg.cholesky(apply_shift(base, bump_rows, theta))
        except np.linalg.LinAlgError:
            return False
        return True

    # doubling is exact, so grid[i] = s * 2**(i - 1); a limit that
    # overflows to inf still ends the grid at the largest finite point
    grid = [0.0]
    theta, limit = 1e-8 * (1.0 + h_scale), 1e18 * (1.0 + h_scale)
    while theta <= limit and theta < np.inf:
        grid.append(theta)
        theta *= 2.0
    # grid[lo] fails; grid[hi] is the least point known to factor, or
    # one past the end
    lo, hi = 0, len(grid)
    if factors(0.0):
        hi = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if factors(grid[mid]):
            hi = mid
        else:
            lo = mid
    if hi == len(grid):
        raise QpInternalError("convexified Hessian cannot be made positive definite")
    return apply_shift(base, bump_rows, grid[hi]), grid[hi]


def _free_factor(ev, ws, mu):
    """Stage-1 factor of the free-variable KKT matrix at penalty mu."""
    kkt = build_kkt(restrict_principal(ev.H, ws), restrict_columns(ev.J, ws), mu)
    return stage1_factorize(kkt)


def _zero_step(n, m):
    return ScaledStep(u=np.zeros(n), w=np.zeros(m), beta=0.0)


def solve(problem, v0=None, config=None, trace=None):
    """Run the solver from v0 (problem start point when omitted).

    trace, when given, is a list that receives one dict per accepted
    step (previous and accepted iterates, the merit state the search
    ran under, alpha, and the model quantities) so tests can re-verify
    the acceptance inequality independently.

    Trial points of the search call only the objective and constraints
    callbacks; gradient, Jacobian and Hessian run at the start point,
    at each accepted trial, and (Hessian only, when m > 0) at the merit
    multiplier of each curvature step.

    A callback failure (EvaluationError) or a stage-1 breakdown
    (FactorizationBreakdown) ends the solve with the matching status,
    the exception's text as message and the records closed before it.
    The result's measures are NaN when the failure came before the
    final iterate was measured, and f too when the start point fails.
    A bad start point still raises ValueError.
    """
    config = config if config is not None else SolverConfig()
    if v0 is None:
        if problem.x0 is None:
            raise ValueError("problem has no start point and none was given")
        y0 = problem.y0 if problem.y0 is not None else np.zeros(problem.m)
        v0 = make_iterate(problem.x0, y0)
    if v0.x.shape[0] != problem.n or v0.y.shape[0] != problem.m:
        raise ValueError("start point dimensions do not match the problem")
    if float(np.min(v0.x, initial=0.0)) < 0.0:
        raise ValueError("start point violates the nonnegativity bounds")

    t0 = time.perf_counter()
    it = v0
    mu = config.mu0
    fstate = None
    prev = None
    history = []
    counts = {"S": 0, "L": 0, "M": 0, "F": 0}
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    last_meas, last_ratio = _UNMEASURED, np.nan
    ev = None
    k = 0

    def close(meas, label, alpha, norm_p, norm_u, ratio, merit, ws_size, **extra):
        history.append(
            IterationRecord(
                k=k,
                cls=label,
                eta=meas.eta,
                omega=meas.omega,
                phi_S=meas.phi_S,
                phi_L=meas.phi_L,
                mu=mu,
                mu_R=fstate.mu_R,
                tau=fstate.tau,
                alpha=alpha,
                norm_p=norm_p,
                norm_u=norm_u,
                curv_ratio=ratio,
                merit=merit,
                ws_size=ws_size,
                **extra,
            )
        )

    try:
        ev = evaluate(problem, it)
        while True:
            # a failure before the measures below reports NaN measures
            last_meas, last_ratio = _UNMEASURED, np.nan
            # working set at the carried-over flexible penalty
            ws = estimate(it.x, mu, config.epsilon_a)
            mu_R_pre = fstate.mu_R if fstate is not None else config.mu0

            factor = None
            conv = None
            direction = no_direction(problem.n, problem.m)
            if ws.free.size:
                factor = _free_factor(ev, ws, mu_R_pre)
                conv = convexify(factor, config.margin)
                if config.enable_curvature:
                    direction = extract_direction(factor, ws, H=ev.H, J=ev.J)

            meas = measures(ev, it, direction, mu_R_pre)
            last_meas = meas

            if fstate is None:
                fstate = initial_state(meas, it.y, config.mu0, tau=config.tau0)
                label = "-"
            else:
                pre_state = _merit_state(fstate, fstate.mu_R, config)
                resid = merit_residuals(merit_gradient(ev, it, pre_state), it.x)
                label = classify_iterate(meas, fstate, resid)
                counts[label] += 1
                mu_R_old = fstate.mu_R
                fstate = update_state(label, fstate, meas, it)
                if fstate.mu_R != mu_R_old and direction.exists:
                    # the stronger penalty term can erase the negative curvature
                    direction = refresh_direction(direction, ev.H, ev.J, fstate.mu_R)
                if prev is not None:
                    mu = penalty_update(**prev, mu_R_next=fstate.mu_R)
                mu = max(mu, fstate.mu_R)

            ratio_now = direction.rayleigh if direction.exists else 0.0
            last_ratio = ratio_now
            state_F = _merit_state(fstate, mu, config)
            merit_here = merit_value(ev, it, state_F)

            first_order_ok = (
                meas.eta <= config.tol_constraint
                and meas.omega_first <= config.tol_first
            )
            if first_order_ok and (
                not config.enable_curvature or ratio_now >= -config.tol_second
            ):
                status = (
                    SolveStatus.SECOND_ORDER_OPTIMAL
                    if config.enable_curvature
                    else SolveStatus.FIRST_ORDER_ONLY
                )
                close(meas, label, 0.0, 0.0, 0.0, ratio_now, merit_here, ws.active.size)
                break
            if k >= config.max_iterations:
                status = SolveStatus.ITERATION_LIMIT
                message = "iteration limit reached before the optimality tests passed"
                close(meas, label, 0.0, 0.0, 0.0, ratio_now, merit_here, ws.active.size)
                break

            # the QP in x on the convexified Hessian plus the penalty term,
            # certified positive definite; the dual step is closed-form
            state_R = _merit_state(fstate, fstate.mu_R, config)
            H_tilde = ev.H
            if conv is not None:
                H_tilde = apply_shift(ev.H, ws.free[conv.shifted_rows], conv.delta)
            h_scale = float(np.max(np.abs(ev.H), initial=0.0))
            grad_p, constant = condense(ev, it, state_R)
            try:
                G, _ = _certified_hessian(H_tilde, ev.J, fstate.mu_R, ws.active, h_scale)
                qp = solve_qp(G, grad_p, it.x, seed_active=ws.active, tol=config.qp_tol)
            except (QpFailure, QpInternalError) as exc:
                status = SolveStatus.QP_FAILURE
                message = str(exc)
                close(meas, label, 0.0, 0.0, 0.0, ratio_now, merit_here, ws.active.size)
                break
            dv = np.concatenate([qp.p, dual_step(ev, it, state_R, qp.p)])
            N_k = min(qp.model_decrease + constant, 0.0)

            direction = orient(direction, merit_gradient(ev, it, state_R))
            step = scale(direction, it.x, qp.p, config.u_max)
            if direction.exists and step.beta > 0.0:
                # the stacked merit form at (u, w = -(1/mu_R) J u)
                H_exact = _exact_merit_xx_hessian(problem, ev, it, state_R)
                R_k = min(curvature_form(step.u, H_exact, ev.J, fstate.mu_R), 0.0)
            else:
                step = _zero_step(problem.n, problem.m)
                R_k = 0.0

            norm_p = float(np.linalg.norm(qp.p))
            norm_u = float(np.linalg.norm(step.u))
            norm_dv = float(np.linalg.norm(dv))

            if norm_dv == 0.0 and norm_u == 0.0:
                # stationary for the current subproblem; only the parameter
                # updates can make progress, so take the null step
                alpha, accepted, ev_new, merit_new, backtracks = 1.0, it, ev, merit_here, 0
            else:
                try:
                    ls = curvilinear_search(
                        problem, it, merit_here, step, dv, state_F, N_k, R_k,
                        config.j_max,
                    )
                except LineSearchFailure:
                    ls = None
                    if norm_u > 0.0:
                        step = _zero_step(problem.n, problem.m)
                        R_k = 0.0
                        norm_u = 0.0
                        try:
                            ls = curvilinear_search(
                                problem, it, merit_here, step, dv, state_F, N_k, 0.0,
                                config.j_max,
                            )
                        except LineSearchFailure as exc:
                            message = str(exc)
                    else:
                        message = "no acceptable step along the QP direction"
                if ls is None:
                    status = SolveStatus.LINE_SEARCH_FAILURE
                    close(
                        meas, label, 0.0, norm_p, norm_u, ratio_now, merit_here,
                        ws.active.size, norm_dv=norm_dv, N_k=N_k, R_k=R_k,
                    )
                    break
                alpha, accepted, ev_new, merit_new, backtracks = (
                    ls.alpha, ls.accepted, ls.ev, ls.merit_new, ls.j
                )

            if trace is not None:
                trace.append(
                    {
                        "k": k,
                        "previous": it,
                        "accepted": accepted,
                        "state": state_F,
                        "alpha": alpha,
                        "N_k": N_k,
                        "R_k": R_k,
                        "null_step": norm_dv == 0.0 and norm_u == 0.0,
                    }
                )

            close(
                meas, label, alpha, norm_p, norm_u, ratio_now, merit_here,
                ws.active.size, norm_dv=norm_dv, N_k=N_k, R_k=R_k,
                backtracks=backtracks,
            )
            prev = dict(merit_new=merit_new, merit_old=merit_here, state=state_F,
                        alpha=alpha, N_k=N_k, R_k=R_k)
            it, ev = accepted, ev_new
            k += 1
    except (EvaluationError, FactorizationBreakdown) as exc:
        # the history keeps every record closed before the failure
        status = (
            SolveStatus.EVALUATION_ERROR
            if isinstance(exc, EvaluationError)
            else SolveStatus.FACTORIZATION_BREAKDOWN
        )
        message = str(exc)

    return SolveResult(
        status=status,
        iterate=it,
        history=tuple(history),
        f=ev.f if ev is not None else np.nan,
        eta=last_meas.eta,
        omega_first=last_meas.omega_first,
        omega=last_meas.omega,
        curv_ratio=last_ratio,
        class_counts=counts,
        wall_time_s=time.perf_counter() - t0,
        message=message,
    )


def second_order_certificate(problem, iterate, mu, epsilon_a=1e-2):
    """Recompute the curvature test at a point, as used for termination.

    Returns (ratio, working set, exists). An empty free set makes the
    condition vacuous and reports ratio 0.
    """
    ev = evaluate(problem, iterate)
    ws = estimate(iterate.x, mu, epsilon_a)
    if ws.free.size == 0:
        return 0.0, ws, False
    factor = _free_factor(ev, ws, mu)
    direction = extract_direction(factor, ws, H=ev.H, J=ev.J)
    if not direction.exists:
        return 0.0, ws, False
    return direction.rayleigh, ws, True
