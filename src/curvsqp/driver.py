"""Outer solver loop combining the QP step with curvature escapes.

An iteration is an analysis, a classification and a step. The analysis
(_analyze, shared with second_order_certificate) estimates the working
set, factorizes the free KKT system at the regularization penalty,
chooses the convexifying shift and pulls out a negative-curvature
direction. The iterate is then scored and classified, the reference
multipliers and penalties are updated, and termination is checked. The
step (_step) solves the bound-constrained QP in x on H_used + J.T J / mu_R
as the certify module makes it positive definite (the dual step follows
in closed form), scales the curvature step against the QP step, and
backtracks along the curvilinear path x + alpha*u + alpha^2*p (u = 0
when there is no usable curvature direction). One search is made per
step; when it finds no point the solve ends as line-search-failure.
Each iteration ends in exactly one IterationRecord, which is also what
the next penalty update reads. solve builds it in one place from the
measures and the step fields _step fills in, also when the step raises;
_NO_STEP holds the values of a record that made no step.

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
import time

import numpy as np

from .api import IterationRecord, SolveResult, SolveStatus, SolverConfig
from .certify import _certified_hessian
from .classify import (
    Measures,
    classify as classify_iterate,
    initial_state,
    measures,
    merit_residuals,
    update_state,
)
from .curvature import (
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
from .factor import apply_shift, build_kkt, convexify, diagonal_entries, stage1_factorize
from .merit import (
    MeritState,
    condense,
    curvilinear_search,
    dual_step,
    merit_gradient,
    merit_value,
    penalty_update,
)
from .model import evaluate, lagrangian_hessian, make_iterate, norm
from .qpstep import solve_qp
from .workset import estimate, restrict_columns, restrict_principal


# the measures of an iterate the solve failed before measuring
_UNMEASURED = Measures(
    eta=np.nan, omega_first=np.nan, curv_ratio=np.nan,
    omega=np.nan, phi_S=np.nan, phi_L=np.nan,
)


def _merit_state(source, mu, config):
    """Merit state at penalty mu; y_E from a FilterState or record."""
    return MeritState(
        y_E=np.asarray(source.y_E, dtype=float),
        mu=mu,
        nu=config.nu,
        eta_S=config.eta_S,
        alpha_min=config.alpha_min,
    )


def _exact_merit_xx_hessian(problem, ev, iterate, state):
    """Lagrangian Hessian at the multiplier the merit actually carries.

    With no constraints, or only affine ones, the multiplier does not
    enter it, so it is the Hessian ev already holds.
    """
    if ev.c.shape[0] == 0 or problem.linear_constraints:
        return ev.H
    pi = state.y_E - ev.c / state.mu
    return lagrangian_hessian(problem, iterate.x, pi + state.nu * (pi - iterate.y))[0]


def _analyze(ev, x, mu, mu_R, config):
    """Working set at penalty mu, then the free KKT factor at mu_R.

    Returns (ws, conv, direction, H): the working set, the convexifying
    shift of the factor (None when every variable is active), the
    negative-curvature direction it yields (a non-direction when there
    is none or curvature is disabled) and the Hessian every step takes:
    ev.H, or its diagonal when m = 0 and factor.diagonal_entries accepts it.
    """
    m, n = ev.J.shape
    ws = estimate(x, mu, config.epsilon_a)
    H = diagonal_entries(ev.H) if m == 0 else None
    H = ev.H if H is None else H
    conv, direction = None, no_direction(n, m)
    if ws.free.size:
        kkt = build_kkt(restrict_principal(H, ws), restrict_columns(ev.J, ws), mu_R)
        factor = stage1_factorize(kkt)
        conv = convexify(factor, config.margin)
        if config.enable_curvature:
            direction = extract_direction(factor, ws, ev.H, ev.J)
    return ws, conv, direction, H


def _check_point(problem, v):
    """Raise ValueError unless v has the problem's shapes, is finite and has x >= 0."""
    if v.x.shape != (problem.n,) or v.y.shape != (problem.m,):
        raise ValueError("start point dimensions do not match the problem")
    if not (np.logical_and.reduce(np.isfinite(v.x), None)
            and np.logical_and.reduce(np.isfinite(v.y), None)):
        raise ValueError("start point is not finite")
    if float(np.minimum.reduce(v.x, None, initial=0.0)) < 0.0:
        raise ValueError("start point violates the nonnegativity bounds")


# the step fields of a record that made no step; each iteration's record
# starts from a copy, which _step fills in as it learns each value
_NO_STEP = dict(
    alpha=0.0, norm_p=0.0, norm_u=0.0, norm_dv=0.0, N_k=0.0, R_k=0.0, theta=0.0,
    cholesky_attempts=0, trials=0, bound_rejections=0,
)


def _step(problem, ev, H, it, ws, conv, direction, fstate, state_F, merit_here, theta_prev,
          config, step_fields):
    """Certify, solve the QP, scale the curvature step and search.

    The QP in x runs on the convexified Hessian plus the penalty term,
    certified positive definite by a shift search that starts at the
    previous step's shift theta_prev; the dual step is closed-form. One
    search runs along the curvilinear path (u, p), with u = 0 when the
    scaled curvature step is empty.

    step_fields is the record's copy of _NO_STEP; each value is written
    into it as the step learns it, so a step that raises leaves its
    record what it reached. Returns the accepted LineSearchResult, or
    None for the null step. A failure raises: a callback's
    EvaluationError, QpFailure or QpInternalError, or LineSearchFailure
    when N_k or R_k is not finite (before any trial) or j_max runs out.
    """
    state_R = _merit_state(fstate, fstate.mu_R, config)
    H_tilde = H
    if conv is not None:
        H_tilde = apply_shift(H, ws.free[conv.shifted_rows], conv.delta)
    grad_p, constant = condense(ev, it, state_R)
    G, step_fields["theta"], step_fields["cholesky_attempts"] = _certified_hessian(
        H_tilde, ev.J, fstate.mu_R, ws.active, ev.h_scale, theta_prev
    )
    qp = solve_qp(G, grad_p, it.x, seed_active=ws.active, tol=config.qp_tol)
    dv = np.concatenate([qp.p, dual_step(ev, it, state_R, qp.p)])
    step_fields.update(norm_p=norm(qp.p), norm_dv=norm(dv),
                       N_k=min(qp.model_decrease + constant, 0.0))

    direction = orient(direction, merit_gradient(ev, it, state_R))
    step = scale(direction, it.x, qp.p, config.u_max)
    step_fields["norm_u"] = norm(step.u)
    if step.beta > 0.0:
        # the stacked merit form at (u, w = -(1/mu_R) J u)
        H_exact = _exact_merit_xx_hessian(problem, ev, it, state_R)
        step_fields["R_k"] = min(curvature_form(step.u, H_exact, ev.J, fstate.mu_R), 0.0)
    N_k, R_k = step_fields["N_k"], step_fields["R_k"]

    for name, value in (("N_k", N_k), ("R_k", R_k)):
        if not math.isfinite(value):
            # no right-hand side can be formed, so no trial is evaluated
            raise LineSearchFailure(f"non-finite model quantity {name} = {value}",
                                    diagnostics={"n_trials": 0, "bound_rejections": 0})

    if step_fields["norm_dv"] == 0.0 and step_fields["norm_u"] == 0.0:
        # stationary for the current subproblem; only the parameter
        # updates can make progress, so take the null step
        step_fields["alpha"] = 1.0
        return None
    ls = curvilinear_search(problem, it, merit_here, step, dv, state_F, N_k, R_k, config.j_max)
    step_fields.update(alpha=ls.alpha, trials=ls.n_trials, bound_rejections=ls.bound_rejections)
    return ls


# the status each solver error ends a solve with, looked up with
# isinstance, so a callback's own EvaluationError subclass maps too
_FAILURES = (
    (EvaluationError, SolveStatus.EVALUATION_ERROR),
    (FactorizationBreakdown, SolveStatus.FACTORIZATION_BREAKDOWN),
    (LineSearchFailure, SolveStatus.LINE_SEARCH_FAILURE),
    ((QpFailure, QpInternalError), SolveStatus.QP_FAILURE),
)


def _failure_status(exc):
    return next(status for kind, status in _FAILURES if isinstance(exc, kind))


def solve(problem, v0=None, config=None):
    """Run the solver from v0 (problem start point when omitted).

    Trial points of the search call only the objective and constraints
    callbacks; gradient, Jacobian and Hessian run at the start point,
    at each accepted trial, and (Hessian only, when m > 0 and
    problem.linear_constraints is false) at the merit multiplier of
    each curvature step.

    A solver error ends the solve with its _FAILURES status and its text
    as message. One raised in a step closes that step's record with the
    step fields it reached and alpha = 0. One raised at the start point
    or by a stage-1 breakdown keeps the records closed before it and
    leaves the result's measures NaN (f too when the start fails);
    otherwise they are the last record's. class_counts counts the
    records' labels. A start point _check_point refuses raises ValueError.
    """
    config = config if config is not None else SolverConfig()
    if v0 is None:
        if problem.x0 is None:
            raise ValueError("problem has no start point and none was given")
        y0 = problem.y0 if problem.y0 is not None else np.zeros(problem.m)
        v0 = make_iterate(problem.x0, y0)
    _check_point(problem, v0)

    t0 = time.perf_counter()
    it, ev = v0, None
    mu = config.mu0
    fstate = None
    history = []

    try:
        ev = evaluate(problem, it)
        while True:
            # working set at the carried-over flexible penalty
            mu_R_pre = fstate.mu_R if fstate is not None else config.mu0
            ws, conv, direction, H = _analyze(ev, it.x, mu, mu_R_pre, config)
            meas = measures(ev, it, direction)

            if fstate is None:
                fstate = initial_state(meas, it.y, config.mu0, tau=config.tau0)
                label = "-"
            else:
                pre_state = _merit_state(fstate, fstate.mu_R, config)
                resid = merit_residuals(merit_gradient(ev, it, pre_state), it.x)
                label = classify_iterate(meas, fstate, resid)
                mu_R_old = fstate.mu_R
                fstate = update_state(label, fstate, meas, it)
                if fstate.mu_R != mu_R_old and direction.exists:
                    # the stronger penalty term can erase the negative curvature
                    direction = refresh_direction(direction, ev.H, ev.J, fstate.mu_R)
                # re-test the previous step under the state it was searched with
                last = history[-1]
                mu = penalty_update(
                    last.merit_new, last.merit, _merit_state(last, last.mu, config),
                    last.alpha, last.N_k, last.R_k, mu_R_next=fstate.mu_R,
                )

            state_F = _merit_state(fstate, mu, config)
            merit_here = merit_value(ev, it, state_F)

            first_order_ok = (
                meas.eta <= config.tol_constraint
                and meas.omega_first <= config.tol_first
            )
            step_fields, ls, status, message = dict(_NO_STEP), None, None, ""
            if first_order_ok and (
                not config.enable_curvature or direction.rayleigh >= -config.tol_second
            ):
                status = (
                    SolveStatus.SECOND_ORDER_OPTIMAL
                    if config.enable_curvature
                    else SolveStatus.FIRST_ORDER_ONLY
                )
            elif len(history) >= config.max_iterations:
                status = SolveStatus.ITERATION_LIMIT
                message = "iteration limit reached before the optimality tests passed"
            else:
                # the certification search starts at the previous step's shift
                theta_prev = history[-1].theta if history else 0.0
                try:
                    ls = _step(problem, ev, H, it, ws, conv, direction, fstate, state_F,
                               merit_here, theta_prev, config, step_fields)
                except (EvaluationError, LineSearchFailure, QpFailure, QpInternalError) as exc:
                    status, message = _failure_status(exc), str(exc)
                    # a failed search's counts, on the error it let through
                    counts = getattr(exc, "diagnostics", None)
                    if counts:
                        step_fields.update(trials=counts["n_trials"],
                                           bound_rejections=counts["bound_rejections"])

            history.append(
                IterationRecord(
                    k=len(history),
                    cls=label,
                    eta=meas.eta,
                    omega=meas.omega,
                    phi_S=meas.phi_S,
                    phi_L=meas.phi_L,
                    mu=mu,
                    mu_R=fstate.mu_R,
                    tau=fstate.tau,
                    curv_ratio=direction.rayleigh,
                    merit=merit_here,
                    ws_size=ws.active.size,
                    x=tuple(it.x.tolist()),
                    y=tuple(it.y.tolist()),
                    y_E=tuple(fstate.y_E.tolist()),
                    merit_new=merit_here if ls is None else ls.merit_new,
                    **step_fields,
                )
            )
            if status is not None:
                break
            if ls is not None:
                it, ev = ls.accepted, ls.ev
        ratio = direction.rayleigh
    except (EvaluationError, FactorizationBreakdown) as exc:
        # the start point or a stage-1 factorization, before any measures
        status, message = _failure_status(exc), str(exc)
        meas, ratio = _UNMEASURED, np.nan

    return SolveResult(
        status=status,
        iterate=it,
        history=tuple(history),
        f=ev.f if ev is not None else np.nan,
        eta=meas.eta,
        omega_first=meas.omega_first,
        omega=meas.omega,
        curv_ratio=ratio,
        class_counts={label: sum(rec.cls == label for rec in history) for label in "SLMF"},
        wall_time_s=time.perf_counter() - t0,
        message=message,
    )


def second_order_certificate(problem, iterate, mu):
    """Recompute the curvature test at a point, as used for termination.

    Runs the solver's own analysis under SolverConfig() with mu as both
    penalties. Returns (ratio, working set, exists). An empty free set
    makes the condition vacuous and reports ratio 0. mu must be finite
    and positive, as build_kkt requires, also when the free set is empty,
    and the point must pass solve's start-point checks.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    _check_point(problem, iterate)
    ev = evaluate(problem, iterate)
    ws, _, direction, _ = _analyze(ev, iterate.x, mu, mu, SolverConfig())
    return direction.rayleigh, ws, direction.exists
