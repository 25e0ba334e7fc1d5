"""Independent second-order check of a solver's final point.

Uses only the problem callbacks and dense linear algebra: no working
set, factorization or certificate from the solver, and not even its
multipliers. At x it checks

  * feasibility: |c(x)| small and x >= 0;
  * first-order KKT: g = J'y + z with z >= 0 on the active bounds and
    z = 0 elsewhere, (y, z) fitted by least squares;
  * second order: lambda_min(Z' H Z) >= -tol, where Z spans the null
    space of J stacked with the active-bound rows and H is the
    Lagrangian Hessian at the fitted y.

A verified point where an active bound has a zero multiplier and the
Hessian has negative curvature once that bound is released is a weak
bound saddle: the check above passes there, but the point is not a
local minimizer. Those are counted, not failed.
"""

from dataclasses import dataclass

import numpy as np

from curvsqp.oracle import nullspace_basis

TOL_FEAS = 1e-6
TOL_ACTIVE = 1e-7
TOL_KKT = 1e-6
TOL_CURV = 1e-6


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    weak_bound_saddle: bool


def _lambda_min(H, rows):
    Z = nullspace_basis(rows)
    if Z.shape[1] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(Z.T @ H @ Z)[0])


def check_point(problem, x):
    """Verdict on whether x is a second-order KKT point of problem."""
    x = np.asarray(x, dtype=float)
    n, m = problem.n, problem.m
    g = np.asarray(problem.gradient(x), dtype=float)
    c = np.asarray(problem.constraints(x), dtype=float).reshape(m)
    J = np.asarray(problem.jacobian(x), dtype=float).reshape(m, n)
    scale_x = 1.0 + float(np.max(np.abs(x), initial=0.0))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(g))):
        return Verdict(False, "non-finite point or gradient", False)
    if float(np.max(np.abs(c), initial=0.0)) > TOL_FEAS * scale_x:
        return Verdict(False, "infeasible: |c| too large", False)
    if float(np.min(x, initial=0.0)) < -TOL_FEAS * scale_x:
        return Verdict(False, "infeasible: bound violated", False)

    active = np.flatnonzero(x <= TOL_ACTIVE * scale_x)
    E = np.eye(n)[active]
    A = np.vstack([J, E])
    mult, *_ = np.linalg.lstsq(A.T, g, rcond=None)
    y, z = mult[:m], mult[m:]
    g_scale = 1.0 + float(np.max(np.abs(g), initial=0.0))
    resid = g - A.T @ mult
    if float(np.max(np.abs(resid), initial=0.0)) > TOL_KKT * g_scale:
        return Verdict(False, "first-order: stationarity residual", False)
    if z.size and float(np.min(z)) < -TOL_KKT * g_scale:
        return Verdict(False, "first-order: negative bound multiplier", False)

    # the Lagrangian f - y'c has Hessian H(x, -y) in NlpProblem's convention
    H = np.asarray(problem.hessian(x, -y), dtype=float)
    H = 0.5 * (H + H.T)
    tol = TOL_CURV * (1.0 + float(np.max(np.abs(H), initial=0.0)))
    if _lambda_min(H, A) < -tol:
        return Verdict(False, "second-order: negative reduced curvature", False)

    weak = False
    for pos in range(active.size):
        if abs(z[pos]) > TOL_KKT * g_scale:
            continue
        released = np.delete(A, m + pos, axis=0)
        if _lambda_min(H, released) < -tol:
            weak = True
            break
    return Verdict(True, "", weak)
