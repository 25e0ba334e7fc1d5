"""Primal active-set solver for the bound-constrained step subproblem.

Minimizes grad @ p + p @ G @ p / 2 over p subject to p >= -x. The
driver passes the condensed step model (merit.condense): G is the
certified H_used + J.T J / mu, symmetric positive definite, and the dual
step follows from p in closed form. Starting from a feasible seed with
pinned entries sitting exactly on their bounds, every working-set
subproblem has a unique minimizer, so the iteration terminates.

The data must be finite: a non-finite grad or x raises QpFailure at
entry, and so does the first working-set subproblem whose reduced
residual or step is not finite, with the p reached before it.

A 1-D G is the diagonal of the matrix it stands for, +0.0 off the
diagonal; the driver certifies one when the problem has no equality
rows and a separable objective (factor.diagonal_entries). It is
applied by elementwise product and division instead of G @ p and
np.linalg.solve, with the same QpStep or QpFailure bit for bit: every
product of an off-diagonal entry is a signed zero, and "+ 0.0" gives
zero rows the +0.0 the matrix product gives them. A quotient can differ
from LAPACK's only in the sign of a zero step entry, where the residual
is zero; that entry of p is then +0.0 or nonzero (a released entry
keeps -0.0 only while its residual is grad's nonzero entry), so adding
the step changes no bit of it either. A diagonal the driver certifies
is positive, finite or +inf (see the factor module), and an inf entry
gives the matrix route's bits too: inf * 0 is NaN in diag * p as in
G @ p.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import QpFailure, QpInternalError


class QpStep(NamedTuple):
    p: np.ndarray
    z: np.ndarray
    model_decrease: float
    active: np.ndarray
    iterations: int


def solve_qp(G, grad, x, seed_active=None, *, tol, max_iterations=None):
    """Solve the bound-constrained QP for symmetric positive definite G.

    G is an n x n matrix or, 1-D, a diagonal. Returns a QpStep.
    seed_active lists indices pinned at -x[i] in the starting point.
    Iteration count is capped at 100 * n by default; hitting the cap or
    non-finite data raises QpFailure, a singular reduced system raises
    QpInternalError.
    """
    G = np.asarray(G, dtype=float)
    grad = np.asarray(grad, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if G.shape not in ((n, n), (n,)) or grad.shape != (n,):
        raise ValueError("G, grad and x dimensions disagree")
    if max_iterations is None:
        max_iterations = 100 * max(n, 1)
    grad_max = float(np.maximum.reduce(np.abs(grad), None, initial=0.0))
    if not (math.isfinite(grad_max) and np.logical_and.reduce(np.isfinite(x), None)):
        raise QpFailure("non-finite gradient or bound")
    scale = tol * (1.0 + grad_max)

    active = np.zeros(n, dtype=bool)
    p = np.zeros(n)
    if seed_active is not None:
        idx = np.asarray(seed_active, dtype=int)
        active[idx] = True
        p[idx] = -x[idx]

    # G's diagonal on the elementwise route, else None
    diag = G if G.ndim == 1 else None
    iterations = 0
    # the free indices, with their reduced matrix (its diagonal on the
    # elementwise route) and bounds, are gathered again only after the
    # working set changes
    f_idx = None
    while True:
        if iterations >= max_iterations:
            raise QpFailure(
                f"active-set iteration cap {max_iterations} reached",
                partial=p,
            )
        iterations += 1
        r = grad + (diag * p + 0.0) if diag is not None else grad + G @ p
        if f_idx is None:
            f_idx = (~active).nonzero()[0]
            G_f = lo_f = None
        r_f = r[f_idx]
        r_max = float(np.maximum.reduce(np.abs(r_f), None, initial=0.0))
        # stationarity is judged on the reduced residual, never on the step
        # length: a huge gradient must not swallow a genuine Newton step
        at_minimizer = r_max <= scale
        if not at_minimizer:
            if G_f is None:
                G_f = diag[f_idx] if diag is not None else G.take(f_idx, 0).take(f_idx, 1)
                lo_f = -x[f_idx]
            if diag is not None:
                if not np.logical_and.reduce(G_f, None, bool):
                    raise QpInternalError("singular reduced Hessian in a working-set subproblem")
                with np.errstate(over="ignore", under="ignore"):
                    d_f = -r_f / G_f
            else:
                try:
                    d_f = np.linalg.solve(G_f, -r_f)
                except np.linalg.LinAlgError as exc:
                    raise QpInternalError(
                        "singular reduced Hessian in a working-set subproblem"
                    ) from exc
            d_max = float(np.maximum.reduce(np.abs(d_f), None))
            # a residual that is not finite fails the stationarity test
            if not math.isfinite(r_max + d_max):
                raise QpFailure("non-finite residual or step in a working-set subproblem", partial=p)
            p_f = p[f_idx]
            # a step at roundoff level cannot improve the subspace further
            at_minimizer = d_max <= 4e-16 * (1.0 + float(np.maximum.reduce(np.abs(p_f), None)))
        if at_minimizer:
            # subspace minimizer; check bound multipliers
            a_idx = active.nonzero()[0]
            if a_idx.size == 0:
                break
            z_a = r[a_idx]
            worst = int(z_a.argmin())
            if z_a[worst] >= -scale:
                break
            active[a_idx[worst]] = False
            f_idx = None
            continue
        # ratio test against inactive lower bounds: the first of the
        # smallest ratios below 1 blocks
        alpha = 1.0
        blocker = -1
        pos = (d_f < 0.0).nonzero()[0]
        if pos.size:
            # a ratio that overflows to inf never blocks
            with np.errstate(over="ignore"):
                ratios = (lo_f[pos] - p_f[pos]) / d_f[pos]
            first = int(ratios.argmin())
            if ratios[first] < alpha:
                alpha = ratios[first]
                blocker = int(f_idx[pos[first]])
        p[f_idx] = p_f + alpha * d_f
        if blocker >= 0:
            p[blocker] = -x[blocker]
            active[blocker] = True
            f_idx = None

    z = np.zeros(n)
    a_idx = active.nonzero()[0]
    z[a_idx] = r[a_idx]
    obj = float(grad @ p + 0.5 * p @ ((diag * p + 0.0) if diag is not None else G @ p))
    return QpStep(p=p, z=z, model_decrease=obj, active=a_idx, iterations=iterations)
