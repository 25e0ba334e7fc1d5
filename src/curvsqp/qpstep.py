"""Primal active-set solver for the bound-constrained step subproblem.

Minimizes grad @ dv + dv @ G @ dv / 2 over dv subject to elementwise
bounds dv[:n] >= -x on the leading n entries; trailing entries are free.
G must be symmetric positive definite, which the driver guarantees by
convexifying before calling in here. Starting from a feasible seed with
pinned entries sitting exactly on their bounds, every working-set
subproblem has a unique minimizer, so the iteration terminates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import QpFailure, QpInternalError


@dataclass(frozen=True)
class QpStep:
    dv: np.ndarray
    p: np.ndarray
    q: np.ndarray
    z: np.ndarray
    model_decrease: float
    active: np.ndarray
    iterations: int


def solve_qp(G, grad, x, seed_active=None, tol=1e-10, max_iterations=None):
    """Solve the bound-constrained QP; returns a QpStep.

    seed_active lists indices pinned at -x[i] in the starting point.
    Iteration count is capped at 100 * dim by default; hitting the cap
    raises QpFailure, a singular reduced system raises QpInternalError.
    """
    G = np.asarray(G, dtype=float)
    grad = np.asarray(grad, dtype=float)
    x = np.asarray(x, dtype=float)
    dim = grad.shape[0]
    n = x.shape[0]
    if G.shape != (dim, dim):
        raise ValueError("G and grad dimensions disagree")
    if n > dim:
        raise ValueError("more bounds than variables")
    G = 0.5 * (G + G.T)
    if max_iterations is None:
        max_iterations = 100 * max(dim, 1)
    scale = tol * (1.0 + float(np.max(np.abs(grad), initial=0.0)))

    active = np.zeros(n, dtype=bool)
    dv = np.zeros(dim)
    if seed_active is not None:
        idx = np.asarray(seed_active, dtype=int)
        active[idx] = True
        dv[idx] = -x[idx]

    free = np.ones(dim, dtype=bool)
    free[:n] = ~active

    iterations = 0
    while True:
        if iterations >= max_iterations:
            raise QpFailure(
                f"active-set iteration cap {max_iterations} reached",
                partial=dv,
            )
        iterations += 1
        r = grad + G @ dv
        f_idx = np.flatnonzero(free)
        d_f = np.zeros(0)
        # stationarity is judged on the reduced residual, never on the step
        # length: a huge gradient must not swallow a genuine Newton step
        at_minimizer = float(np.max(np.abs(r[f_idx]), initial=0.0)) <= scale
        if not at_minimizer:
            try:
                d_f = np.linalg.solve(G[np.ix_(f_idx, f_idx)], -r[f_idx])
            except np.linalg.LinAlgError as exc:
                raise QpInternalError(
                    "singular reduced Hessian in a working-set subproblem"
                ) from exc
            # a step at roundoff level cannot improve the subspace further
            at_minimizer = float(np.max(np.abs(d_f))) <= 4e-16 * (
                1.0 + float(np.max(np.abs(dv[f_idx])))
            )
        if at_minimizer:
            # subspace minimizer; check bound multipliers
            a_idx = np.flatnonzero(active)
            if a_idx.size == 0:
                break
            z_a = r[a_idx]
            worst = int(np.argmin(z_a))
            if z_a[worst] >= -scale:
                break
            drop = a_idx[worst]
            active[drop] = False
            free[drop] = True
            continue
        # ratio test against inactive lower bounds: the first of the
        # smallest ratios below 1 blocks
        alpha = 1.0
        blocker = -1
        pos = np.flatnonzero((f_idx < n) & (d_f < 0.0))
        b_idx = f_idx[pos]
        ratios = (-x[b_idx] - dv[b_idx]) / d_f[pos]
        hits = np.flatnonzero(ratios < alpha)
        if hits.size:
            first = hits[np.argmin(ratios[hits])]
            alpha = ratios[first]
            blocker = int(b_idx[first])
        dv[f_idx] += alpha * d_f
        if blocker >= 0:
            dv[blocker] = -x[blocker]
            active[blocker] = True
            free[blocker] = False

    z = np.zeros(n)
    a_idx = np.flatnonzero(active)
    z[a_idx] = r[a_idx]
    obj = float(grad @ dv + 0.5 * dv @ (G @ dv))
    return QpStep(
        dv=dv,
        p=dv[:n].copy(),
        q=dv[n:].copy(),
        z=z,
        model_decrease=obj,
        active=a_idx,
        iterations=iterations,
    )
