"""Primal active-set solver for the bound-constrained step subproblem.

Minimizes grad @ p + p @ G @ p / 2 over p subject to p >= -x. The
driver passes the condensed step model (merit.condense): G is the
certified H_used + J.T J / mu, symmetric positive definite, and the dual
step follows from p in closed form. Starting from a feasible seed with
pinned entries sitting exactly on their bounds, every working-set
subproblem has a unique minimizer, so the iteration terminates.
"""

from typing import NamedTuple

import numpy as np

from .errors import QpFailure, QpInternalError


class QpStep(NamedTuple):
    p: np.ndarray
    z: np.ndarray
    model_decrease: float
    active: np.ndarray
    iterations: int


def solve_qp(G, grad, x, seed_active=None, tol=1e-10, max_iterations=None):
    """Solve the bound-constrained QP for symmetric positive definite G.

    Returns a QpStep. seed_active lists indices pinned at -x[i] in the
    starting point. Iteration count is capped at 100 * n by default;
    hitting the cap raises QpFailure, a singular reduced system raises
    QpInternalError.
    """
    G = np.asarray(G, dtype=float)
    grad = np.asarray(grad, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if G.shape != (n, n) or grad.shape != (n,):
        raise ValueError("G, grad and x dimensions disagree")
    if max_iterations is None:
        max_iterations = 100 * max(n, 1)
    scale = tol * (1.0 + float(np.max(np.abs(grad), initial=0.0)))

    active = np.zeros(n, dtype=bool)
    p = np.zeros(n)
    if seed_active is not None:
        idx = np.asarray(seed_active, dtype=int)
        active[idx] = True
        p[idx] = -x[idx]

    iterations = 0
    # the free indices, with their reduced matrix and bounds, are
    # gathered again only after the working set changes
    f_idx = None
    while True:
        if iterations >= max_iterations:
            raise QpFailure(
                f"active-set iteration cap {max_iterations} reached",
                partial=p,
            )
        iterations += 1
        r = grad + G @ p
        if f_idx is None:
            f_idx = np.flatnonzero(~active)
            G_f = lo_f = None
        r_f = r[f_idx]
        # stationarity is judged on the reduced residual, never on the step
        # length: a huge gradient must not swallow a genuine Newton step
        at_minimizer = float(np.max(np.abs(r_f), initial=0.0)) <= scale
        if not at_minimizer:
            if G_f is None:
                G_f = G.take(f_idx, 0).take(f_idx, 1)
                lo_f = -x[f_idx]
            try:
                d_f = np.linalg.solve(G_f, -r_f)
            except np.linalg.LinAlgError as exc:
                raise QpInternalError(
                    "singular reduced Hessian in a working-set subproblem"
                ) from exc
            p_f = p[f_idx]
            # a step at roundoff level cannot improve the subspace further
            at_minimizer = float(np.max(np.abs(d_f))) <= 4e-16 * (
                1.0 + float(np.max(np.abs(p_f)))
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
            active[a_idx[worst]] = False
            f_idx = None
            continue
        # ratio test against inactive lower bounds: the first of the
        # smallest ratios below 1 blocks
        alpha = 1.0
        blocker = -1
        pos = np.flatnonzero(d_f < 0.0)
        if pos.size:
            ratios = (lo_f[pos] - p_f[pos]) / d_f[pos]
            first = int(ratios.argmin())
            if ratios[first] != ratios[first]:
                # argmin stops at a NaN, which the test below never passes
                hits = np.flatnonzero(ratios < alpha)
                if hits.size:
                    first = int(hits[np.argmin(ratios[hits])])
            if ratios[first] < alpha:
                alpha = ratios[first]
                blocker = int(f_idx[pos[first]])
        p[f_idx] = p_f + alpha * d_f
        if blocker >= 0:
            p[blocker] = -x[blocker]
            active[blocker] = True
            f_idx = None

    z = np.zeros(n)
    a_idx = np.flatnonzero(active)
    z[a_idx] = r[a_idx]
    obj = float(grad @ p + 0.5 * p @ (G @ p))
    return QpStep(p=p, z=z, model_decrease=obj, active=a_idx, iterations=iterations)
