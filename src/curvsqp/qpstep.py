"""Primal active-set solver for the bound-constrained step subproblem.

Minimizes grad @ p + p @ G @ p / 2 over p subject to p >= -x. The
driver passes the condensed step model (merit.condense): G is the
H_used + J.T J / mu certified by the certify module, symmetric positive
definite, and the dual step follows from p in closed form. Starting
from a feasible seed with pinned entries sitting exactly on their
bounds, every working-set subproblem has a unique minimizer, so the
iteration terminates.

A working-set subproblem is solved when its free residual r_F = grad_F
+ (G p)_F has max|r_F| <= tol * (1 + max|grad_F| + max_{i in F} s_i *
max_j s_j |p_j|). With s_i = sqrt(G_ii), |G_ij| <= s_i s_j for a positive
definite G, so that bounds every term of (G p)_F, which sets r_F's
rounding scale; it grows with J.T J / mu as mu falls. s_i is 0 where it
is not finite (an inf entry of a 1-D G). A bound is released while its
multiplier is below -tol * (1 + max|grad|). A non-finite grad or x raises
QpFailure at entry, and so does the first working-set subproblem whose
reduced residual or step is not finite, with the p reached before it.

A 1-D G is the diagonal of the matrix it stands for, +0.0 off the
diagonal; the certify module certifies one when the problem has no
equality rows and a separable objective (factor.diagonal_entries). It
is applied by elementwise product and division instead of G @ p and
np.linalg.solve, with the same QpStep or QpFailure bit for bit: every
product of an off-diagonal entry is a signed zero, and "+ 0.0" gives
zero rows the +0.0 the matrix product gives them. A quotient can differ
from LAPACK's only in the sign of a zero step entry, where the residual
is zero; that entry of p is then +0.0 or nonzero (a released entry
keeps -0.0 only while its residual is grad's nonzero entry), so adding
the step changes no bit of it either. A diagonal the certify module
certifies is positive, finite or +inf (see the factor module), and an
inf entry gives the matrix route's bits too: inf * 0 is NaN in diag * p
as in G @ p.
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
    root = np.sqrt(np.maximum(G if diag is not None else G.diagonal(), 0.0))
    root[~np.isfinite(root)] = 0.0
    iterations = 0
    # the free indices, with their reduced matrix (its diagonal on the
    # elementwise route) and bounds, are gathered again only after the
    # working set changes
    f_idx = None
    while True:
        if iterations >= max_iterations:
            raise QpFailure(f"active-set iteration cap {max_iterations} reached", partial=p)
        iterations += 1
        Gp = diag * p + 0.0 if diag is not None else G @ p
        r = grad + Gp
        if f_idx is None:
            f_idx = (~active).nonzero()[0]
            G_f = lo_f = None
            grad_f_max = float(np.maximum.reduce(np.abs(grad[f_idx]), None, initial=0.0))
            root_f_max = float(np.maximum.reduce(root[f_idx], None, initial=0.0))
        r_f = r[f_idx]
        r_max = float(np.maximum.reduce(np.abs(r_f), None, initial=0.0))
        gp_max = root_f_max * float(np.maximum.reduce(root * np.abs(p), None, initial=0.0))
        # the stop test of the module docstring; an inf residual fails it
        if r_max <= tol * (1.0 + grad_f_max + gp_max) and r_max < math.inf:
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
        if G_f is None:
            G_f = diag[f_idx] if diag is not None else G.take(f_idx, 0).take(f_idx, 1)
            lo_f = -x[f_idx]
        try:
            if diag is None:
                d_f = np.linalg.solve(G_f, -r_f)
            elif np.logical_and.reduce(G_f, None, bool):
                with np.errstate(over="ignore", under="ignore"):
                    d_f = -r_f / G_f
            else:  # a zero diagonal entry
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError as exc:
            raise QpInternalError("singular reduced Hessian in a working-set subproblem") from exc
        d_max = float(np.maximum.reduce(np.abs(d_f), None))
        if not math.isfinite(r_max + d_max):
            raise QpFailure("non-finite residual or step in a working-set subproblem", partial=p)
        p_f = p[f_idx]
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

    # the loop breaks right after measuring p: Gp, r and a_idx are p's
    z = np.zeros(n)
    z[a_idx] = r[a_idx]
    obj = float(grad @ p + 0.5 * p @ Gp)
    return QpStep(p=p, z=z, model_decrease=obj, active=a_idx, iterations=iterations)
