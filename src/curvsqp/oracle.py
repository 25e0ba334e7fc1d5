"""Checks of the solver's results that do not go through the solver's code.

The eigensolver here is deliberately independent of LAPACK: a
round-robin Jacobi iteration that the test suite can trust as a second
route when verifying inertia counts, eigenvalue bounds, and curvature
certificates. The brute-force bound-pattern QP solve plays the same
role for the active-set method, and on the stacked merit model
(merit_hessian, with its unbounded dual entries) for the condensed step
the driver takes; nullspace_basis gives the reduced Hessians that
second-order checks need. Only curvsqp.errors is imported from the
package, so nothing here depends on the modules it checks. The slow
routes the fast paths must match bit for bit are test code
(tests/reference.py).
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CurvSqpError


@dataclass(frozen=True)
class EigenReport:
    """Full spectrum of a symmetric matrix from the Jacobi iteration.

    values are ascending; vectors[:, i] pairs with values[i]. inertia is
    the (positive, negative, zero) count using a relative zero tolerance.
    """

    values: np.ndarray
    vectors: np.ndarray
    lambda_min: float
    inertia: tuple
    sweeps: int
    off_norm: float


def _round_robin(n):
    """Rounds of disjoint (p, q) pairs that together cover every p < q once.

    A round-robin (tournament) ordering, as in the parallel Jacobi
    method of Brent & Luk (1985): index 0 stays put while the others
    rotate one place per round, so each of the n - 1 rounds (n rounded
    up to even; pairs with the padding index dropped) holds up to n/2
    pairs that touch disjoint rows.
    """
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        order = [0] + ring
        pairs = [sorted((order[i], order[m - 1 - i])) for i in range(m // 2)]
        pairs = [pq for pq in pairs if pq[1] < n]
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        rounds.append((pairs[:, 0], pairs[:, 1]))
        ring = ring[-1:] + ring[:-1]
    return rounds


def _jacobi_sweep(A, V, tol, max_sweeps):
    """Diagonalize symmetric A in place by round-robin Jacobi rotations.

    Each round of _round_robin's ordering is one numpy step: its
    rotations touch disjoint row and column pairs, so together they form
    one orthogonal G, and A becomes G @ A @ G.T with each rotated (p, q)
    entry set to zero. V (same shape, preinitialized to the identity)
    accumulates the rotations so that the original matrix equals
    V @ A_final @ V.T. Returns (sweeps_used,
    final_off_diagonal_frobenius_norm); the sweep count stops growing
    once the off-diagonal norm falls to tol.
    """
    n = A.shape[0]
    upper = np.triu_indices(n, 1)
    rounds = _round_robin(n)

    def off_norm():
        return np.sqrt(2.0 * np.sum(A[upper] ** 2))

    for sweep in range(max_sweeps):
        off = off_norm()
        if off <= tol:
            return sweep, off
        for P, Q in rounds:
            # t = tan of the smaller angle that zeros A[p, q]; a pair with
            # A[p, q] = 0 gets t = 0, and where= keeps 0/0 out of it
            two = 2.0 * A[P, Q]
            delta = A[Q, Q] - A[P, P]
            num = np.where(delta >= 0.0, two, -two)
            den = np.abs(delta) + np.hypot(delta, two)
            t = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            G = np.eye(n)
            G[P, P] = c
            G[Q, Q] = c
            G[P, Q] = -s
            G[Q, P] = s
            A[...] = G @ A @ G.T
            A[P, Q] = 0.0
            A[Q, P] = 0.0
            V[...] = V @ G.T
    return max_sweeps, off_norm()


def eigen(A, tol_factor=1e-12, max_sweeps=100, zero_tol_factor=1e-10):
    """Diagonalize symmetric A by round-robin Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm falls below
    tol_factor times the Frobenius norm of A. Raises if max_sweeps is
    exhausted first, which for symmetric input indicates a bug.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("eigen expects a square matrix")
    n = A.shape[0]
    if n == 0:
        return EigenReport(
            values=np.zeros(0),
            vectors=np.zeros((0, 0)),
            lambda_min=np.inf,
            inertia=(0, 0, 0),
            sweeps=0,
            off_norm=0.0,
        )
    work = 0.5 * (A + A.T)
    norm = float(np.linalg.norm(work, "fro"))
    tol = tol_factor * norm
    V = np.eye(n)
    sweeps, off = _jacobi_sweep(work, V, tol, max_sweeps)
    if off > tol:
        raise CurvSqpError(
            f"jacobi iteration did not converge in {max_sweeps} sweeps "
            f"(off-diagonal {off:.3e} > {tol:.3e})"
        )
    vals = np.diag(work).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    V = V[:, order]
    zero_tol = zero_tol_factor * max(np.max(np.abs(vals)), 0.0) if n else 0.0
    n_zero = int(np.sum(np.abs(vals) <= zero_tol))
    n_pos = int(np.sum(vals > zero_tol))
    n_neg = int(np.sum(vals < -zero_tol))
    return EigenReport(
        values=vals,
        vectors=V,
        lambda_min=float(vals[0]),
        inertia=(n_pos, n_neg, n_zero),
        sweeps=int(sweeps),
        off_norm=float(off),
    )


def merit_hessian(ev, state, H_used):
    """Stacked (x, y) second-derivative model of the merit.

    [[H_used + (1+nu)/mu J.T J, nu J.T], [nu J, nu mu I]] at state.mu,
    the model whose dual block merit.condense eliminates; kept as the
    reference the condensed step is checked against.
    """
    H_used = np.asarray(H_used, dtype=float)
    n = H_used.shape[0]
    m = ev.c.shape[0]
    out = np.zeros((n + m, n + m))
    out[:n, :n] = H_used
    if m:
        J = ev.J
        out[:n, :n] += ((1.0 + state.nu) / state.mu) * (J.T @ J)
        out[:n, n:] = state.nu * J.T
        out[n:, :n] = state.nu * J
        out[n:, n:] = state.nu * state.mu * np.eye(m)
    return out


def nullspace_basis(J, rank_tol_factor=1e-10):
    """Orthonormal basis for the null space of J, columns of the result.

    Singular values at or below rank_tol_factor times the largest are
    treated as zero. An empty J (no rows) yields the identity.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise ValueError("nullspace_basis expects a 2-d array")
    m, n = J.shape
    if m == 0:
        return np.eye(n)
    _, sing, vt = np.linalg.svd(J, full_matrices=True)
    if sing.size == 0:
        return vt.T
    rank = int(np.sum(sing > rank_tol_factor * sing[0]))
    return vt[rank:].T.copy()


def qp_brute_force(G, grad, x, tol=1e-10):
    """Global minimizer of a strictly convex bound QP by pattern search.

    Minimizes grad@dv + dv@G@dv/2 subject to x + dv[:n] >= 0 with the
    trailing components of dv unconstrained, by enumerating every subset
    of bounds held active. Returns (dv, z, objective) where z collects
    the bound multipliers G@dv + grad on the first n components. Intended
    for small n only; cost grows as 2**n.
    """
    G = np.asarray(G, dtype=float)
    grad = np.asarray(grad, dtype=float)
    x = np.asarray(x, dtype=float)
    N = grad.shape[0]
    n = x.shape[0]
    scale = 1.0 + float(np.max(np.abs(grad))) if N else 1.0
    best = None
    for size in range(n + 1):
        for pattern in combinations(range(n), size):
            fixed = np.zeros(N, dtype=bool)
            fixed[list(pattern)] = True
            dv = np.zeros(N)
            dv[fixed[:n].nonzero()[0]] = -x[fixed[:n].nonzero()[0]]
            free = ~fixed
            idx = free.nonzero()[0]
            if idx.size:
                rhs = -(grad[idx] + G[np.ix_(idx, fixed.nonzero()[0])] @ dv[fixed])
                try:
                    dv[idx] = np.linalg.solve(G[np.ix_(idx, idx)], rhs)
                except np.linalg.LinAlgError:
                    continue
            slack = x + dv[:n]
            if np.any(slack < -tol * (1.0 + np.max(np.abs(x), initial=0.0))):
                continue
            z = G[:n] @ dv + grad[:n]
            if np.any(z[list(pattern)] < -tol * scale):
                continue
            obj = float(grad @ dv + 0.5 * dv @ G @ dv)
            if best is None or obj < best[2] - 1e-14 * (1.0 + abs(obj)):
                best = (dv, z, obj)
    if best is None:
        raise CurvSqpError("brute-force enumeration found no KKT pattern")
    return best
