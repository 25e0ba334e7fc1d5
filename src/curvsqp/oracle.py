"""Reference computations used to cross-check the solver's fast paths.

The eigensolver here is deliberately independent of LAPACK: a cyclic
Jacobi iteration that the test suite can trust as a second route when
verifying inertia counts, eigenvalue bounds, and curvature certificates.
The brute-force bound-pattern QP solve plays the same role for the
active-set method, and the scalar-loop stage-1 elimination for the
vectorized one in factor: the two must agree bit for bit.
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


def _jacobi_sweep(A, V, tol, max_sweeps):
    """Diagonalize symmetric A in place by cyclic Jacobi rotations.

    V (same shape, preinitialized to the identity) accumulates the
    rotations so that the original matrix equals V @ A_final @ V.T.
    Returns (sweeps_used, final_off_diagonal_frobenius_norm); the sweep
    count stops growing once the off-diagonal norm falls to tol.
    """
    n = A.shape[0]
    for sweep in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += 2.0 * A[p, q] * A[p, q]
        off = np.sqrt(off)
        if off <= tol:
            return sweep, off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    off = 0.0
    for p in range(n - 1):
        for q in range(p + 1, n):
            off += 2.0 * A[p, q] * A[p, q]
    return max_sweeps, np.sqrt(off)


def eigen(A, tol_factor=1e-12, max_sweeps=100, zero_tol_factor=1e-10):
    """Diagonalize symmetric A by cyclic Jacobi rotations.

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


def stage1_reference(A, L, perm, ptype, psize, nh, tiny):
    """Restricted-pivot elimination of a symmetric saddle matrix, in place.

    The reference for factor.eliminate: one scalar at a time, in the
    operation order the vectorized kernel reproduces. Rows whose original index (tracked in perm) is < nh belong to the
    curvature block; the rest are dual rows whose diagonal starts negative.
    Admissible pivots: a curvature diagonal > tiny (code 0), a dual
    diagonal < -tiny (code 1), or a curvature-by-dual 2x2 cross block with
    negative determinant (code 2). 1x1 pivots are chosen greedily by
    magnitude, dual rows winning exact ties; the 2x2 is tried only when no
    1x1 is admissible, pairing the largest-magnitude cross coupling.

    A's leading k x k part retains the pivot blocks on its (block)
    diagonal, the trailing part becomes the Schur complement, and L gets
    unit-lower-triangular multipliers. Returns (k, npiv, status): k
    eliminated positions, npiv pivot records, status 1 when dual rows
    remain unpivoted (breakdown), else 0.
    """
    N = A.shape[0]
    k = 0
    npiv = 0
    while k < N:
        best = -1
        best_mag = 0.0
        best_dual = False
        for i in range(k, N):
            v = A[i, i]
            if perm[i] < nh:
                ok = v > tiny
                dual = False
            else:
                ok = v < -tiny
                dual = True
            if not ok:
                continue
            mag = abs(v)
            if mag > best_mag or (mag == best_mag and dual and not best_dual):
                best = i
                best_mag = mag
                best_dual = dual
        if best >= 0:
            if best != k:
                for t in range(N):
                    tmp = A[k, t]
                    A[k, t] = A[best, t]
                    A[best, t] = tmp
                for t in range(N):
                    tmp = A[t, k]
                    A[t, k] = A[t, best]
                    A[t, best] = tmp
                for t in range(k):
                    tmp = L[k, t]
                    L[k, t] = L[best, t]
                    L[best, t] = tmp
                p = perm[k]
                perm[k] = perm[best]
                perm[best] = p
            a = A[k, k]
            inva = 1.0 / a
            for i in range(k + 1, N):
                L[i, k] = A[i, k] * inva
            for i in range(k + 1, N):
                ci = A[i, k]
                for j in range(k + 1, N):
                    A[i, j] -= (ci * A[j, k]) * inva
            ptype[npiv] = 0 if perm[k] < nh else 1
            psize[npiv] = 1
            npiv += 1
            k += 1
        else:
            bi = -1
            bj = -1
            bmag = 0.0
            for i in range(k, N):
                if perm[i] >= nh:
                    continue
                for j in range(k, N):
                    if perm[j] < nh:
                        continue
                    mag = abs(A[i, j])
                    if mag > bmag:
                        bmag = mag
                        bi = i
                        bj = j
            if bi < 0:
                break
            det = A[bi, bi] * A[bj, bj] - A[bi, bj] * A[bi, bj]
            if det >= 0.0:
                break
            if bi != k:
                for t in range(N):
                    tmp = A[k, t]
                    A[k, t] = A[bi, t]
                    A[bi, t] = tmp
                for t in range(N):
                    tmp = A[t, k]
                    A[t, k] = A[t, bi]
                    A[t, bi] = tmp
                for t in range(k):
                    tmp = L[k, t]
                    L[k, t] = L[bi, t]
                    L[bi, t] = tmp
                p = perm[k]
                perm[k] = perm[bi]
                perm[bi] = p
                if bj == k:
                    bj = bi
            if bj != k + 1:
                for t in range(N):
                    tmp = A[k + 1, t]
                    A[k + 1, t] = A[bj, t]
                    A[bj, t] = tmp
                for t in range(N):
                    tmp = A[t, k + 1]
                    A[t, k + 1] = A[t, bj]
                    A[t, bj] = tmp
                for t in range(k):
                    tmp = L[k + 1, t]
                    L[k + 1, t] = L[bj, t]
                    L[bj, t] = tmp
                p = perm[k + 1]
                perm[k + 1] = perm[bj]
                perm[bj] = p
            e11 = A[k, k]
            e22 = A[k + 1, k + 1]
            e12 = A[k, k + 1]
            det = e11 * e22 - e12 * e12
            idet = 1.0 / det
            for i in range(k + 2, N):
                w1 = A[i, k]
                w2 = A[i, k + 1]
                L[i, k] = (w1 * e22 - w2 * e12) * idet
                L[i, k + 1] = (w2 * e11 - w1 * e12) * idet
            for i in range(k + 2, N):
                li1 = L[i, k]
                li2 = L[i, k + 1]
                for j in range(k + 2, N):
                    A[i, j] -= li1 * A[j, k] + li2 * A[j, k + 1]
            ptype[npiv] = 2
            psize[npiv] = 2
            npiv += 1
            k += 2
    status = 0
    for i in range(k, N):
        if perm[i] >= nh:
            status = 1
            break
    return k, npiv, status


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
