"""Reference routes the tests compare the solver's fast paths with.

The scalar-loop stage-1 elimination, the one-step-at-a-time
certification search, the active-set loop that regathers its index sets
every iteration and the per-monomial polynomial loop are the references
for the vectorized elimination in factor, the driver's bisection,
qpstep's loop and problemfile's monomial tables; each pair must agree
bit for bit. diagonal_matrix builds the matrix a 1-D diagonal stands
for, to run a diagonal through those routes. The stage-1 diagnostics
below read a Stage1Factor: its pivot inertia, its permutation matrix and
how well L diag(B, S) L.T rebuilds the permuted KKT matrix.
"""

import numpy as np

from curvsqp.errors import QpFailure, QpInternalError
from curvsqp.factor import apply_shift
from curvsqp.qpstep import QpStep


def stage1_reference(A, L, perm, ptype, psize, nh, tiny):
    """Restricted-pivot elimination of a symmetric saddle matrix, in place.

    The reference for factor.eliminate: one scalar at a time, in the
    operation order the vectorized kernel reproduces. Rows whose
    original index (tracked in perm) is < nh belong to the curvature
    block; the rest are dual rows whose diagonal starts negative.
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


def polynomial_reference(coeffs, expos, x):
    """Value, gradient and Hessian of sum_t coeffs[t] * prod(x ** expos[t]).

    The reference for problemfile's monomial tables: one np.prod per
    monomial and per derivative entry, accumulated term by term into
    each entry in the order the tables' scatter reproduces.
    """
    n = expos.shape[1]
    total = 0.0
    for c, e in zip(coeffs, expos):
        total += c * float(np.prod(x**e))
    g = np.zeros(n)
    for c, e in zip(coeffs, expos):
        for j in np.flatnonzero(e):
            ej = e.copy()
            ej[j] -= 1
            g[j] += c * e[j] * float(np.prod(x**ej))
    H = np.zeros((n, n))
    for c, e in zip(coeffs, expos):
        nz = np.flatnonzero(e)
        for j in nz:
            if e[j] >= 2:
                ejj = e.copy()
                ejj[j] -= 2
                H[j, j] += c * e[j] * (e[j] - 1) * float(np.prod(x**ejj))
            for l in nz:
                if l <= j:
                    continue
                ejl = e.copy()
                ejl[j] -= 1
                ejl[l] -= 1
                val = c * e[j] * e[l] * float(np.prod(x**ejl))
                H[j, l] += val
                H[l, j] += val
    return float(total), g, H


def certify_reference(H_tilde, J, mu, bump_rows, h_scale):
    """Diagonal-bump H_tilde until H + (1/mu) J.T J admits Cholesky.

    The reference for driver._certified_hessian: theta steps through
    the grid 0, s, 2s, 4s, ... (s = 1e-8 * (1 + h_scale)) one Cholesky
    attempt at a time until the test factorization succeeds, and raises
    QpInternalError once it passes 1e18 * (1 + h_scale) or overflows to
    inf: like the driver's, the grid ends at its largest finite point
    when that limit is inf. Returns the factored matrix and theta; the
    two routes must agree bit for bit. A 1-D H_tilde, as the driver
    passes a diagonal Hessian, is the matrix with that diagonal.
    """
    if H_tilde.ndim == 1:
        H_tilde = np.diag(H_tilde)
    n = H_tilde.shape[0]
    if bump_rows.size == 0:
        bump_rows = np.arange(n)
    base = H_tilde + (J.T @ J) / mu if J.shape[0] else H_tilde.copy()
    base = 0.5 * (base + base.T)
    theta = 0.0
    step = 1e-8 * (1.0 + h_scale)
    while True:
        try:
            np.linalg.cholesky(apply_shift(base, bump_rows, theta))
            break
        except np.linalg.LinAlgError:
            theta = step if theta == 0.0 else 2.0 * theta
            if theta > 1e18 * (1.0 + h_scale) or theta == np.inf:
                raise QpInternalError(
                    "convexified Hessian cannot be made positive definite"
                )
    return apply_shift(base, bump_rows, theta), theta


# 2**j for every positive point of the certification grid: the grid
# spans 1e-8 to 1e18 times its scale, so 87 doublings cover it
_DOUBLINGS = 2.0 ** np.arange(87)


def certification_grid_reference(h_scale, theta_prev):
    """(grid, top, k0): the certification grid as one array, its last index
    and the index of the least point >= theta_prev, clamped to top.

    The reference for driver._certification_grid and driver._grid_point:
    every positive point is formed at once as s * 2**j, the points past
    1e18 * (1 + h_scale) or past the largest finite one are dropped, and
    k0 comes from a sorted search of the array.
    """
    with np.errstate(over="ignore"):
        steps = (1e-8 * (1.0 + h_scale)) * _DOUBLINGS
    limit = 1e18 * (1.0 + h_scale)
    grid = np.concatenate(([0.0], steps[(steps <= limit) & (steps < np.inf)]))
    top = grid.size - 1
    return grid, top, min(int(np.searchsorted(grid, theta_prev)), top)


def qp_reference(G, grad, x, seed_active=None, *, tol, max_iterations=None):
    """qpstep.solve_qp with every index set rebuilt on every iteration.

    The reference for the active-set loop: free and active indices, the
    reduced matrix and the ratio test are gathered afresh from the full
    arrays each time, and finiteness is tested on whole arrays. The
    QpStep, the QpFailure and the QpInternalError of the two routes must
    agree bit for bit.

    Returns a QpStep. seed_active lists indices pinned at -x[i] in the
    starting point. Iteration count is capped at 100 * n by default;
    hitting the cap raises QpFailure, as a non-finite grad, x, reduced
    residual or step does, and a singular reduced system raises
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
    if not (np.isfinite(grad).all() and np.isfinite(x).all()):
        raise QpFailure("non-finite gradient or bound")
    scale = tol * (1.0 + float(np.max(np.abs(grad), initial=0.0)))

    active = np.zeros(n, dtype=bool)
    p = np.zeros(n)
    if seed_active is not None:
        idx = np.asarray(seed_active, dtype=int)
        active[idx] = True
        p[idx] = -x[idx]

    iterations = 0
    while True:
        if iterations >= max_iterations:
            raise QpFailure(
                f"active-set iteration cap {max_iterations} reached",
                partial=p,
            )
        iterations += 1
        r = grad + G @ p
        f_idx = np.flatnonzero(~active)
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
            if not (np.isfinite(r[f_idx]).all() and np.isfinite(d_f).all()):
                raise QpFailure("non-finite residual or step in a working-set subproblem", partial=p)
            # a step at roundoff level cannot improve the subspace further
            at_minimizer = float(np.max(np.abs(d_f))) <= 4e-16 * (
                1.0 + float(np.max(np.abs(p[f_idx])))
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
            continue
        # ratio test against inactive lower bounds: the first of the
        # smallest ratios below 1 blocks
        alpha = 1.0
        blocker = -1
        pos = np.flatnonzero(d_f < 0.0)
        b_idx = f_idx[pos]
        # a ratio that overflows to inf never blocks
        with np.errstate(over="ignore"):
            ratios = (-x[b_idx] - p[b_idx]) / d_f[pos]
        hits = np.flatnonzero(ratios < alpha)
        if hits.size:
            first = hits[np.argmin(ratios[hits])]
            alpha = ratios[first]
            blocker = int(b_idx[first])
        p[f_idx] += alpha * d_f
        if blocker >= 0:
            p[blocker] = -x[blocker]
            active[blocker] = True

    z = np.zeros(n)
    a_idx = np.flatnonzero(active)
    z[a_idx] = r[a_idx]
    obj = float(grad @ p + 0.5 * p @ (G @ p))
    return QpStep(p=p, z=z, model_decrease=obj, active=a_idx, iterations=iterations)


def diagonal_matrix(d):
    """The square matrix with diagonal d and +0.0 everywhere else."""
    n = d.shape[0]
    A = np.zeros((n, n))
    A.ravel()[::n + 1] = d
    return A


def inertia_so_far(factor):
    """Inertia of a Stage1Factor's pivot blocks B, read off the pivot tags."""
    counts = factor.counts
    return (counts["H+"] + counts["HD"], counts["D-"] + counts["HD"], 0)


def permutation_matrix(factor):
    """P with P @ K @ P.T the KKT matrix in a Stage1Factor's pivot order."""
    N = factor.perm.shape[0]
    P = np.zeros((N, N))
    P[np.arange(N), factor.perm] = 1.0
    return P


def reconstruction_error(factor):
    """Max-norm of P K P.T - L diag(B, S) L.T, B assembled from factor.blocks."""
    N = factor.perm.shape[0]
    D = np.zeros((N, N))
    for blk in factor.blocks:
        end = blk.offset + blk.values.shape[0]
        D[blk.offset:end, blk.offset:end] = blk.values
    k = factor.n_piv
    D[k:, k:] = factor.S
    P = permutation_matrix(factor)
    return float(np.max(np.abs(P @ factor.kkt.K @ P.T - factor.L @ D @ factor.L.T), initial=0.0))
