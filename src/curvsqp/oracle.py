"""Reference computations used to cross-check the solver's fast paths.

The eigensolver here is deliberately independent of LAPACK: a
round-robin Jacobi iteration that the test suite can trust as a second
route when verifying inertia counts, eigenvalue bounds, and curvature
certificates.
The brute-force bound-pattern QP solve plays the same role for the
active-set method, and on the stacked merit model (merit_hessian, with
its unbounded dual entries) for the condensed step the driver takes.
The scalar-loop stage-1 elimination, the one-step-at-a-time
certification search and the active-set loop that regathers its index
sets every iteration are the references for the vectorized elimination
in factor, the driver's bisection and qpstep's loop, and the
per-monomial polynomial loop is the reference for problemfile's
monomial tables; each pair must agree bit for bit. The curvilinear
search has no second route: merit's search is the one-trial-at-a-time
loop, and its tests check the acceptance rule directly.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CurvSqpError, QpFailure, QpInternalError
from .factor import apply_shift
from .qpstep import QpStep


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
    QpInternalError once it passes 1e18 * (1 + h_scale). Returns the
    factored matrix and theta; the two routes must agree bit for bit.
    """
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
            if theta > 1e18 * (1.0 + h_scale):
                raise QpInternalError(
                    "convexified Hessian cannot be made positive definite"
                )
    return apply_shift(base, bump_rows, theta), theta


def qp_reference(G, grad, x, seed_active=None, tol=1e-10, max_iterations=None):
    """qpstep.solve_qp with every index set rebuilt on every iteration.

    The reference for the active-set loop: free and active indices, the
    reduced matrix and the ratio test are gathered afresh from the full
    arrays each time. The QpStep, the QpFailure and the QpInternalError
    of the two routes must agree bit for bit.

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
