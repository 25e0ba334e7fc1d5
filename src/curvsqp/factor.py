"""Stage-1 restricted-pivot factorization of the free KKT matrix.

The matrix is K = [[H_F, J_F.T], [J_F, -mu*I]]. Elimination is allowed
to pivot only on a positive diagonal of the H block ("H+"), a negative
diagonal of the dual block ("D-"), or a 2x2 cross block with one row
from each side and mixed eigenvalues ("HD"). When it stops, every dual
row has been consumed, the trailing Schur complement S lives entirely on
H rows and has no diagonal above the pivot threshold, and the pivot
counts certify the inertia of the factored part. Adding a diagonal shift
larger than the size of S to the unpivoted H rows then makes the whole
KKT matrix second-order-correct: exactly |F| positive and m negative
eigenvalues.

With no dual rows (m = 0) and a diagonal H_F, every pivot column is
zero, so the elimination only orders the pivots; it is then replayed as
one permutation (_diagonal_pivots), with the same bits as the loop.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import FactorizationBreakdown

PIVOT_TAGS = ("H+", "D-", "HD")


class KktSystem(NamedTuple):
    """Free-variable KKT matrix, its sizes and scales; h_scale is max |H_F|."""

    mu: float
    K: np.ndarray
    n_free: int
    m: int
    norm_max: float
    h_scale: float


def build_kkt(H_F, J_F, mu):
    """Assemble [[H_F, J_F.T], [J_F, -mu*I]]. mu must be positive."""
    H_F = np.asarray(H_F, dtype=float)
    J_F = np.asarray(J_F, dtype=float)
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    nf = H_F.shape[0]
    if H_F.shape != (nf, nf):
        raise ValueError("H_F must be square")
    m = J_F.shape[0]
    if J_F.shape != (m, nf):
        raise ValueError("J_F must have one column per free variable")
    N = nf + m
    K = np.zeros((N, N))
    K[:nf, :nf] = 0.5 * (H_F + H_F.T)
    K[:nf, nf:] = J_F.T
    K[nf:, :nf] = J_F
    K[nf:, nf:] = -mu * np.eye(m)
    return KktSystem(
        mu=mu,
        K=K,
        n_free=nf,
        m=m,
        norm_max=float(np.max(np.abs(K), initial=0.0)),
        h_scale=float(np.max(np.abs(H_F), initial=0.0)),
    )


class PivotBlock(NamedTuple):
    """One elimination pivot: its values, provenance tag, and position."""

    values: np.ndarray
    tag: str
    offset: int


@dataclass(frozen=True)
class Stage1Factor:
    """Result of the restricted elimination: perm @ K @ perm.T = L diag(B, S) L.T.

    perm[i] is the original row now in position i; positions < n_piv are
    pivoted (B holds their block diagonal), the rest carry the Schur
    complement S. counts maps pivot tags to how often they fired.
    """

    kkt: KktSystem
    perm: np.ndarray
    L: np.ndarray
    B: np.ndarray
    S: np.ndarray
    n_piv: int
    counts: dict
    tiny: float
    unpivoted_h: np.ndarray

    @cached_property
    def blocks(self):
        """The PivotBlocks of B in elimination order, built on first access.

        A block is 2x2 exactly when its upper coupling is nonzero: the HD
        pivot is chosen on a nonzero one, and B is zero off its blocks.
        """
        blocks = []
        off = 0
        while off < self.n_piv:
            if off + 1 < self.n_piv and self.B[off, off + 1] != 0.0:
                size, tag = 2, "HD"
            else:
                size, tag = 1, "H+" if self.perm[off] < self.kkt.n_free else "D-"
            blocks.append(PivotBlock(values=self.B[off:off + size, off:off + size].copy(),
                                     tag=tag, offset=off))
            off += size
        return tuple(blocks)

    @property
    def inertia_so_far(self):
        """Inertia of the factored block B, read off the pivot tags."""
        pos = self.counts["H+"] + self.counts["HD"]
        neg = self.counts["D-"] + self.counts["HD"]
        return (pos, neg, 0)

    def permutation_matrix(self):
        N = self.perm.shape[0]
        P = np.zeros((N, N))
        P[np.arange(N), self.perm] = 1.0
        return P

    def reconstruction_error(self):
        """Max-norm of perm(K)perm.T - L diag(B, S) L.T, for diagnostics."""
        N = self.perm.shape[0]
        D = np.zeros((N, N))
        k = self.n_piv
        D[:k, :k] = self.B
        D[k:, k:] = self.S
        P = self.permutation_matrix()
        return float(np.max(np.abs(P @ self.kkt.K @ P.T - self.L @ D @ self.L.T), initial=0.0))


def _swap(A, L, perm, sign, k, r):
    """Exchange positions k < r: rows and columns of A, L[:, :k], perm, sign."""
    row = A[k].copy()
    A[k] = A[r]
    A[r] = row
    col = A[:, k].copy()
    A[:, k] = A[:, r]
    A[:, r] = col
    if k:
        lrow = L[k, :k].copy()
        L[k, :k] = L[r, :k]
        L[r, :k] = lrow
    perm[k], perm[r] = perm[r], perm[k]
    sign[k], sign[r] = sign[r], sign[k]


def _diagonal_pivots(A, perm, ptype, psize, tiny):
    """Stage-1 pivots of a diagonal A with no dual rows, or None.

    None unless A qualifies (see eliminate); else takes the first largest
    diagonal while it exceeds tiny, as the loop does, permutes A and perm
    once and returns the pivot count k.
    """
    diag = A.diagonal()
    off_bits = np.count_nonzero(A.view(np.uint64)) - np.count_nonzero(diag.view(np.uint64))
    if off_bits or not np.isfinite(diag).all():
        return None
    vals = diag.tolist()
    order = list(range(len(vals)))
    k = 0
    while k < len(vals) and (top := max(vals[k:])) > tiny:
        j = vals.index(top, k)
        vals[k], vals[j] = vals[j], vals[k]
        order[k], order[j] = order[j], order[k]
        k += 1
    np.fill_diagonal(A, vals)
    perm[:] = perm[order]
    ptype[:k] = 0
    psize[:k] = 1
    return k


def eliminate(A, L, perm, ptype, psize, nh, tiny):
    """Restricted-pivot elimination of a symmetric saddle matrix, in place.

    Rows whose original index (tracked in perm) is < nh belong to the
    curvature block; the rest are dual rows whose diagonal starts negative.
    Admissible pivots: a curvature diagonal > tiny (code 0), a dual
    diagonal < -tiny (code 1), or a curvature-by-dual 2x2 cross block with
    negative determinant (code 2). 1x1 pivots are chosen greedily by
    magnitude, the first dual row winning exact ties, else the first row;
    the 2x2 is tried only when no 1x1 is admissible, pairing the first
    largest-magnitude cross coupling in row-major order.

    A's leading k x k part retains the pivot blocks on its (block)
    diagonal, the trailing part becomes the Schur complement, and L gets
    unit-lower-triangular multipliers. Returns (k, npiv, status): k
    eliminated positions, npiv pivot records, status 1 when dual rows
    remain unpivoted (breakdown), else 0. Bit-identical to the scalar
    loop oracle.stage1_reference: the Schur updates keep its operation
    order, which is why they are outer products and not matmuls.

    L must enter as the identity. When no row is a dual row, the diagonal
    is finite and every other entry is +0.0 bit for bit (-0.0 is not),
    each Schur update subtracts +0.0, which changes no bit, and each
    multiplier is the +0.0 that L already holds; _diagonal_pivots then
    replays only the pivot order and applies it once.
    """
    N = A.shape[0]
    diag = A.diagonal()
    dual = perm >= nh
    duals_left = int(np.count_nonzero(dual))
    if not duals_left:
        k = _diagonal_pivots(A, perm, ptype, psize, tiny)
        if k is not None:
            return k, k, 0
    # +1 on curvature rows, -1 on dual rows, permuted along with perm
    sign = np.where(dual, -1.0, 1.0)
    # the 1x1 Schur update's outer product, reshaped to the rows left
    work = np.empty(max(N - 1, 0) ** 2)
    k = 0
    npiv = 0
    while k < N:
        if duals_left:
            # |diagonal| on admissible rows; at most tiny, or NaN, elsewhere
            s = sign[k:] * diag[k:]
            top = np.fmax.reduce(s)
            best = -1
        else:
            # only curvature rows are left, so the first largest diagonal
            # wins, unless argmax stopped at a NaN, which fmax skips
            s = diag[k:]
            best = int(s.argmax())
            top = s[best]
            if top != top:
                top = np.fmax.reduce(s)
                best = -1
        if top > tiny:
            if best < 0:
                tied = s == top
                if np.count_nonzero(tied) > 1:
                    tied_dual = tied & (sign[k:] < 0.0)
                    if tied_dual.any():
                        tied = tied_dual
                best = int(tied.argmax())
            best += k
            if best != k:
                _swap(A, L, perm, sign, k, best)
            if k + 1 < N:  # the last pivot leaves nothing to update
                inva = 1.0 / A[k, k]
                c = A[k + 1:, k]
                np.multiply(c, inva, out=L[k + 1:, k])
                r = N - k - 1
                T = work[:r * r].reshape(r, r)
                np.multiply.outer(c, c, out=T)
                T *= inva
                A[k + 1:, k + 1:] -= T
            if sign[k] > 0.0:
                ptype[npiv] = 0
            else:
                ptype[npiv] = 1
                duals_left -= 1
            psize[npiv] = 1
            npiv += 1
            k += 1
            continue
        if not duals_left:
            break
        h = sign[k:] > 0.0
        # |A| on curvature rows by dual columns, zero elsewhere; fmax
        # turns NaN into 0, which the strict search never picks either
        cross = np.fmax(np.abs(A[k:, k:]) * np.multiply.outer(h, ~h), 0.0)
        flat = int(cross.argmax())
        if cross.flat[flat] == 0.0:
            break
        bi, bj = divmod(flat, N - k)
        bi += k
        bj += k
        det = A[bi, bi] * A[bj, bj] - A[bi, bj] * A[bi, bj]
        if det >= 0.0:
            break
        if bi != k:
            _swap(A, L, perm, sign, k, bi)
            if bj == k:
                bj = bi
        if bj != k + 1:
            _swap(A, L, perm, sign, k + 1, bj)
        if k + 2 < N:  # as for 1x1 pivots
            e11 = A[k, k]
            e22 = A[k + 1, k + 1]
            e12 = A[k, k + 1]
            idet = 1.0 / (e11 * e22 - e12 * e12)
            w1 = A[k + 2:, k]
            w2 = A[k + 2:, k + 1]
            l1 = (w1 * e22 - w2 * e12) * idet
            l2 = (w2 * e11 - w1 * e12) * idet
            L[k + 2:, k] = l1
            L[k + 2:, k + 1] = l2
            S = A[k + 2:, k + 2:]
            np.subtract(S, np.multiply.outer(l1, w1) + np.multiply.outer(l2, w2), out=S)
        ptype[npiv] = 2
        psize[npiv] = 2
        duals_left -= 1
        npiv += 1
        k += 2
    return k, npiv, int(duals_left > 0)


def stage1_factorize(kkt):
    """Run the restricted elimination on a KKT system.

    Raises FactorizationBreakdown (carrying the partial factor) if dual
    rows remain when no admissible pivot is left; with a positive mu this
    indicates data so degenerate that the pivot threshold swallowed a
    whole dual row.
    """
    N = kkt.n_free + kkt.m
    A = kkt.K.copy()
    L = np.eye(N)
    perm = np.arange(N, dtype=np.int64)
    ptype = np.zeros(N, dtype=np.int64)
    psize = np.zeros(N, dtype=np.int64)
    tiny = 1e-12 * (1.0 + kkt.norm_max)
    n_piv, n_blocks, status = eliminate(A, L, perm, ptype, psize, kkt.n_free, tiny)

    counts = dict(zip(PIVOT_TAGS, np.bincount(ptype[:n_blocks], minlength=3).tolist()))
    B = np.zeros((n_piv, n_piv))
    np.fill_diagonal(B, A.diagonal()[:n_piv])
    if counts["HD"]:
        ends = np.cumsum(psize[:n_blocks])[ptype[:n_blocks] == 2]
        for e in ends.tolist():
            B[e - 2, e - 1] = A[e - 2, e - 1]
            B[e - 1, e - 2] = A[e - 1, e - 2]
    S = A[n_piv:, n_piv:]
    S = 0.5 * (S + S.T)
    factor = Stage1Factor(
        kkt=kkt,
        perm=perm,
        L=L,
        B=B,
        S=S,
        n_piv=n_piv,
        counts=counts,
        tiny=tiny,
        unpivoted_h=perm[n_piv:].copy(),
    )
    if status != 0:
        raise FactorizationBreakdown(
            "dual rows left unpivoted at the stage-1 stopping point",
            partial=factor,
        )
    return factor


class Convexification(NamedTuple):
    """Diagonal shift restoring second-order-correct inertia.

    delta is added to the H diagonal at shifted_rows (free-local indices,
    exactly the rows the elimination left in S).
    """

    delta: float
    shifted_rows: np.ndarray


def convexify(factor, margin=0.5):
    """Choose the diagonal shift for the unpivoted H rows.

    An empty S needs no shift. Otherwise delta = (1 + margin) times the
    max-absolute-row-sum norm of S, which strictly dominates |lambda_min|;
    a small floor keeps a nonempty but numerically zero S from producing
    a singular shifted matrix.
    """
    S = factor.S
    rows = np.sort(factor.unpivoted_h)
    if S.shape[0] == 0:
        return Convexification(delta=0.0, shifted_rows=rows)
    norm_inf = float(np.max(np.sum(np.abs(S), axis=1)))
    delta = max((1.0 + float(margin)) * norm_inf, 1e-8 * (1.0 + factor.kkt.h_scale))
    return Convexification(delta=delta, shifted_rows=rows)


def apply_shift(H, rows, delta):
    """Copy of H with delta added on its diagonal at rows; delta 0 writes nothing."""
    H = np.array(H, dtype=float, copy=True)
    if delta:
        H[rows, rows] += delta
    return H


def inertia(A, zero_tol_factor=1e-10):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Uses the LAPACK symmetric eigensolver; the test suite cross-checks it
    against the independent Jacobi route. Eigenvalues within
    zero_tol_factor times the largest magnitude count as zero.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0:
        return (0, 0, 0)
    vals = np.linalg.eigvalsh(0.5 * (A + A.T))
    tol = zero_tol_factor * float(np.max(np.abs(vals), initial=0.0))
    n_zero = int(np.sum(np.abs(vals) <= tol))
    n_pos = int(np.sum(vals > tol))
    n_neg = int(np.sum(vals < -tol))
    return (n_pos, n_neg, n_zero)
