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
zero, so the elimination only orders the pivots, and the shift, the
direction, the certification and the QP reduce to elementwise work. The
driver decides this once per iteration, with diagonal_entries on the
full Hessian, and then hands every step H's diagonal as a 1-D array: a
1-D H_F, K, A, S, H_tilde or G stands for the diagonal matrix it holds,
+0.0 off the diagonal, and no n x n array is built for it. build_kkt
keeps K as its diagonal, stage1_factorize replays the elimination as one
permutation (_diagonal_pivots) and keeps A and S as diagonals with no L,
and convexify, curvature.extract_direction, apply_shift, the
certification (certify) and the QP (qpstep) read them as such, with the
bits of the matrix routes. No kernel chooses the route again.

That holds on every diagonal the driver can hand over. A 1-D array that
reaches a kernel is the diagonal of a finite ev.H, since
model.lagrangian_hessian rejects any other, and it changes only by
doublings 0.5 * (d + d) and by non-negative shifts: delta, which may be
+inf, on ev.H's finite entries, and the certification's finite theta.
No step adds +inf to -inf, so each entry is finite or +-inf, never NaN,
and a certified G is positive: finite or +inf. On such entries the
vector routes give the matrix routes' bits: in stage 1 an inf threshold
admits no pivot on either route; in the certification the sign test on
+-inf agrees with potrf; in the QP inf * 0 is NaN in diag * p and in
G @ p alike.
"""

from typing import NamedTuple

import numpy as np

from .errors import FactorizationBreakdown

PIVOT_TAGS = ("H+", "D-", "HD")


class KktSystem(NamedTuple):
    """Free-variable KKT matrix, its sizes and scales; h_scale is max |H_F|.

    K is 1-D when build_kkt was given a diagonal H_F: its diagonal.
    """

    mu: float
    K: np.ndarray
    n_free: int
    m: int
    norm_max: float
    h_scale: float


def build_kkt(H_F, J_F, mu):
    """Assemble [[H_F, J_F.T], [J_F, -mu*I]]. mu must be finite and positive.

    A 1-D H_F is a diagonal, allowed only with no dual rows; K is then
    the diagonal 0.5 * (H_F + H_F) of the matrix it stands for.
    """
    H_F = np.asarray(H_F, dtype=float)
    J_F = np.asarray(J_F, dtype=float)
    mu = float(mu)
    # a NaN fails this test too
    if not 0.0 < mu < np.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    nf = H_F.shape[0]
    m = J_F.shape[0]
    if H_F.shape != (nf, nf) and (H_F.shape != (nf,) or m):
        raise ValueError("H_F must be square, or a diagonal when J_F has no rows")
    if J_F.shape != (m, nf):
        raise ValueError("J_F must have one column per free variable")
    if H_F.ndim == 1:
        K = 0.5 * (H_F + H_F)
    else:
        N = nf + m
        K = np.zeros((N, N))
        K[:nf, :nf] = 0.5 * (H_F + H_F.T)
        K[:nf, nf:] = J_F.T
        K[nf:, :nf] = J_F
        # -mu * I: -mu on the diagonal and the -0.0 of -mu * 0.0 off it
        K[nf:, nf:] = -0.0
        K.ravel()[nf * (N + 1)::N + 1] = -mu
    return KktSystem(
        mu=mu,
        K=K,
        n_free=nf,
        m=m,
        norm_max=float(np.maximum.reduce(np.abs(K), None, initial=0.0)),
        h_scale=float(np.maximum.reduce(np.abs(H_F), None, initial=0.0)),
    )


class PivotBlock(NamedTuple):
    """One elimination pivot: its values, provenance tag, and position."""

    values: np.ndarray
    tag: str
    offset: int


class Stage1Factor(NamedTuple):
    """Result of the restricted elimination: perm @ K @ perm.T = L diag(B, S) L.T.

    perm[i] is the original row now in position i; positions < n_piv are
    pivoted, the rest carry the Schur complement S. A is the eliminated
    matrix, whose leading n_piv x n_piv part holds the pivot blocks B on
    its block diagonal. ptype and psize are eliminate's records of the
    pivots in order: each one's PIVOT_TAGS index and its size. A
    diagonal factor (of a 1-D K) holds A and S as their diagonals and L
    as None, for the identity.
    """

    kkt: KktSystem
    perm: np.ndarray
    L: np.ndarray
    A: np.ndarray
    S: np.ndarray
    n_piv: int
    ptype: np.ndarray
    psize: np.ndarray
    tiny: float

    @property
    def blocks(self):
        """The PivotBlocks of B in elimination order."""
        blocks = []
        off = 0
        for code, size in zip(self.ptype.tolist(), self.psize.tolist()):
            # a diagonal factor's pivots are 1x1: its entries, as 1x1 blocks
            values = (self.A[off:off + size, off:off + size] if self.A.ndim == 2
                      else self.A[off:off + 1, None])
            blocks.append(PivotBlock(values=values.copy(), tag=PIVOT_TAGS[code], offset=off))
            off += size
        return tuple(blocks)

    @property
    def counts(self):
        """How often each pivot tag fired."""
        return dict(zip(PIVOT_TAGS, np.bincount(self.ptype, minlength=3).tolist()))

    @property
    def unpivoted_h(self):
        """Original indices of the rows left in S."""
        return self.perm[self.n_piv:]


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


def diagonal_entries(A):
    """A's diagonal if it is finite and every other entry is +0.0 bit for bit, else None.

    On such a matrix every product an elimination, a Cholesky
    factorization or a triangular solve forms with an off-diagonal entry
    is a signed zero, so those routines reduce to exact operations on the
    diagonal. -0.0 off the diagonal is refused: subtracting it can turn a
    -0.0 into +0.0.
    """
    diag = A.diagonal()
    if (np.count_nonzero(A.view(np.uint64)) != np.count_nonzero(diag.view(np.uint64))
            or not np.logical_and.reduce(np.isfinite(diag), None)):
        return None
    return diag


def _diagonal_pivots(d, tiny):
    """Stage-1 pivots of a diagonal d with no dual rows: (vals, order, k).

    Replays eliminate's choices: vals is d in pivot order, order the
    original index of each position, and k the pivot count. The loop
    pivots the values above tiny from the largest down, each time on
    the first remaining entry equal to it in the current order, and
    swaps that entry into place; so one descending sort gives every
    pivot value, and only the position of each is looked up.
    """
    vals = d.tolist()
    order = list(range(len(vals)))
    tops = [v for v in vals if v > tiny]
    tops.sort(reverse=True)
    for k, top in enumerate(tops):
        j = vals.index(top, k)
        vals[k], vals[j] = vals[j], vals[k]
        order[k], order[j] = order[j], order[k]
    return vals, order, len(tops)


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
    loop stage1_reference in tests/reference.py: the Schur updates keep
    its operation order, which is why they are outer products and not
    matmuls. L must enter as the identity.
    """
    N = A.shape[0]
    diag = A.diagonal()
    dual = perm >= nh
    duals_left = int(np.count_nonzero(dual))
    # +1 on curvature rows, -1 on dual rows, permuted along with perm
    sign = np.where(dual, -1.0, 1.0)
    # the 1x1 Schur update's outer product, reshaped to the rows left
    work = np.empty(max(N - 1, 0) ** 2)
    k = 0
    npiv = 0
    while k < N:
        # |diagonal| on admissible rows, at most tiny or NaN elsewhere;
        # once only curvature rows are left, the diagonal itself
        s = sign[k:] * diag[k:] if duals_left else diag[k:]
        best = int(s.argmax())
        top = s[best]
        if top != top:
            # argmax stopped at a NaN, which fmax skips
            top = np.fmax.reduce(s)
            best = int((s == top).argmax())
        if top > tiny:
            if duals_left and sign[k + best] > 0.0:
                # best is the first row at top; a later tied dual row wins
                tied_dual = (s == top) & (sign[k:] < 0.0)
                if np.logical_or.reduce(tied_dual, None):
                    best = int(tied_dual.argmax())
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
    """Run the restricted elimination on a KKT system; S is symmetrized.

    A diagonal K (1-D, no dual rows) is factored by _diagonal_pivots
    instead of eliminate, with the same bits: each Schur update would
    subtract +0.0, which changes no bit, and each multiplier would be
    the +0.0 of an identity L. A then stays diagonal, so symmetrizing S
    changes only its diagonal.

    Raises FactorizationBreakdown (carrying the partial factor) if dual
    rows remain when no admissible pivot is left; with a positive mu this
    indicates data so degenerate that the pivot threshold swallowed a
    whole dual row.
    """
    N = kkt.n_free + kkt.m
    tiny = 1e-12 * (1.0 + kkt.norm_max)
    if kkt.K.ndim == 1:
        vals, order, n_piv = _diagonal_pivots(kkt.K, tiny)
        A = np.array(vals)
        L = None
        perm = np.array(order, dtype=np.int64)
        ptype = np.zeros(n_piv, dtype=np.int64)
        psize = np.ones(n_piv, dtype=np.int64)
        S = A[n_piv:]
        status = 0
    else:
        A = kkt.K.copy()
        L = np.zeros((N, N))
        L.ravel()[::N + 1] = 1.0
        perm = np.arange(N, dtype=np.int64)
        ptype = np.zeros(N, dtype=np.int64)
        psize = np.zeros(N, dtype=np.int64)
        n_piv, n_blocks, status = eliminate(A, L, perm, ptype, psize, kkt.n_free, tiny)
        ptype, psize = ptype[:n_blocks], psize[:n_blocks]
        S = A[n_piv:, n_piv:]
    # of a 1-D S the transpose is S itself
    factor = Stage1Factor(
        kkt=kkt,
        perm=perm,
        L=L,
        A=A,
        S=0.5 * (S + S.T),
        n_piv=n_piv,
        ptype=ptype,
        psize=psize,
        tiny=tiny,
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
    exactly the rows the elimination left in S, in S's order; each row
    is listed once, so the order changes no bit of the shift).
    """

    delta: float
    shifted_rows: np.ndarray


def convexify(factor, margin):
    """Choose the diagonal shift for the unpivoted H rows.

    An empty S needs no shift. Otherwise delta = (1 + margin) times the
    max-absolute-row-sum norm of S, which strictly dominates |lambda_min|;
    a small floor keeps a nonempty but numerically zero S from producing
    a singular shifted matrix. Of a diagonal S that norm is max |S|: each
    row sum adds only +0.0 to its diagonal entry.
    """
    S = factor.S
    rows = factor.unpivoted_h
    if S.shape[0] == 0:
        return Convexification(delta=0.0, shifted_rows=rows)
    row_sums = np.abs(S)
    if S.ndim == 2:
        row_sums = np.add.reduce(row_sums, 1)
    norm_inf = float(np.maximum.reduce(row_sums, None))
    delta = max((1.0 + float(margin)) * norm_inf, 1e-8 * (1.0 + factor.kkt.h_scale))
    return Convexification(delta=delta, shifted_rows=rows)


def apply_shift(H, rows, delta):
    """Copy of H with delta added on its diagonal at rows; delta 0 writes nothing.

    A 1-D H is a diagonal, and so is the copy.
    """
    H = np.array(H, dtype=float, copy=True)
    if delta:
        if H.ndim == 2:
            H[rows, rows] += delta
        else:
            H[rows] += delta
    return H
