"""Certification that the QP matrix H_tilde + (1/mu) J.T J is positive definite.

The stage-1 shift certifies the free block only, so the step bumps the
working set's diagonal along a grid until a Cholesky factorization (or,
on a diagonal, a sign test) succeeds; the QP then runs on that matrix.
"""

import math

import numpy as np

from .errors import QpInternalError
from .factor import apply_shift


def _certification_grid(h_scale, theta_prev):
    """(s, top, k0) of the certification grid 0, s, 2s, 4s, ... at h_scale.

    Point k > 0 is _grid_point(s, k) = s * 2.0 ** (k - 1), with
    s = 1e-8 * (1 + h_scale), exact since doubling is. The grid ends at
    point top, the last one at most 1e18 * (1 + h_scale), or the largest
    finite one when that limit overflows. k0 is the index of the least
    point >= theta_prev, clamped to top. top and k0 come from the
    exponents of s and theta_prev (math.frexp), so no point is formed
    until it is tried. h_scale must be finite.
    """
    s = 1e-8 * (1.0 + h_scale)
    ms, es = math.frexp(s)
    # 2**86 * s is always below the limit; s * 2**j is finite while es + j <= 1024
    top = min(87, 1025 - es)
    if theta_prev <= 0.0:
        k0 = 0
    elif theta_prev < math.inf:
        mt, et = math.frexp(theta_prev)
        # the least j with s * 2**j >= theta_prev, compared as mantissa and exponent
        k0 = min(max(et - es + (mt > ms), 0) + 1, top)
    else:  # inf, or NaN, which a sorted search places last too
        k0 = top
    return s, top, k0


def _grid_point(s, k):
    """Point k of the certification grid whose first positive point is s."""
    return s * 2.0 ** (k - 1) if k else 0.0


def _certified_hessian(H_tilde, J, mu, bump_rows, h_scale, theta_prev=0.0):
    """Diagonal-bump G = H_tilde + (1/mu) J.T J until it admits Cholesky.

    Returns the certified G, theta and the number of attempts, each a
    positive-definiteness test. The stage-1 shift certifies the free
    block only; entries of the working set can still make the full
    matrix indefinite, so their diagonals get the least bump theta on
    the grid 0, s, 2s, 4s, ... (s = 1e-8 * (1 + h_scale), up to
    1e18 * (1 + h_scale); see _certification_grid) at which the test
    factorization succeeds. h_scale is max |H|, so finite.

    A test is a Cholesky factorization, except on a diagonal: a 1-D
    H_tilde (J without rows). Every product potrf subtracts from a pivot
    is then a signed zero, so it succeeds exactly when each entry, with
    theta added on the bump rows by apply_shift, is positive, and that
    sign test replaces it; G is then that diagonal. An entry whose
    symmetrization overflowed is +-inf, never NaN (see the factor
    module), and the sign test judges it as potrf does.

    The search starts at k0, the least grid point >= theta_prev (the
    previous step's answer, clamped to the top of the grid). If point k0
    factors it gallops down to k0 - 1, k0 - 2, k0 - 4, ... (and 0) until
    an attempt fails, otherwise up to k0 + 1, k0 + 2, k0 + 4, ... (and
    the top) until one succeeds, then bisects the bracket: 2 attempts
    when the answer has not moved, O(log |moved|) when it has. With
    theta_prev = 0, theta = 0 is tried first and the rest of the grid is
    bisected: at most 8 attempts on the usual 88-point grid. Every route
    finds the theta of stepping through the grid one point at a time
    whenever success is monotone in theta. Failure at the top of the
    grid means the free block itself is bad, which the convexification
    is supposed to rule out.
    """
    n = H_tilde.shape[0]
    if bump_rows.size == 0:
        bump_rows = np.arange(n)
    base = H_tilde + (J.T @ J) / mu if J.shape[0] else H_tilde
    base = 0.5 * (base + base.T)

    s, top, k0 = _certification_grid(h_scale, theta_prev)
    attempts = 0
    # G keeps the trial of the least point found to factor
    G = None

    def factors(k):
        nonlocal attempts, G
        attempts += 1
        trial = apply_shift(base, bump_rows, _grid_point(s, k))
        if base.ndim == 1:
            if not np.logical_and.reduce(trial > 0.0, None):
                return False
        else:
            try:
                np.linalg.cholesky(trial)
            except np.linalg.LinAlgError:
                return False
        G = trial
        return True

    # point lo fails (lo = -1 until a point is seen to); point hi is the
    # least point known to factor, or top + 1 when none is
    lo, hi = -1, top + 1
    if factors(k0):
        hi, step = k0, 1
        while hi > 0:
            k = max(k0 - step, 0)
            if not factors(k):
                lo = k
                break
            hi, step = k, 2 * step
    else:
        lo, step = k0, 1
        # from k0 = 0 the rest of the grid is bisected without galloping
        while k0 > 0 and lo < top:
            k = min(k0 + step, top)
            if factors(k):
                hi = k
                break
            lo, step = k, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if factors(mid):
            hi = mid
        else:
            lo = mid
    if hi > top:
        raise QpInternalError("convexified Hessian cannot be made positive definite")
    return G, _grid_point(s, hi), attempts
