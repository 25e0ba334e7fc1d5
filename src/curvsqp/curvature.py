"""Negative-curvature directions from the stage-1 factor.

When the Schur complement S is nonempty its largest-magnitude entry
certifies negative curvature of H_F + (1/mu) J_F.T J_F: pick the unit
(or two-index) vector h with h.T S h <= -|S|_max, lift sqrt(rho) h
through the transposed triangular factor, and keep the primal part. The
lifted vector automatically satisfies the dual stationarity rows, which
is what makes the full-space quadratic form collapse onto the free
primal block. The lift is one triangular solve over the pivoted block.
A diagonal factor (factor.stage1_factorize on a 1-D K) carries no L, so
it has nothing to lift through, and its S is read as a diagonal: the
first largest |S| lies on it.
"""

from typing import NamedTuple

import numpy as np

from .model import norm
from .workset import embed


class CurvatureDirection(NamedTuple):
    """Candidate direction (u_hat, w_hat) with its curvature certificates.

    u_hat is a full primal vector, zero on the active set; w_hat is the
    matching dual displacement -(1/mu) J u_hat. curvature_B is
    u.T (H + (1/mu) J.T J) u computed by explicit multiplication and
    rayleigh divides it by |u|^2. rho is the magnitude of the S entry the
    direction came from, pivot_indices its (row, col) inside S.
    """

    exists: bool
    u_hat: np.ndarray
    w_hat: np.ndarray
    curvature_B: float
    rayleigh: float
    rho: float
    pivot_indices: tuple = None


def no_direction(n, m):
    return CurvatureDirection(
        exists=False,
        u_hat=np.zeros(n),
        w_hat=np.zeros(m),
        curvature_B=0.0,
        rayleigh=0.0,
        rho=0.0,
    )


def curvature_form(u, H, J, mu):
    """u.T (H + (1/mu) J.T J) u by explicit multiplication."""
    val = float(u @ (H @ u))
    if J.shape[0]:
        Ju = J @ u
        val += float(Ju @ Ju) / mu
    return val


def extract_direction(factor, ws, H, J):
    """Pull a negative-curvature direction out of a stage-1 factor.

    H and J are the full-space matrices used to report curvature_B; they
    must agree with the factor's free blocks on the free set. Returns a
    non-direction when S is empty or its largest entry is below the
    noise floor.
    """
    kkt = factor.kkt
    n, m = ws.n, kkt.m
    S = factor.S
    floor = 1e-10 * (1.0 + kkt.h_scale)
    if S.shape[0] == 0:
        return no_direction(n, m)
    # S is symmetric bit for bit, so the first maximum (or NaN) in row
    # order lies on or above the diagonal: q <= r
    S_abs = np.abs(S)
    flat = int(S_abs.argmax())
    q, r = divmod(flat, S.shape[1]) if S.ndim == 2 else (flat, flat)
    rho = float(S_abs.flat[flat])
    if rho <= floor:
        return no_direction(n, m)
    ns = S.shape[0]
    h = np.zeros(ns)
    if q == r:
        h[q] = 1.0
    else:
        h[q] = 1.0 / np.sqrt(2.0)
        h[r] = -np.sign(S[q, r]) / np.sqrt(2.0)
    w_S = np.sqrt(rho) * h

    # solve L.T d = (0, w_S); the unit upper-triangular solve needs only
    # the pivoted leading block since the trailing part of L is identity.
    # 0.0 - x is -x with no -0.0, so a zero rhs is all +0.0
    N = factor.perm.shape[0]
    k = factor.n_piv
    d = np.zeros(N)
    d[k:] = w_S
    if k and factor.L is not None:
        d[:k] = np.linalg.solve(factor.L[:k, :k].T, 0.0 - factor.L[k:, :k].T @ w_S)

    # un-permute, keep the free primal components, embed on the active set
    z = np.zeros(N)
    z[factor.perm] = d
    u_free = z[:kkt.n_free]
    u_hat = embed(u_free, ws)

    curv = curvature_form(u_hat, H, J, kkt.mu)
    w_hat = -(J @ u_hat) / kkt.mu if m else np.zeros(0)
    nrm2 = float(u_hat @ u_hat)
    return CurvatureDirection(
        exists=True,
        u_hat=u_hat,
        w_hat=w_hat,
        curvature_B=curv,
        rayleigh=curv / nrm2,
        rho=rho,
        pivot_indices=(int(q), int(r)),
    )


def refresh_direction(direction, H, J, mu):
    """Re-evaluate an existing direction's certificates for a new penalty value.

    Shrinking mu strengthens the (1/mu) J.T J term, so a direction that
    was negative can stop being one; it is then dropped.
    """
    u = direction.u_hat
    curv = curvature_form(u, H, J, mu)
    if curv >= 0.0:
        return no_direction(u.shape[0], J.shape[0])
    w = -(J @ u) / mu if J.shape[0] else np.zeros(0)
    return direction._replace(
        w_hat=w,
        curvature_B=curv,
        rayleigh=curv / float(u @ u),
    )


def orient(direction, grad_merit):
    """Flip the direction if needed so it is non-ascent for the merit.

    grad_merit is the stacked (x, y) merit gradient; the flipped pair
    keeps w = -(1/mu) J u intact because both components negate together.
    """
    if not direction.exists:
        return direction
    slope = float(grad_merit[:direction.u_hat.shape[0]] @ direction.u_hat)
    if direction.w_hat.shape[0]:
        slope += float(grad_merit[direction.u_hat.shape[0]:] @ direction.w_hat)
    if slope > 0.0:
        return direction._replace(u_hat=-direction.u_hat, w_hat=-direction.w_hat)
    return direction


class ScaledStep(NamedTuple):
    """Curvature step after the feasibility and norm caps."""

    u: np.ndarray
    w: np.ndarray
    beta: float


def scale(direction, x, p, u_max):
    """Largest multiple of the direction that stays usable.

    beta is capped so that x + p + beta*u_hat >= 0 and
    |beta*u_hat| <= max(u_max, 2|p|). A component already at its bound
    with u_hat pointing outward forces beta = 0. Without a direction, or
    when the caps leave no positive beta, the step is exactly zero.
    """
    n, m = x.shape[0], direction.w_hat.shape[0]
    beta = 0.0
    if direction.exists:
        u_hat = direction.u_hat
        beta = max(float(u_max), 2.0 * norm(p)) / norm(u_hat)
        neg = u_hat < 0.0
        if np.logical_or.reduce(neg, None):
            beta = min(beta, float(np.minimum.reduce((x + p)[neg] / (-u_hat[neg]), None)))
    if not beta > 0.0:
        return ScaledStep(u=np.zeros(n), w=np.zeros(m), beta=0.0)
    return ScaledStep(u=beta * u_hat, w=beta * direction.w_hat, beta=beta)
