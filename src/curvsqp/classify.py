"""Iterate quality measures and the four-way iterate classification.

Each iterate is scored on feasibility eta and a combined optimality
measure omega that folds the most negative available curvature into the
first-order stationarity residual, then labeled:

  S  strong progress on the feasibility-weighted measure; reference
     multipliers move to the current duals and both progress
     thresholds contract toward the achieved values.
  L  progress on the optimality-weighted measure; same updates.
  M  approximately stationary for the current merit subproblem with no
     curvature worse than -tau, so the stationarity tolerance and the
     regularization penalty are halved.
  F  none of the above; all parameters are left alone.

Classification always runs against the pre-update reference
multipliers, penalty, and thresholds, matching what produced the step
that led here.
"""

from typing import NamedTuple

import numpy as np

MIX = 1e-5
Y_CAP = 1e6


class Measures(NamedTuple):
    eta: float
    omega_first: float
    curv_ratio: float
    omega: float
    phi_S: float
    phi_L: float


class FilterState(NamedTuple):
    tau: float
    phi_S_max: float
    phi_L_max: float
    mu_R: float
    y_E: np.ndarray


def measures(ev, iterate, direction):
    """Score an iterate.

    eta is the constraint violation, omega_first the bound-aware
    stationarity of the Lagrangian at the iterate's own multipliers,
    and curv_ratio the Rayleigh quotient the candidate curvature
    direction carries (zero for a non-direction). omega combines
    stationarity with curvature so a saddle with a tiny gradient still
    scores as non-optimal.
    """
    m = ev.c.shape[0]
    eta = float(np.linalg.norm(ev.c)) if m else 0.0
    resid = ev.g - ev.J.T @ iterate.y if m else ev.g
    omega_first = float(np.linalg.norm(np.minimum(iterate.x, resid)))
    curv_ratio = direction.rayleigh
    omega = max(omega_first, -curv_ratio)
    return Measures(
        eta=eta,
        omega_first=omega_first,
        curv_ratio=curv_ratio,
        omega=omega,
        phi_S=eta + MIX * omega,
        phi_L=MIX * eta + omega,
    )


def initial_state(meas, y, mu_R, tau=1e-2):
    return FilterState(
        tau=tau,
        phi_S_max=max(1.0, 2.0 * meas.phi_S),
        phi_L_max=max(1.0, 2.0 * meas.phi_L),
        mu_R=mu_R,
        y_E=np.clip(np.asarray(y, dtype=float), -Y_CAP, Y_CAP),
    )


def classify(meas, fstate, merit_residuals):
    """Label an iterate S, L, M, or F.

    merit_residuals is the pair (dual stationarity, bound-aware primal
    stationarity) of the merit subproblem the step was computed for.
    The M label additionally requires the curvature ratio to be no
    worse than -tau; an iterate sitting on a saddle can therefore
    never trigger the subproblem-converged updates.
    """
    if meas.phi_S <= 0.5 * fstate.phi_S_max:
        return "S"
    if meas.phi_L <= 0.5 * fstate.phi_L_max:
        return "L"
    stat_y, stat_x = merit_residuals
    if (
        stat_y <= fstate.tau
        and stat_x <= fstate.tau
        and meas.curv_ratio >= -fstate.tau
    ):
        return "M"
    return "F"


def merit_residuals(grad_merit, x):
    """Split a stacked merit gradient into the M-test residual pair."""
    n = x.shape[0]
    gx, gy = grad_merit[:n], grad_merit[n:]
    stat_x = float(np.linalg.norm(np.minimum(x, gx)))
    stat_y = float(np.linalg.norm(gy)) if gy.shape[0] else 0.0
    return stat_y, stat_x


def update_state(cls, fstate, meas, iterate):
    """Apply the parameter updates a classification prescribes."""
    if cls in ("S", "L"):
        return fstate._replace(
            phi_S_max=max(0.5 * fstate.phi_S_max, meas.phi_S),
            phi_L_max=max(0.5 * fstate.phi_L_max, meas.phi_L),
            y_E=np.clip(iterate.y, -Y_CAP, Y_CAP),
        )
    if cls == "M":
        return fstate._replace(
            tau=0.5 * fstate.tau,
            mu_R=0.5 * fstate.mu_R,
            y_E=np.clip(iterate.y, -Y_CAP, Y_CAP),
        )
    if cls == "F":
        return fstate
    raise ValueError(f"unknown classification {cls!r}")
