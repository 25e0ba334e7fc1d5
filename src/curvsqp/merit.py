"""Primal-dual augmented Lagrangian merit function and line search.

With multiplier estimate y_E and penalty mu, the merit of a point (x, y)
is

    M(x, y) = f - c @ y_E + |c|^2 / (2 mu) + nu |c + mu (y - y_E)|^2 / (2 mu).

Writing pi = y_E - c/mu, its gradient stacks
g - J.T (pi + nu (pi - y)) over nu mu (y - pi), and the second-derivative
model with a frozen curvature matrix H_used is (oracle.merit_hessian)

    [[H_used + (1+nu)/mu J.T J,  nu J.T],
     [nu J,                      nu mu I]].

For any u with w = -(1/mu) J u the model's quadratic form collapses to
u.T (H_used + (1/mu) J.T J) u exactly, which is what lets a single
factorization certify directions of negative curvature for the merit.
The dual block is nu mu I and the duals are unbounded, so for a primal
step p the model is least at q = pi - y - J p / mu (dual_step), where
it equals the model in p alone (condense)

    (g - J.T pi) @ p + p @ (H_used + J.T J / mu) @ p / 2 - nu mu |y - pi|^2 / 2,

a bound QP in x on the very matrix the certification factors.

The merit value needs only f and c, so the curvilinear search measures
its trials with model.merit_terms and makes the full evaluation (g, J,
H) at the trial it accepts, once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LineSearchFailure
from .model import Evaluation, Iterate, evaluate, merit_terms

SNAP_FACTOR = 1e-13


@dataclass(frozen=True)
class MeritState:
    """Parameters the merit function is conditioned on.

    mu is the flexible line-search penalty, mu_R the regularization
    penalty used for factorization and classification; 0 < mu_R <= mu.
    """

    y_E: np.ndarray
    mu: float
    mu_R: float
    nu: float = 1.0
    eta_S: float = 0.25
    alpha_min: float = 1e-2


def merit_value(ev, iterate, state):
    """Merit at the iterate from ev.f and ev.c (an Evaluation or MeritTerms)."""
    val = ev.f
    if ev.c.shape[0]:
        c = ev.c
        shifted = c + state.mu * (iterate.y - state.y_E)
        val += -float(c @ state.y_E) + float(c @ c) / (2.0 * state.mu)
        val += state.nu * float(shifted @ shifted) / (2.0 * state.mu)
    return float(val)


def merit_gradient(ev, iterate, state):
    """Stacked (x, y) gradient of the merit at the iterate."""
    pi = state.y_E - ev.c / state.mu
    gx = ev.g - ev.J.T @ (pi + state.nu * (pi - iterate.y))
    gy = state.nu * state.mu * (iterate.y - pi)
    return np.concatenate([gx, gy])


def condense(ev, iterate, state):
    """(grad, constant) of the step model in p alone, at penalty state.mu.

    grad = g - J.T pi and constant = -nu mu |y - pi|^2 / 2.
    """
    pi = state.y_E - ev.c / state.mu
    r = pi - iterate.y
    return ev.g - ev.J.T @ pi, -0.5 * state.nu * state.mu * float(r @ r)


def dual_step(ev, iterate, state, p):
    """q = pi - y - J p / mu, where the stacked model is least given p."""
    return state.y_E - ev.c / state.mu - iterate.y - (ev.J @ p) / state.mu


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    j: int
    accepted: Iterate
    ev: Evaluation
    merit_new: float
    n_trials: int
    bound_rejections: int


def curvilinear_search(problem, iterate, merit_old, step, dv, state, N_k, R_k, j_max=50):
    """Backtrack along x + alpha*u + alpha^2*p (duals likewise).

    Accepts the first alpha = 2**-j whose trial point satisfies

        M(trial) <= merit_old + alpha^2 eta_S N_k + alpha eta_S R_k

    with both model quantities nonpositive and merit_old = M(iterate) from
    the caller. Each trial calls only the objective and constraints
    (merit_terms); the accepted trial alone gets the full evaluation,
    which reuses its f and c and is returned as ev. A derivative
    callback is therefore never called at a rejected trial, while a bad
    f or c at any trial raises EvaluationError. Trial points that dip
    below the bounds beyond roundoff are rejected without evaluation and
    count as failed trials; components within the roundoff band are
    snapped to exactly zero before the merit is measured, so the
    accepted point is the one the inequality was verified at. Raises
    LineSearchFailure when j_max is exhausted.
    """
    if N_k > 0.0 or R_k > 0.0:
        raise ValueError("model decrease quantities must be nonpositive")
    n = iterate.x.shape[0]
    u, w = step.u, step.w
    p, q = dv[:n], dv[n:]
    snap = SNAP_FACTOR * (1.0 + float(np.max(np.abs(iterate.x), initial=0.0)))
    trials = 0
    rejected = 0
    for j in range(j_max + 1):
        alpha = 2.0 ** (-j)
        x_t = iterate.x + alpha * u + alpha * alpha * p
        trials += 1
        lowest = float(np.min(x_t, initial=0.0))
        if lowest < -snap:
            rejected += 1
            continue
        if lowest < 0.0:
            x_t = np.where(x_t < 0.0, 0.0, x_t)
        y_t = iterate.y + alpha * w + alpha * alpha * q
        cand = Iterate(x=x_t, y=y_t)
        terms = merit_terms(problem, cand)
        m_t = merit_value(terms, cand, state)
        if m_t <= merit_old + alpha * alpha * state.eta_S * N_k + alpha * state.eta_S * R_k:
            return LineSearchResult(
                alpha=alpha,
                j=j,
                accepted=cand,
                ev=evaluate(problem, cand, terms),
                merit_new=m_t,
                n_trials=trials,
                bound_rejections=rejected,
            )
    raise LineSearchFailure(
        f"no step accepted in {j_max + 1} trials",
        diagnostics={
            "merit": merit_old,
            "N_k": N_k,
            "R_k": R_k,
            "norm_u": float(np.linalg.norm(u)),
            "norm_p": float(np.linalg.norm(p)),
            "bound_rejections": rejected,
        },
    )


def penalty_update(merit_new, merit_old, state, alpha, N_k, R_k, mu_R_next):
    """Flexible penalty after a step: keep mu, or drop toward mu_R.

    merit_new (accepted point) must beat merit_old (previous point) by at
    least the model amounts at the damped step size alpha_bar =
    min(alpha_min, alpha); otherwise mu falls to max(mu/2, mu_R_next).
    Both merits are those the search measured, under state.
    """
    a = min(state.alpha_min, alpha)
    rhs = merit_old + (a * state.eta_S * R_k + a * a * state.eta_S * N_k)
    if merit_new <= rhs:
        return state.mu
    return max(0.5 * state.mu, mu_R_next)
