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
its trials with model.merit_terms, one trial at a time in j order and
never past the first that passes, and makes the full evaluation (g, J,
H) at the trial it accepts, once.
"""

from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, LineSearchFailure
from .model import Evaluation, Iterate, evaluate, lagrangian_hessian, merit_terms

SNAP_FACTOR = 1e-13
# the search's right-hand side is relaxed by 10 EPS |merit_old|, so it
# never asks for a decrease below the merit's rounding error
EPS = float(np.finfo(float).eps)


class MeritState(NamedTuple):
    """Parameters the merit function is conditioned on.

    y_E is the multiplier estimate and mu the flexible line-search
    penalty; nu weighs the dual term, and eta_S and alpha_min scale the
    decrease the search and the penalty update require.
    """

    y_E: np.ndarray
    mu: float
    nu: float
    eta_S: float
    alpha_min: float


def merit_value(ev, iterate, state):
    """Merit at the iterate from ev.f and ev.c (an Evaluation or MeritTerms)."""
    val = ev.f
    if ev.c.shape[0]:
        c = ev.c
        shifted = c + state.mu * (iterate.y - state.y_E)
        val += -float(c @ state.y_E) + float(c @ c) / (2.0 * state.mu)
        val += state.nu * float(shifted @ shifted) / (2.0 * state.mu)
    return float(val)


def _pi(ev, state):
    """pi = y_E - c / mu."""
    return state.y_E - ev.c / state.mu


def _merit_multiplier(pi, iterate, state):
    """pi + nu (pi - y), the multiplier of the merit's x-derivatives."""
    return pi + state.nu * (pi - iterate.y)


def merit_gradient(ev, iterate, state):
    """Stacked (x, y) gradient of the merit at the iterate."""
    pi = _pi(ev, state)
    gx = ev.g - ev.J.T @ _merit_multiplier(pi, iterate, state)
    gy = state.nu * state.mu * (iterate.y - pi)
    return np.concatenate([gx, gy])


def merit_xx_hessian(problem, ev, iterate, state):
    """Lagrangian Hessian at the merit's multiplier pi + nu (pi - y).

    With no constraints, or only affine ones, the multiplier does not
    enter it, so it is the Hessian ev already holds.
    """
    if ev.c.shape[0] == 0 or problem.linear_constraints:
        return ev.H
    y_M = _merit_multiplier(_pi(ev, state), iterate, state)
    return lagrangian_hessian(problem, iterate.x, y_M)[0]


def condense(ev, iterate, state):
    """(grad, constant) of the step model in p alone, at penalty state.mu.

    grad = g - J.T pi and constant = -nu mu |y - pi|^2 / 2.
    """
    pi = _pi(ev, state)
    r = pi - iterate.y
    return ev.g - ev.J.T @ pi, -0.5 * state.nu * state.mu * float(r @ r)


def dual_step(ev, iterate, state, p):
    """q = pi - y - J p / mu, where the stacked model is least given p."""
    return _pi(ev, state) - iterate.y - (ev.J @ p) / state.mu


class LineSearchResult(NamedTuple):
    alpha: float
    accepted: Iterate
    ev: Evaluation
    merit_new: float
    n_trials: int
    bound_rejections: int

    @property
    def j(self):
        """The accepted trial's exponent: alpha = 2**-j."""
        return self.n_trials - 1


def curvilinear_search(problem, iterate, merit_old, step, dv, state, N_k, R_k, j_max):
    """Backtrack along x + alpha*u + alpha^2*p (duals likewise).

    Accepts the first alpha = 2**-j whose trial point satisfies

        M(trial) <= merit_old + 10 EPS |merit_old| + alpha^2 eta_S (N_k + R_k / 2)

    with both model quantities nonpositive (NaN raises ValueError too)
    and merit_old = M(iterate) from the caller. Along the arc the merit
    is merit_old + alpha s + alpha^2 (grad M . dv + R_k / 2) + O(alpha^3)
    with slope s <= 0, so the curvature gain is paired with alpha^2, like
    the model decrease (More and Sorensen's curvilinear rule); with
    eta_S < 1 every small enough alpha passes on a smooth merit, even
    where s = 0. The 10 EPS |merit_old| term keeps the test from asking
    for a decrease below the merit's rounding error (as in Waechter and
    Biegler). Each trial calls only the objective and constraints
    (merit_terms); the accepted trial alone gets the full evaluation,
    which reuses its f and c and is returned as ev. A derivative
    callback is therefore never called at a rejected trial, while a bad
    f or c at any trial raises EvaluationError, as does a bad derivative
    at the accepted one. Trial points that dip below the bounds beyond
    roundoff are rejected without evaluation and count as failed trials;
    components within the roundoff band are snapped to exactly zero
    before the merit is measured, so the accepted point is the one the
    inequality was verified at. Raises LineSearchFailure when j_max is
    exhausted. Either error leaves with diagnostics carrying n_trials
    (the trials evaluated, the failing one included) and
    bound_rejections.
    """
    if not (N_k <= 0.0 and R_k <= 0.0):
        raise ValueError(f"model decrease quantities must be nonpositive, not {N_k}, {R_k}")
    x, y = iterate.x, iterate.y
    n = x.shape[0]
    u, w = step.u, step.w
    p, q = dv[:n], dv[n:]
    snap = SNAP_FACTOR * (1.0 + float(np.maximum.reduce(np.abs(x), None, initial=0.0)))
    relaxed = merit_old + 10.0 * EPS * abs(merit_old)
    rejected = 0
    for j in range(j_max + 1):
        alpha = 2.0 ** (-j)
        x_t = x + alpha * u + alpha * alpha * p
        lowest = float(np.minimum.reduce(x_t, None, initial=0.0))
        if lowest < -snap:
            rejected += 1
            continue
        if lowest < 0.0:
            x_t = np.where(x_t < 0.0, 0.0, x_t)
        cand = Iterate(x=x_t, y=y + alpha * w + alpha * alpha * q)
        try:
            terms = merit_terms(problem, cand)
            m_t = merit_value(terms, cand, state)
            if m_t <= relaxed + alpha * alpha * state.eta_S * (N_k + 0.5 * R_k):
                return LineSearchResult(
                    alpha=alpha,
                    accepted=cand,
                    ev=evaluate(problem, cand, terms),
                    merit_new=m_t,
                    n_trials=j + 1,
                    bound_rejections=rejected,
                )
        except EvaluationError as exc:
            # the failing trial was evaluated, so it counts
            exc.diagnostics = {"n_trials": j + 1, "bound_rejections": rejected}
            raise
    raise LineSearchFailure(
        f"no step accepted in {j_max + 1} trials",
        diagnostics={"n_trials": j_max + 1, "bound_rejections": rejected},
    )


def penalty_update(merit_new, merit_old, state, alpha, N_k, R_k, mu_R_next):
    """Flexible penalty after a step: keep mu, or drop toward mu_R.

    merit_new (accepted point) must beat merit_old (previous point) by at
    least alpha_bar^2 eta_S (N_k + R_k / 2), the search's pairing at the
    damped step size alpha_bar = min(alpha_min, alpha) and without its
    rounding term; otherwise mu falls to max(mu/2, mu_R_next). Both
    merits are those the search measured, under state.
    """
    a = min(state.alpha_min, alpha)
    rhs = merit_old + a * a * state.eta_S * (N_k + 0.5 * R_k)
    if merit_new <= rhs:
        return state.mu
    return max(0.5 * state.mu, mu_R_next)
