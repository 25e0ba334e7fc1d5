"""Problem definition, evaluation bundle, and derivative checking.

A problem is the data of min f(x) subject to c(x) = 0 and x >= 0, with
callbacks for f, its gradient, the constraint vector, its Jacobian, and
the combined second-derivative matrix hessian(x, y) = hess f(x) +
sum_i y_i * hess c_i(x).

The solver's multipliers are those of the Lagrangian f - y'c, whose
gradient is g - J'y. lagrangian_hessian is the one place that turns a
multiplier of f - y'c into the callback's argument, by calling
hessian(x, -y).

Evaluation comes in two checked parts: merit_terms calls the objective
and constraints only, which is all a merit value needs, and evaluate
adds the gradient, Jacobian and the Lagrangian Hessian, reusing terms
the caller already has. check_derivatives differences evaluate's own
values, so it checks exactly what the solver uses.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvaluationError


@dataclass(frozen=True)
class NlpProblem:
    """Callbacks and metadata for one instance of the problem class.

    hessian(x, y) returns the Hessian of f + y'c. The solver calls it
    at the negated multiplier, through lagrangian_hessian.
    """

    name: str
    n: int
    m: int
    objective: Callable
    gradient: Callable
    constraints: Callable
    jacobian: Callable
    hessian: Callable
    x0: np.ndarray = field(default=None)
    y0: np.ndarray = field(default=None)


class Iterate(NamedTuple):
    """Primal-dual point. x must stay componentwise nonnegative."""

    x: np.ndarray
    y: np.ndarray

    @property
    def v(self):
        return np.concatenate([self.x, self.y])


def make_iterate(x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    y = np.atleast_1d(np.asarray(y, dtype=float)).copy() if np.size(y) else np.zeros(0)
    return Iterate(x=x, y=y)


class Evaluation(NamedTuple):
    """All problem quantities at one iterate: f, c, g, J, H.

    H is the Hessian of the Lagrangian f - y'c at the iterate's y.
    """

    f: float
    c: np.ndarray
    g: np.ndarray
    J: np.ndarray
    H: np.ndarray


class MeritTerms(NamedTuple):
    """The callback values the merit function needs: f and c."""

    f: float
    c: np.ndarray


def merit_terms(problem, iterate):
    """Evaluate f and c at the iterate and validate the results.

    Wrong shapes or non-finite entries raise EvaluationError; callback
    exceptions are chained into the same type.
    """
    x, y = iterate.x, iterate.y
    n, m = problem.n, problem.m
    if x.shape != (n,):
        raise EvaluationError(f"x has shape {x.shape}, expected ({n},)")
    if y.shape != (m,):
        raise EvaluationError(f"y has shape {y.shape}, expected ({m},)")
    try:
        f = float(problem.objective(x))
        c = np.asarray(problem.constraints(x), dtype=float).reshape(-1)
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(f"{problem.name}: evaluator raised: {exc}") from exc
    if c.shape != (m,):
        raise EvaluationError(f"constraints have shape {c.shape}, expected ({m},)")
    if not math.isfinite(f) or (m and not np.isfinite(c).all()):
        raise EvaluationError(f"{problem.name}: non-finite evaluator output")
    return MeritTerms(f=f, c=c)


def evaluate(problem, iterate, terms=None):
    """Evaluate every callback at the iterate and validate the results.

    terms, when given, is merit_terms(problem, iterate) already computed
    by the caller; f and c are taken from it instead of called again.
    Wrong shapes, non-finite entries, or a visibly asymmetric H raise
    EvaluationError; callback exceptions are chained into the same type.
    """
    f, c = terms if terms is not None else merit_terms(problem, iterate)
    x, n, m = iterate.x, problem.n, problem.m
    try:
        g = np.asarray(problem.gradient(x), dtype=float).reshape(-1)
        J = np.asarray(problem.jacobian(x), dtype=float).reshape(m, n)
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(f"{problem.name}: evaluator raised: {exc}") from exc
    H = lagrangian_hessian(problem, x, iterate.y)
    if g.shape != (n,):
        raise EvaluationError(f"gradient has shape {g.shape}, expected ({n},)")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(J))):
        raise EvaluationError(f"{problem.name}: non-finite evaluator output")
    return Evaluation(f=f, c=c, g=g, J=J, H=H)


def lagrangian_hessian(problem, x, y):
    """Hessian of f - y'c at x, checked for shape, finiteness, symmetry.

    The only caller of problem.hessian: the callback's convention is
    f + y'c, so it is called at -y.
    """
    n = problem.n
    try:
        H = np.asarray(problem.hessian(x, -y), dtype=float)
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(f"{problem.name}: evaluator raised: {exc}") from exc
    if H.shape != (n, n):
        raise EvaluationError(f"H has shape {H.shape}, expected ({n}, {n})")
    # the max propagates NaN and inf, so it is also the finiteness test
    hnorm = float(np.max(np.abs(H), initial=0.0))
    if not math.isfinite(hnorm):
        raise EvaluationError(f"{problem.name}: non-finite evaluator output")
    asym = H - H.T
    np.abs(asym, out=asym)
    if float(np.max(asym, initial=0.0)) > 1e-12 * (1.0 + hnorm):
        raise EvaluationError(f"{problem.name}: H is not symmetric")
    return H


class DerivativeReport(NamedTuple):
    """Relative agreement between callbacks and central differences."""

    gradient_error: float
    jacobian_error: float
    hessian_error: float
    step: float

    @property
    def max_error(self):
        # np.max propagates NaN, where max() would keep an earlier value
        return float(np.max((self.gradient_error, self.jacobian_error, self.hessian_error)))


def check_derivatives(problem, x, y=None, step=1e-5):
    """Compare g, J, H against central finite differences of f, c, g - J'y.

    Every value comes from evaluate, at x and at x +- step e_i, so H is
    checked against the gradient of the same Lagrangian f - y'c it is
    the Hessian of, and the multiplier-weighted constraint curvature is
    covered too. Errors are max-norm, relative to 1 + the exact
    quantity's max-norm.
    """
    x = np.asarray(x, dtype=float)
    n, m = problem.n, problem.m
    y = np.zeros(m) if y is None else np.asarray(y, dtype=float)
    ev = evaluate(problem, make_iterate(x, y))

    g_fd = np.zeros(n)
    J_fd = np.zeros((m, n))
    H_fd = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        hi = evaluate(problem, make_iterate(x + e, y))
        lo = evaluate(problem, make_iterate(x - e, y))
        g_fd[i] = (hi.f - lo.f) / (2 * step)
        J_fd[:, i] = (hi.c - lo.c) / (2 * step)
        H_fd[:, i] = ((hi.g - hi.J.T @ y) - (lo.g - lo.J.T @ y)) / (2 * step)
    H_fd = 0.5 * (H_fd + H_fd.T)

    def rel(approx, exact):
        denom = 1.0 + float(np.max(np.abs(exact), initial=0.0))
        return float(np.max(np.abs(approx - exact), initial=0.0)) / denom

    return DerivativeReport(
        gradient_error=rel(g_fd, ev.g),
        jacobian_error=rel(J_fd, ev.J),
        hessian_error=rel(H_fd, ev.H),
        step=step,
    )
