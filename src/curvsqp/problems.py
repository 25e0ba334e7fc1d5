"""Built-in test problems.

Each builder returns an NlpProblem with a default start point. All three
have linear (or absent) equality constraints, so H(x, y) reduces to the
objective Hessian, and each declares linear_constraints.
"""

import numpy as np

from .model import NlpProblem


def _saddle_line():
    # f = x1*x2 on the line x1 + x2 = 2; the analytic center (1, 1) with
    # y = 1 is first-order stationary but sits on a saddle of the reduced
    # objective, and the minimizers are the vertices (2, 0) and (0, 2).
    def f(x):
        return x[0] * x[1]

    def g(x):
        return np.array([x[1], x[0]])

    def c(x):
        return np.array([x[0] + x[1] - 2.0])

    def J(x):
        return np.array([[1.0, 1.0]])

    def H(x, y):
        return np.array([[0.0, 1.0], [1.0, 0.0]])

    return NlpProblem(
        name="saddle-line",
        n=2,
        m=1,
        objective=f,
        gradient=g,
        constraints=c,
        jacobian=J,
        hessian=H,
        x0=np.array([1.0, 1.0]),
        y0=np.array([1.0]),
        linear_constraints=True,
    )


def _cosine_saddle():
    # f = cos(x1) + (x2 - 1)^2, unconstrained apart from the bounds. The
    # default start (2*pi, 1) has a zero gradient and one direction of
    # negative curvature; the nearest minimizers are (pi, 1) and (3*pi, 1)
    # with value -1.
    def f(x):
        return np.cos(x[0]) + (x[1] - 1.0) ** 2

    def g(x):
        return np.array([-np.sin(x[0]), 2.0 * (x[1] - 1.0)])

    def c(x):
        return np.zeros(0)

    def J(x):
        return np.zeros((0, 2))

    def H(x, y):
        return np.array([[-np.cos(x[0]), 0.0], [0.0, 2.0]])

    return NlpProblem(
        name="cosine-saddle",
        n=2,
        m=0,
        objective=f,
        gradient=g,
        constraints=c,
        jacobian=J,
        hessian=H,
        x0=np.array([2.0 * np.pi, 1.0]),
        y0=np.zeros(0),
        linear_constraints=True,
    )


def _convex_qp():
    # Strictly convex quadratic with one linear constraint. Unique
    # minimizer x = (7/6, 5/6), y = 2/3, objective 1/3; no negative
    # curvature anywhere, so curvature steps must never fire.
    Q = np.array([[1.0, 0.0], [0.0, 2.0]])
    a = np.array([0.5, 0.5])

    def f(x):
        d = x - a
        return 0.5 * d @ Q @ d

    def g(x):
        return Q @ (x - a)

    def c(x):
        return np.array([x[0] + x[1] - 2.0])

    def J(x):
        return np.array([[1.0, 1.0]])

    def H(x, y):
        return Q.copy()

    return NlpProblem(
        name="convex-qp",
        n=2,
        m=1,
        objective=f,
        gradient=g,
        constraints=c,
        jacobian=J,
        hessian=H,
        x0=np.array([2.0, 0.5]),
        y0=np.array([0.0]),
        linear_constraints=True,
    )


_BUILDERS = {
    "saddle-line": _saddle_line,
    "cosine-saddle": _cosine_saddle,
    "convex-qp": _convex_qp,
}


def list_problems():
    """Names of the built-in problems, sorted."""
    return sorted(_BUILDERS)


def get_problem(name):
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(list_problems())}"
        ) from None
