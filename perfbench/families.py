"""Seeded problem families for the solve benchmark.

Each generator takes a numpy Generator and returns one instance. The
solver sees only the generated problem: callbacks for the two analytic
families, JSON problem-file text for the polynomial family.
"""

import json
from dataclasses import dataclass

import numpy as np

from curvsqp import NlpProblem, SolverConfig, make_iterate, parse_problem_file


@dataclass(frozen=True)
class Instance:
    problem: NlpProblem
    v0: object
    config: SolverConfig


def simplex_qp(rng, n=128):
    """Indefinite QP 1/2 x'Qx + c'x on {sum(x) = n, x >= 0} from x = 1.

    Q is a symmetric Gaussian matrix (semicircle spectrum, about half
    the eigenvalues negative), so the interior start sits on a surface
    with many descent and negative-curvature directions; the minimizers
    are near vertices with two or three nonzeros. Every iteration pays a
    stage-1 factorization of size |free| + 1, and the free set starts at
    all n variables.
    """
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = 0.5 * (A + A.T)
    c = 0.1 * rng.standard_normal(n)
    ones = np.ones((1, n))

    def f(x):
        return 0.5 * float(x @ (Q @ x)) + float(c @ x)

    def g(x):
        return Q @ x + c

    def cons(x):
        return np.array([x.sum() - n])

    def jac(x):
        return ones

    def hess(x, y):
        return Q

    problem = NlpProblem("simplex-qp", n, 1, f, g, cons, jac, hess)
    return Instance(problem, make_iterate(np.ones(n), np.zeros(1)), SolverConfig())


def cosine_lift(rng, n=32):
    """Separable sum(w_i cos x_i), no equality rows, near the 2*pi saddle.

    Every coordinate starts close to a maximum of its cosine, so the
    gradient is small and the Hessian negative definite: progress comes
    from curvilinear steps along negative-curvature directions. The
    minimum value is -sum(w), at x_i = pi or 3*pi.
    """
    w = rng.uniform(0.5, 2.0, n)
    x0 = 2.0 * np.pi + rng.uniform(-0.05, 0.05, n)

    def f(x):
        return float(w @ np.cos(x))

    def g(x):
        return -w * np.sin(x)

    def cons(x):
        return np.zeros(0)

    def jac(x):
        return np.zeros((0, n))

    def hess(x, y):
        return np.diag(-w * np.cos(x))

    problem = NlpProblem("cosine-lift", n, 0, f, g, cons, jac, hess)
    return Instance(problem, make_iterate(x0, np.zeros(0)), SolverConfig())


def poly_file_text(rng, n=8, terms=12):
    """JSON problem file: a random sparse cubic on sum(x) = n, x >= 0.

    Each of the terms monomials multiplies one to three variables drawn
    with replacement, with a standard normal coefficient. The start is
    x = 1, y = 0. Nothing is tuned away: over a quarter of these
    instances end in FactorizationBreakdown, an EvaluationError from a
    non-finite trial point, a QP failure or the iteration limit.
    """
    objective = []
    for _ in range(terms):
        expo = [0] * n
        for i in rng.integers(0, n, int(rng.integers(1, 4))):
            expo[int(i)] += 1
        objective.append([float(rng.standard_normal()), expo])
    simplex = [[1.0, [int(i == j) for j in range(n)]] for i in range(n)]
    simplex.append([-float(n), [0] * n])
    return json.dumps(
        {
            "format_version": 1,
            "name": "poly-file",
            "n": n,
            "objective": objective,
            "constraints": [simplex],
            "start": {"x": [1.0] * n, "y": [0.0]},
        }
    )


def parse_instance(text):
    parsed = parse_problem_file(text)
    v0 = make_iterate(parsed.x0, parsed.y0)
    return Instance(parsed.problem, v0, SolverConfig(**parsed.config))
