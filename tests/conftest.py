"""Shared random instance families.

Every generator takes an explicit seed so failures reproduce exactly.
Hessian kinds rotate through indefinite, positive definite, negative
definite, and rank-deficient to keep the factorization paths honest.
"""

import importlib.util
from pathlib import Path

import numpy as np

from curvsqp.driver import SolverConfig
from curvsqp.merit import MeritState, condense, dual_step, merit_gradient
from curvsqp.model import Evaluation, NlpProblem, make_iterate
from curvsqp.oracle import merit_hessian, qp_brute_force
from curvsqp.qpstep import solve_qp


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(stem):
    """perfbench/<stem>.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_" + stem, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the settings of a default solve; a test takes from here each value that
# driver.solve passes from its config to the layers below it
DEFAULTS = SolverConfig()


def merit_state(y_E, mu, **settings):
    """MeritState at y_E and mu; nu, eta_S and alpha_min come from
    settings, else from DEFAULTS."""
    defaults = {name: getattr(DEFAULTS, name) for name in ("nu", "eta_S", "alpha_min")}
    return MeritState(y_E=y_E, mu=mu, **{**defaults, **settings})


def kkt_instances(seed, count):
    """Yield (H_F, J_F, mu) triples; |F| <= 12, m <= 6, mu in [1e-3, 1]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        nf = int(rng.integers(1, 13))
        m = int(rng.integers(0, 7))
        mu = float(10.0 ** rng.uniform(-3.0, 0.0))
        A = rng.normal(size=(nf, nf))
        kind = i % 4
        if kind == 0:
            H = 0.5 * (A + A.T)
        elif kind == 1:
            H = A @ A.T + 0.1 * np.eye(nf)
        elif kind == 2:
            H = -(A @ A.T) - 0.1 * np.eye(nf)
        else:
            r = max(1, nf // 2)
            B = rng.normal(size=(nf, r))
            H = B @ B.T - 2.0 * np.outer(B[:, 0], B[:, 0])
            H = 0.5 * (H + H.T)
        J = rng.normal(size=(m, nf))
        yield H, J, mu


def scaled_kkt_instances(seed, count):
    """Yield (H_F, J_F, mu) triples whose H is scaled by 1e13.

    The pivot threshold 1e-12 * (1 + max|K|) then lies far above mu, so
    no dual diagonal is admissible: the elimination must take 2x2 cross
    pivots, which the instances with a zeroed H diagonal (every other
    one) often allow, or break down. |F| <= 8, 1 <= m <= 4.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        nf = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        mu = float(10.0 ** rng.uniform(-3.0, 0.0))
        A = rng.normal(size=(nf, nf))
        H = 1e13 * 0.5 * (A + A.T)
        if i % 2:
            H[np.diag_indices(nf)] = 0.0
        J = rng.normal(size=(m, nf))
        yield H, J, mu


def qp_instances(seed, count, mu=None):
    """Yield (ev, iterate, state, seed_active) step models.

    n <= 6 bounded primal entries and m <= 3 unbounded dual entries. H
    is indefinite on some instances, but H + J.T J / mu is positive
    definite, so the condensed QP and the stacked merit model are both
    strictly convex; some x components sit exactly on their bound. mu is
    drawn from [0.1, 1] unless given; every other draw is the same.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 4))
        drawn = float(rng.uniform(0.1, 1.0))
        penalty = drawn if mu is None else mu
        nu = float(rng.uniform(0.5, 2.0))
        A = rng.normal(size=(n, n))
        J = rng.normal(size=(m, n))
        H = A @ A.T + (0.1 + rng.uniform()) * np.eye(n) - (J.T @ J) / (2.0 * penalty)
        H = 0.5 * (H + H.T)
        ev = Evaluation(
            f=0.0, c=rng.normal(size=m), g=rng.normal(size=n) * 3.0, J=J, H=H,
            h_scale=float(np.max(np.abs(H))),
        )
        x = rng.uniform(0.0, 2.0, size=n)
        x[rng.uniform(size=n) < 0.2] = 0.0
        iterate = make_iterate(x, rng.normal(size=m))
        state = merit_state(y_E=rng.normal(size=m), mu=penalty, nu=nu)
        if rng.uniform() < 0.5:
            seed_active = np.flatnonzero(rng.uniform(size=n) < 0.3)
        else:
            seed_active = None
        yield ev, iterate, state, seed_active


def condensed_step(ev, iterate, state, seed_active=None):
    """The driver's step on a step model: solve_qp on the condensed model.

    Returns (qp, grad, G, dv, value): G = H + J.T J / mu, dv stacks p and
    the closed-form dual step, value is the stacked model's value at dv
    (the QP objective plus the condensed model's constant).
    """
    grad, constant = condense(ev, iterate, state)
    G = ev.H + (ev.J.T @ ev.J) / state.mu
    qp = solve_qp(G, grad, iterate.x, seed_active=seed_active, tol=DEFAULTS.qp_tol)
    dv = np.concatenate([qp.p, dual_step(ev, iterate, state, qp.p)])
    return qp, grad, G, dv, qp.model_decrease + constant


def stacked_reference(ev, iterate, state):
    """oracle.qp_brute_force on the stacked merit model: (dv, z, value)."""
    H_M = merit_hessian(ev, state, ev.H)
    return qp_brute_force(H_M, merit_gradient(ev, iterate, state), iterate.x)


def quadric_sphere_instances(seed, count, n=8):
    """Yield (problem, v0) pairs with a nonlinear constraint.

    min 1/2 x'Qx + q'x subject to |x|^2 = n and b'x = b'1, x >= 0, with
    Q, q drawn as the benchmark's simplex-qp draws them and b Gaussian.
    The start x = 1, y = 0 is feasible and the constraint gradients are
    independent there. The sphere's Hessian 2I enters the Lagrangian
    Hessian with its multiplier, so a wrong multiplier sign shows.
    """
    rng = np.random.default_rng(seed)
    ones = np.ones(n)
    for _ in range(count):
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        Q = 0.5 * (A + A.T)
        q = 0.1 * rng.standard_normal(n)
        b = rng.standard_normal(n)
        b1 = float(b @ ones)

        def f(x, Q=Q, q=q):
            return 0.5 * float(x @ (Q @ x)) + float(q @ x)

        def g(x, Q=Q, q=q):
            return Q @ x + q

        def cons(x, b=b, b1=b1):
            return np.array([float(x @ x) - n, float(b @ x) - b1])

        def jac(x, b=b):
            return np.vstack([2.0 * x, b])

        def hess(x, y, Q=Q):
            return Q + 2.0 * y[0] * np.eye(n)

        problem = NlpProblem("quadric-sphere", n, 2, f, g, cons, jac, hess)
        yield problem, make_iterate(ones, np.zeros(2))


def sphere_saddle_instances(seed, count, n=8):
    """Yield (problem, v0, f_star) triples that start at a saddle.

    min 1/2 (x - s)'Q(x - s) subject to |x - s|^2 = n, x >= 0, with
    s = 10 (the bounds never bind) and Q drawn as quadric_sphere_instances
    draws it, with eigenpairs (lambda_j, v_j) ascending. Instance i starts
    at x = s + sqrt(n) v_k, y = lambda_k / 2 with k = 1 + i mod (n - 1):
    a KKT point whose reduced curvature is negative along v_0. The
    minimizers are s +- sqrt(n) v_0, at f_star = n lambda_0 / 2: the
    trust-region subproblem (More and Sorensen 1983), whose KKT points
    are the eigenvectors. The constraint curves, so the problem does
    not declare linear_constraints.
    """
    rng = np.random.default_rng(seed)
    shift = np.full(n, 10.0)
    for i in range(count):
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        Q = 0.5 * (A + A.T)
        lam, V = np.linalg.eigh(Q)
        k = 1 + i % (n - 1)

        def f(x, Q=Q):
            z = x - shift
            return 0.5 * float(z @ (Q @ z))

        def g(x, Q=Q):
            return Q @ (x - shift)

        def cons(x):
            z = x - shift
            return np.array([float(z @ z) - n])

        def jac(x):
            return 2.0 * (x - shift)[None, :]

        def hess(x, y, Q=Q):
            return Q + 2.0 * y[0] * np.eye(n)

        problem = NlpProblem("sphere-saddle", n, 1, f, g, cons, jac, hess)
        v0 = make_iterate(shift + np.sqrt(n) * V[:, k], [0.5 * lam[k]])
        yield problem, v0, 0.5 * n * float(lam[0])


def merit_form_instances(seed, count):
    """Yield (H, J, mu, nu, u) tuples for the stacked quadratic-form check."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        H = 0.5 * (A + A.T)
        J = rng.normal(size=(m, n))
        mu = float(rng.uniform(0.05, 1.0))
        nu = float(rng.uniform(0.5, 2.0))
        u = rng.normal(size=n)
        yield H, J, mu, nu, u


def central_diff(fun, z, step):
    """Central finite-difference gradient of a scalar function."""
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape[0])
    for i in range(z.shape[0]):
        e = np.zeros(z.shape[0])
        e[i] = step
        out[i] = (fun(z + e) - fun(z - e)) / (2.0 * step)
    return out


def nan_difference_problem():
    """n = 2, m = 0 problem whose Hessian check is NaN at x = (1, 1).

    The gradient is +-1e308 one difference step away, so the central
    differences of g overflow to +inf and -inf and their symmetrization
    is inf + -inf = NaN; every other error is 0.
    """
    big = 1e308
    return NlpProblem(
        name="nan-differences",
        n=2,
        m=0,
        objective=lambda x: 0.0,
        gradient=lambda x: np.array([big * np.sign(x[1] - 1.0), -big * np.sign(x[0] - 1.0)]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 2)),
        hessian=lambda x, y: np.zeros((2, 2)),
        x0=np.array([1.0, 1.0]),
    )


# diagonal entries drawn by the diagonal families: ties, +-0.0, negative,
# subnormal, and entries whose symmetrized double overflows (1.7e308) or
# whose shifted value can (8e307)
DIAGONAL_VALUES = (-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 5e-324, -5e-324, 1e-300,
                   8e307, -8e307, 1.7e308)


def spy_on_diagonal_entries(monkeypatch, module):
    """Record, per call of module.diagonal_entries, whether it accepted."""
    took = []
    original = module.diagonal_entries

    def spy(A):
        diag = original(A)
        took.append(diag is not None)
        return diag

    monkeypatch.setattr(module, "diagonal_entries", spy)
    return took
