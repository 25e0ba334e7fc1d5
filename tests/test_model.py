import math

import numpy as np
import pytest

from conftest import nan_difference_problem
from curvsqp.errors import EvaluationError
from curvsqp.model import (
    NlpProblem,
    check_derivatives,
    evaluate,
    make_iterate,
    merit_terms,
)
from curvsqp.problems import get_problem, list_problems


def test_saddle_line_evaluation():
    prob = get_problem("saddle-line")
    ev = evaluate(prob, make_iterate([1.0, 1.0], [1.0]))
    assert ev.f == 1.0
    np.testing.assert_array_equal(ev.c, [0.0])
    np.testing.assert_array_equal(ev.g, [1.0, 1.0])
    np.testing.assert_array_equal(ev.J, [[1.0, 1.0]])
    np.testing.assert_array_equal(ev.H, [[0.0, 1.0], [1.0, 0.0]])


def test_cosine_saddle_evaluation():
    prob = get_problem("cosine-saddle")
    ev = evaluate(prob, make_iterate([2.0 * np.pi, 1.0], []))
    np.testing.assert_allclose(ev.g, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(ev.H, [[-1.0, 0.0], [0.0, 2.0]], atol=1e-12)
    assert ev.c.shape == (0,)
    assert ev.J.shape == (0, 2)


def _curved_constraint_problem():
    # c = x1^2 + x2 - 1 makes H depend on y, unlike the built-ins
    return NlpProblem(
        name="curved",
        n=2,
        m=1,
        objective=lambda x: x[0] ** 2 + x[1] ** 2,
        gradient=lambda x: 2.0 * x,
        constraints=lambda x: np.array([x[0] ** 2 + x[1] - 1.0]),
        jacobian=lambda x: np.array([[2.0 * x[0], 1.0]]),
        hessian=lambda x, y: 2.0 * np.eye(2) + y[0] * np.array([[2.0, 0.0], [0.0, 0.0]]),
    )


def test_zero_multiplier_gives_objective_hessian():
    # H is the Hessian of f - y'c: the callback, in its f + y'c
    # convention, is called at -y
    prob = _curved_constraint_problem()
    x = np.array([1.3, 0.4])
    ev0 = evaluate(prob, make_iterate(x, [0.0]))
    np.testing.assert_array_equal(ev0.H, 2.0 * np.eye(2))
    ev1 = evaluate(prob, make_iterate(x, [3.0]))
    np.testing.assert_array_equal(ev1.H, np.array([[-4.0, 0.0], [0.0, 2.0]]))


def test_hessian_is_the_derivative_of_the_lagrangian_gradient():
    # evaluate's H against central differences of g - J'y, the gradient
    # the stationarity test measures, taken from the raw callbacks at
    # multipliers of both signs
    prob = _curved_constraint_problem()
    x, step = np.array([1.3, 0.4]), 1e-5
    for y in (np.array([3.0]), np.array([-1.7])):
        H = evaluate(prob, make_iterate(x, y)).H
        fd = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            hi = prob.gradient(x + e) - prob.jacobian(x + e).T @ y
            lo = prob.gradient(x - e) - prob.jacobian(x - e).T @ y
            fd[:, i] = (hi - lo) / (2.0 * step)
        np.testing.assert_allclose(fd, H, rtol=0.0, atol=1e-8)


def test_evaluate_with_merit_terms_matches_a_fresh_evaluation():
    rng = np.random.default_rng(5)
    problems = [get_problem(name) for name in list_problems()]
    for prob in problems + [_curved_constraint_problem()]:
        for _ in range(5):
            it = make_iterate(rng.uniform(0.1, 3.0, size=prob.n), rng.normal(size=prob.m))
            terms = merit_terms(prob, it)
            full = evaluate(prob, it, terms)
            fresh = evaluate(prob, it)
            assert (terms.f, full.f) == (fresh.f, fresh.f)
            for name in ("c", "g", "J", "H"):
                np.testing.assert_array_equal(getattr(full, name), getattr(fresh, name))
            np.testing.assert_array_equal(terms.c, fresh.c)


def test_evaluate_rejects_dimension_mismatch():
    prob = get_problem("saddle-line")
    with pytest.raises(EvaluationError):
        evaluate(prob, make_iterate([1.0, 1.0, 1.0], [1.0]))
    with pytest.raises(EvaluationError):
        evaluate(prob, make_iterate([1.0, 1.0], []))


def test_evaluate_rejects_nonfinite():
    prob = NlpProblem(
        name="bad",
        n=1,
        m=0,
        objective=lambda x: float("nan"),
        gradient=lambda x: np.zeros(1),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 1)),
        hessian=lambda x, y: np.zeros((1, 1)),
    )
    with pytest.raises(EvaluationError):
        evaluate(prob, make_iterate([1.0], []))


def test_evaluate_rejects_asymmetric_hessian():
    prob = NlpProblem(
        name="skew",
        n=2,
        m=0,
        objective=lambda x: 0.0,
        gradient=lambda x: np.zeros(2),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 2)),
        hessian=lambda x, y: np.array([[0.0, 1.0], [0.0, 0.0]]),
    )
    with pytest.raises(EvaluationError):
        evaluate(prob, make_iterate([1.0, 1.0], []))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_hessian_is_reported_as_nonfinite(bad):
    # off the diagonal, so H - H.T is not finite either
    prob = NlpProblem(
        name="bad-h",
        n=2,
        m=0,
        objective=lambda x: 0.0,
        gradient=lambda x: np.zeros(2),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 2)),
        hessian=lambda x, y: np.array([[1.0, bad], [0.0, 1.0]]),
    )
    with pytest.raises(EvaluationError, match="non-finite"):
        evaluate(prob, make_iterate([1.0, 1.0], []))


def test_hessian_symmetry_of_builtins():
    rng = np.random.default_rng(3)
    for name in list_problems():
        prob = get_problem(name)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, size=prob.n)
            y = rng.normal(size=prob.m)
            ev = evaluate(prob, make_iterate(x, y))
            scale = 1.0 + np.max(np.abs(ev.H), initial=0.0)
            assert np.max(np.abs(ev.H - ev.H.T), initial=0.0) <= 1e-14 * scale


def test_derivative_check_builtins_random_points():
    """Analytic derivatives agree with central differences everywhere."""
    rng = np.random.default_rng(17)
    for name in list_problems():
        prob = get_problem(name)
        for _ in range(100):
            x = rng.uniform(0.05, 4.0, size=prob.n)
            y = rng.normal(size=prob.m)
            report = check_derivatives(prob, x, y, step=1e-5)
            assert report.max_error <= 1e-6, (name, x, report)


def test_derivative_check_exact_for_quadratics():
    Q = np.array([[3.0, 1.0], [1.0, 2.0]])
    prob = NlpProblem(
        name="quad",
        n=2,
        m=0,
        objective=lambda x: 0.5 * x @ Q @ x,
        gradient=lambda x: Q @ x,
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 2)),
        hessian=lambda x, y: Q,
    )
    report = check_derivatives(prob, np.array([0.7, 2.1]), step=1e-5)
    # central differences are exact on quadratics up to roundoff
    assert report.hessian_error <= 1e-9


def test_derivative_check_detects_corruption():
    base = get_problem("saddle-line")
    broken = NlpProblem(
        name="broken",
        n=2,
        m=1,
        objective=base.objective,
        gradient=lambda x: base.gradient(x) + np.array([0.05, 0.0]),
        constraints=base.constraints,
        jacobian=base.jacobian,
        hessian=base.hessian,
    )
    report = check_derivatives(broken, np.array([1.0, 1.0]), np.array([1.0]))
    assert report.gradient_error >= 1e-2


def test_derivative_check_fails_on_a_nan_error():
    problem = nan_difference_problem()
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_derivatives(problem, problem.x0)
    assert report.gradient_error == 0.0 and report.jacobian_error == 0.0
    assert math.isnan(report.hessian_error)
    assert math.isnan(report.max_error)


def test_make_iterate_copies_and_stacks():
    x = np.array([1.0, 2.0])
    it = make_iterate(x, [3.0])
    x[0] = 9.0
    assert it.x[0] == 1.0
    np.testing.assert_array_equal(it.v, [1.0, 2.0, 3.0])
