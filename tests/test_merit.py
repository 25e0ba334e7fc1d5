import numpy as np
import pytest

from conftest import central_diff, merit_form_instances
from curvsqp.curvature import ScaledStep
from curvsqp.errors import LineSearchFailure
from curvsqp.merit import (
    MeritState,
    curvilinear_search,
    merit_gradient,
    merit_hessian,
    merit_value,
    penalty_update,
)
from curvsqp.model import Evaluation, NlpProblem, evaluate, make_iterate
from curvsqp.problems import get_problem


def _state(y_E, mu, **kw):
    y_E = np.atleast_1d(np.asarray(y_E, dtype=float))
    return MeritState(y_E=y_E, mu=mu, mu_R=mu, **kw)


def _synthetic_eval(H, J):
    m, n = J.shape
    return Evaluation(f=0.0, c=np.zeros(m), g=np.zeros(n), J=J, H=H)


def test_value_reduces_to_objective_on_feasible_match():
    prob = get_problem("saddle-line")
    it = make_iterate([1.0, 1.0], [1.0])
    ev = evaluate(prob, it)
    assert merit_value(ev, it, _state([1.0], 1.0)) == 1.0


def test_value_penalty_terms():
    # c = 2, y = y_E = 0, mu = 1, nu = 1: both penalty terms add 2
    prob = get_problem("saddle-line")
    it = make_iterate([2.0, 2.0], [0.0])
    ev = evaluate(prob, it)
    assert ev.f == 4.0 and ev.c[0] == 2.0
    assert merit_value(ev, it, _state([0.0], 1.0)) == pytest.approx(8.0)


def test_gradient_vanishes_at_kkt_point():
    prob = get_problem("saddle-line")
    it = make_iterate([1.0, 1.0], [1.0])
    ev = evaluate(prob, it)
    np.testing.assert_allclose(merit_gradient(ev, it, _state([1.0], 1.0)), np.zeros(3), atol=1e-15)


def test_gradient_unconstrained_is_objective_gradient():
    prob = get_problem("cosine-saddle")
    it = make_iterate([1.0, 3.0], [])
    ev = evaluate(prob, it)
    state = MeritState(y_E=np.zeros(0), mu=0.4, mu_R=0.4)
    np.testing.assert_array_equal(merit_gradient(ev, it, state), ev.g)


def test_gradient_matches_finite_differences():
    prob = get_problem("saddle-line")
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.uniform(0.3, 2.5, size=2)
        y = rng.normal(size=1)
        state = _state(rng.normal(size=1), rng.uniform(0.1, 1.0), nu=rng.uniform(0.5, 2.0))
        it = make_iterate(x, y)
        grad = merit_gradient(evaluate(prob, it), it, state)

        def m_of(v):
            cand = make_iterate(v[:2], v[2:])
            return merit_value(evaluate(prob, cand), cand, state)

        fd = central_diff(m_of, it.v, 1e-5)
        scale = 1.0 + np.max(np.abs(fd))
        assert np.max(np.abs(grad - fd)) <= 1e-6 * scale


def test_hessian_unconstrained_is_curvature_block():
    ev = _synthetic_eval(np.array([[2.0]]), np.zeros((0, 1)))
    state = MeritState(y_E=np.zeros(0), mu=1.0, mu_R=1.0)
    np.testing.assert_array_equal(merit_hessian(ev, state, ev.H), [[2.0]])


def test_hessian_hand_blocks():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    J = np.array([[1.0, 1.0]])
    out = merit_hessian(_synthetic_eval(H, J), _state([0.0], 1.0), H)
    expected = np.array([
        [2.0, 3.0, 1.0],
        [3.0, 2.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    np.testing.assert_array_equal(out, expected)


def test_hessian_matches_gradient_differences():
    # frozen-curvature model vs differenced gradient; built-ins have
    # linear constraints so the model is exact up to roundoff
    prob = get_problem("saddle-line")
    state = _state([0.7], 0.5)
    it = make_iterate([1.2, 0.8], [0.3])
    ev = evaluate(prob, it)
    H_M = merit_hessian(ev, state, ev.H)
    step = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        hi = make_iterate(it.v[:2] + e[:2], it.v[2:] + e[2:])
        lo = make_iterate(it.v[:2] - e[:2], it.v[2:] - e[2:])
        col = (
            merit_gradient(evaluate(prob, hi), hi, state)
            - merit_gradient(evaluate(prob, lo), lo, state)
        ) / (2.0 * step)
        assert np.max(np.abs(col - H_M[:, i])) <= 1e-5 * (1.0 + np.max(np.abs(col)))


def test_stacked_form_collapses_to_primal_form():
    """(u, -(1/mu)Ju) against the merit Hessian equals the penalized form."""
    for H, J, mu, nu, u in merit_form_instances(77, 200):
        state = MeritState(y_E=np.zeros(J.shape[0]), mu=mu, mu_R=mu, nu=nu)
        H_M = merit_hessian(_synthetic_eval(H, J), state, H)
        w = -(J @ u) / mu
        v = np.concatenate([u, w])
        target = u @ H @ u + (J @ u) @ (J @ u) / mu
        assert abs(v @ (H_M @ v) - target) <= 1e-12 * (1.0 + abs(target))


def _scalar_problem(fun, dfun):
    return NlpProblem(
        name="scalar",
        n=1,
        m=0,
        objective=lambda x: fun(x[0]),
        gradient=lambda x: np.array([dfun(x[0])]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 1)),
        hessian=lambda x, y: np.zeros((1, 1)),
    )


def _mstate(mu=1.0, **kw):
    return MeritState(y_E=np.zeros(0), mu=mu, mu_R=mu, **kw)


def _merit(prob, point, state):
    return merit_value(evaluate(prob, point), point, state)


def _search(prob, it, step, dv, state, N_k, R_k, **kw):
    """Search from it, with the start merit computed here as the driver does."""
    return curvilinear_search(prob, it, _merit(prob, it, state), step, dv, state, N_k, R_k, **kw)


def test_search_accepts_full_step():
    prob = _scalar_problem(lambda t: -t, lambda t: -1.0)
    it = make_iterate([1.0], [])
    step = ScaledStep(u=np.zeros(1), w=np.zeros(0), beta=0.0)
    res = _search(prob, it, step, np.array([1.0]), _mstate(), -1.0, 0.0)
    assert res.alpha == 1.0 and res.j == 0
    assert res.accepted.x[0] == 2.0
    assert res.merit_new == -2.0
    assert res.ev.f == -2.0


def test_search_backtracks_once():
    # f(t) = t(t - 0.8) along x = alpha: fails at 1, passes at 1/2
    prob = _scalar_problem(lambda t: t * (t - 0.8), lambda t: 2.0 * t - 0.8)
    it = make_iterate([0.0], [])
    step = ScaledStep(u=np.array([1.0]), w=np.zeros(0), beta=1.0)
    res = _search(prob, it, step, np.zeros(1), _mstate(), 0.0, -1.0)
    assert res.j == 1 and res.alpha == 0.5
    assert res.n_trials == 2


def test_search_rejects_infeasible_trials_without_evaluating():
    calls = []

    def f(t):
        calls.append(t)
        return t

    prob = _scalar_problem(f, lambda t: 1.0)
    it = make_iterate([1.0], [])
    step = ScaledStep(u=np.array([-2.0]), w=np.zeros(0), beta=1.0)
    res = _search(prob, it, step, np.zeros(1), _mstate(), 0.0, -1.0)
    assert res.alpha == 0.5
    assert res.bound_rejections == 1
    # one evaluation at the start point (for the start merit), one at the
    # accepted trial, whose evaluation the search returns
    assert calls == [1.0, 0.0]
    assert res.ev.f == 0.0


def test_search_snaps_roundoff_to_exact_zero():
    prob = _scalar_problem(lambda t: t, lambda t: 1.0)
    it = make_iterate([1.0], [])
    step = ScaledStep(u=np.array([-(1.0 + 5e-14)]), w=np.zeros(0), beta=1.0)
    res = _search(prob, it, step, np.zeros(1), _mstate(), 0.0, -1.0)
    assert res.alpha == 1.0
    assert res.accepted.x[0] == 0.0


def test_search_exhausts_and_raises():
    prob = _scalar_problem(lambda t: t * t, lambda t: 2.0 * t)
    it = make_iterate([1.0], [])
    step = ScaledStep(u=np.array([1.0]), w=np.zeros(0), beta=1.0)
    with pytest.raises(LineSearchFailure) as info:
        _search(prob, it, step, np.zeros(1), _mstate(), 0.0, -1.0, j_max=5)
    assert "6 trials" in str(info.value)


def test_search_rejects_positive_model_quantities():
    prob = _scalar_problem(lambda t: t, lambda t: 1.0)
    it = make_iterate([1.0], [])
    step = ScaledStep(u=np.zeros(1), w=np.zeros(0), beta=0.0)
    with pytest.raises(ValueError):
        _search(prob, it, step, np.ones(1), _mstate(), 1e-9, 0.0)
    with pytest.raises(ValueError):
        _search(prob, it, step, np.ones(1), _mstate(), 0.0, 1e-9)


def test_penalty_update_keeps_mu_on_decrease():
    prob = get_problem("saddle-line")
    state = _state([1.0], 1.0)
    previous = make_iterate([1.0, 1.0], [1.0])
    accepted = make_iterate([1.5, 0.5], [1.0])  # f drops from 1 to 0.75, c stays 0
    m_acc, m_prev = _merit(prob, accepted, state), _merit(prob, previous, state)
    assert penalty_update(m_acc, m_prev, state, 1.0, 0.0, 0.0, 0.4) == 1.0


def test_penalty_update_drops_to_half():
    prob = get_problem("saddle-line")
    state = _state([1.0], 1.0)
    previous = make_iterate([1.5, 0.5], [1.0])
    accepted = make_iterate([1.0, 1.0], [1.0])  # merit increases
    m_acc, m_prev = _merit(prob, accepted, state), _merit(prob, previous, state)
    assert penalty_update(m_acc, m_prev, state, 1.0, 0.0, 0.0, 0.4) == 0.5


def test_penalty_update_floors_at_regularization():
    prob = get_problem("saddle-line")
    state = _state([1.0], 0.6)
    previous = make_iterate([1.5, 0.5], [1.0])
    accepted = make_iterate([1.0, 1.0], [1.0])
    m_acc, m_prev = _merit(prob, accepted, state), _merit(prob, previous, state)
    assert penalty_update(m_acc, m_prev, state, 1.0, 0.0, 0.0, 0.4) == 0.4


def test_penalty_update_damps_step_size():
    # alpha_bar = min(alpha_min, alpha) scales the required decrease; with
    # alpha = 1 the test would fail, the damped one passes
    prob = get_problem("saddle-line")
    state = _state([1.0], 1.0, alpha_min=1e-2)
    previous = make_iterate([1.0, 1.0], [1.0])
    accepted = make_iterate([1.1, 0.9], [1.0])  # merit falls by 0.01
    m_acc, m_prev = _merit(prob, accepted, state), _merit(prob, previous, state)
    kept = penalty_update(m_acc, m_prev, state, 1.0, -8.0, 0.0, 0.4)
    assert kept == 1.0
