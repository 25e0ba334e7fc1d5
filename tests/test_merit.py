import dataclasses

import numpy as np
import pytest

from conftest import DEFAULTS, central_diff, merit_form_instances, merit_state
from curvsqp.curvature import ScaledStep
from curvsqp.errors import EvaluationError, LineSearchFailure
from curvsqp.merit import (
    EPS,
    condense,
    curvilinear_search,
    dual_step,
    merit_gradient,
    merit_value,
    penalty_update,
)
from curvsqp.model import Evaluation, NlpProblem, evaluate, make_iterate
from curvsqp.oracle import merit_hessian
from curvsqp.problems import get_problem


def _state(y_E, mu, **kw):
    y_E = np.atleast_1d(np.asarray(y_E, dtype=float))
    return merit_state(y_E=y_E, mu=mu, **kw)


def _synthetic_eval(H, J):
    m, n = J.shape
    return Evaluation(f=0.0, c=np.zeros(m), g=np.zeros(n), J=J, H=H,
                      h_scale=float(np.max(np.abs(H), initial=0.0)))


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
    state = merit_state(y_E=np.zeros(0), mu=0.4)
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

        fd = central_diff(m_of, np.concatenate([it.x, it.y]), 1e-5)
        scale = 1.0 + np.max(np.abs(fd))
        assert np.max(np.abs(grad - fd)) <= 1e-6 * scale


def test_hessian_unconstrained_is_curvature_block():
    ev = _synthetic_eval(np.array([[2.0]]), np.zeros((0, 1)))
    state = merit_state(y_E=np.zeros(0), mu=1.0)
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
    v = np.concatenate([it.x, it.y])
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        hi = make_iterate(v[:2] + e[:2], v[2:] + e[2:])
        lo = make_iterate(v[:2] - e[:2], v[2:] - e[2:])
        col = (
            merit_gradient(evaluate(prob, hi), hi, state)
            - merit_gradient(evaluate(prob, lo), lo, state)
        ) / (2.0 * step)
        assert np.max(np.abs(col - H_M[:, i])) <= 1e-5 * (1.0 + np.max(np.abs(col)))


def test_stacked_form_collapses_to_primal_form():
    """(u, -(1/mu)Ju) against the merit Hessian equals the penalized form."""
    for H, J, mu, nu, u in merit_form_instances(77, 200):
        state = merit_state(y_E=np.zeros(J.shape[0]), mu=mu, nu=nu)
        H_M = merit_hessian(_synthetic_eval(H, J), state, H)
        w = -(J @ u) / mu
        v = np.concatenate([u, w])
        target = u @ H @ u + (J @ u) @ (J @ u) / mu
        assert abs(v @ (H_M @ v) - target) <= 1e-12 * (1.0 + abs(target))


def test_condensed_model_is_the_stacked_model_least_over_q():
    """At (p, dual_step(p)) the stacked model's q-gradient vanishes and its
    value is the condensed model's."""
    rng = np.random.default_rng(78)
    for H, J, mu, nu, p in merit_form_instances(78, 200):
        m, n = J.shape
        ev = Evaluation(f=0.0, c=rng.normal(size=m), g=rng.normal(size=n), J=J, H=H,
                        h_scale=float(np.max(np.abs(H))))
        it = make_iterate(np.ones(n), rng.normal(size=m))
        state = merit_state(y_E=rng.normal(size=m), mu=mu, nu=nu)
        grad, constant = condense(ev, it, state)
        dv = np.concatenate([p, dual_step(ev, it, state, p)])
        H_M = merit_hessian(ev, state, H)
        grad_M = merit_gradient(ev, it, state)
        size = 1.0 + np.max(np.abs(grad_M)) + np.max(np.abs(H_M)) * np.max(np.abs(dv))
        assert np.max(np.abs((grad_M + H_M @ dv)[n:])) <= 1e-12 * size
        stacked = grad_M @ dv + 0.5 * dv @ H_M @ dv
        G = H + (J.T @ J) / mu
        condensed = grad @ p + 0.5 * p @ G @ p + constant
        assert abs(stacked - condensed) <= 1e-12 * size * (1.0 + np.max(np.abs(dv)))


def test_condensed_model_without_constraints_is_the_plain_model():
    prob = get_problem("cosine-saddle")
    it = make_iterate([1.0, 3.0], [])
    ev = evaluate(prob, it)
    state = merit_state(y_E=np.zeros(0), mu=0.4)
    grad, constant = condense(ev, it, state)
    np.testing.assert_array_equal(grad, ev.g)
    assert constant == 0.0
    assert dual_step(ev, it, state, np.ones(2)).shape == (0,)


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
    return merit_state(y_E=np.zeros(0), mu=mu, **kw)


def _merit(prob, point, state):
    return merit_value(evaluate(prob, point), point, state)


def _search(prob, it, step, dv, state, N_k, R_k, j_max=DEFAULTS.j_max):
    """Search from it, with the start merit computed here as the driver does."""
    return curvilinear_search(prob, it, _merit(prob, it, state), step, dv, state, N_k, R_k, j_max)


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
    # NaN too, before any trial is evaluated
    calls = []

    def f(t):
        calls.append(t)
        return t

    prob = _scalar_problem(f, lambda t: 1.0)
    it = make_iterate([1.0], [])
    step = ScaledStep(u=np.zeros(1), w=np.zeros(0), beta=0.0)
    for N_k, R_k in [(1e-9, 0.0), (0.0, 1e-9), (np.nan, 0.0), (0.0, np.nan)]:
        with pytest.raises(ValueError, match="nonpositive"):
            curvilinear_search(prob, it, 1.0, step, np.ones(1), _mstate(), N_k, R_k, DEFAULTS.j_max)
    assert calls == []


@pytest.mark.parametrize("eta_S, j", [(0.25, 2), (0.9, 5)])
def test_search_accepts_a_curvature_step_with_zero_slope(eta_S, j):
    # f(t) = -(t - 1)^2 / 2 + (t - 1)^3 from t = 1 along u = 1: the slope
    # is zero and the curvature gain -alpha^2 / 2 is blocked by the cubic
    # for alpha > 1/2. A bound of alpha eta_S R_k is missed by every
    # alpha; alpha^2 eta_S R_k / 2 is met once alpha <= (1 - eta_S) / 2
    prob = _scalar_problem(
        lambda t: -0.5 * (t - 1.0) ** 2 + (t - 1.0) ** 3,
        lambda t: -(t - 1.0) + 3.0 * (t - 1.0) ** 2,
    )
    it = make_iterate([1.0], [])
    step = ScaledStep(u=np.ones(1), w=np.zeros(0), beta=1.0)
    state = _mstate(eta_S=eta_S)
    res = _search(prob, it, step, np.zeros(1), state, 0.0, -1.0)
    assert res.j == j and res.alpha == 2.0 ** -j
    assert res.merit_new < 0.0


def test_search_does_not_ask_for_a_decrease_below_rounding():
    # every point but x = 85 measures one ulp above f(85), so no trial can
    # show the model decrease -1e-12 alpha^2 eta_S; without the relaxation
    # the first trial accepted is the one that rounds back onto x = 85
    f85 = 85.0

    def f(t):
        return f85 if t == 85.0 else float(np.nextafter(f85, np.inf))

    prob = _scalar_problem(f, lambda t: 1.0)
    it = make_iterate([85.0], [])
    step = ScaledStep(u=np.zeros(1), w=np.zeros(0), beta=0.0)
    res = curvilinear_search(
        prob, it, f85, step, np.array([1e-3]), _mstate(), -1e-12, 0.0, DEFAULTS.j_max
    )
    assert res.j == 1
    assert res.accepted.x[0] == 85.0 + 0.25e-3 != 85.0


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


@pytest.mark.parametrize("merit_new, kept", [(-6e-5, True), (-4e-5, False)])
def test_penalty_update_pairs_the_curvature_gain_with_alpha_squared(merit_new, kept):
    # alpha_bar = 1e-2: the bound is alpha_bar^2 eta_S (N_k + R_k / 2) =
    # -5e-5. Without the half it would be -7.5e-5, with R_k paired with
    # alpha_bar -5.025e-3, and with N_k alone -2.5e-5
    state = _mstate(alpha_min=1e-2, eta_S=0.25)
    mu = penalty_update(merit_new, 0.0, state, 1.0, -1.0, -2.0, 0.25)
    assert mu == (1.0 if kept else 0.5)


def _arc_problem(n, m, seed):
    """w @ cos(x) subject to B x + 0.1 |x|^2 = d; the callbacks are exact."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n)
    B = rng.normal(size=(m, n))
    d = rng.normal(size=m)
    return NlpProblem(
        name="arc",
        n=n,
        m=m,
        objective=lambda x: float(w @ np.cos(x)),
        gradient=lambda x: -w * np.sin(x),
        constraints=lambda x: B @ x + 0.1 * float(x @ x) - d,
        jacobian=lambda x: B + 0.2 * x,
        hessian=lambda x, y: np.diag(-w * np.cos(x)) + 0.2 * float(np.sum(y)) * np.eye(n),
    )


def _scripted(prob, script):
    """prob with an objective that counts its calls; script(k, f) gives the
    value of call k (0-based) from the true value f, or raises."""
    calls = []

    def objective(x):
        calls.append(1)
        return script(len(calls) - 1, prob.objective(x))

    return dataclasses.replace(prob, objective=objective), calls


def _arc(n, m, seed, x_low=0.5):
    """A start, an arc and a merit state, with N_k, R_k <= 0."""
    rng = np.random.default_rng(seed)
    it = make_iterate(rng.uniform(x_low, x_low + 1.5, n), rng.normal(size=m))
    step = ScaledStep(u=rng.normal(size=n), w=rng.normal(size=m), beta=1.0)
    dv = rng.normal(size=n + m) * rng.uniform(0.1, 1.0)
    state = merit_state(
        y_E=rng.normal(size=m), mu=float(rng.uniform(0.05, 1.0)),
        nu=float(rng.uniform(0.5, 2.0)), eta_S=float(rng.uniform(0.1, 0.5)),
    )
    N_k, R_k = -float(rng.uniform(0.0, 2.0)), -float(rng.uniform(0.0, 2.0))
    return it, step, dv, state, N_k, R_k


def _outcome(prob, script, it, step, dv, state, N_k, R_k, j_max=DEFAULTS.j_max):
    """The search's LineSearchResult, or the error it raised, with the
    number of objective calls it made."""
    counted, calls = _scripted(prob, script)
    merit_old = _merit(prob, it, state)
    try:
        res = curvilinear_search(counted, it, merit_old, step, dv, state, N_k, R_k, j_max=j_max)
    except (LineSearchFailure, EvaluationError) as exc:
        return exc, len(calls)
    return res, len(calls)


def _accept_at(k):
    """Reject every trial before objective call k, accept from call k on."""
    return lambda call, f: -1e6 if call >= k else 1e6


# The six test_block_search_* tests below check curvilinear_search alone
# through _outcome; no block search or reference search exists, and the
# names are kept so that the suite's test ids stay stable. They check the
# acceptance inequality on random arcs, acceptance at the first passing
# trial, failure after j_max + 1 trials, the bound to the last bit, bound
# rejections with the roundoff snap, and a callback error's counts.
@pytest.mark.parametrize("m", [0, 2])
def test_block_search_matches_the_reference_on_random_arcs(m):
    # natural outcomes, accepted at various j, some after bound rejections;
    # each is checked against the acceptance inequality and a fresh
    # evaluation of the point it returns
    js, rejections = set(), 0
    for seed in range(60):
        n = 1 + seed % 6
        prob = _arc_problem(n, m, seed)
        it, step, dv, state, N_k, R_k = arc = _arc(n, m, seed, x_low=0.05 if seed % 2 else 0.5)
        res, calls = _outcome(prob, lambda k, f: f, *arc)
        if isinstance(res, LineSearchFailure):
            diagnostics = res.diagnostics
            assert diagnostics["n_trials"] == 51 == calls + diagnostics["bound_rejections"]
            continue
        assert res.alpha == 2.0 ** -res.j and res.n_trials == res.j + 1
        assert calls == res.n_trials - res.bound_rejections
        assert np.min(res.accepted.x) >= 0.0
        ev = evaluate(prob, res.accepted)
        for name in Evaluation._fields:
            np.testing.assert_array_equal(getattr(res.ev, name), getattr(ev, name))
        merit_old = _merit(prob, it, state)
        assert res.merit_new == merit_value(ev, res.accepted, state)
        relaxed = merit_old + 10.0 * EPS * abs(merit_old)
        assert res.merit_new <= relaxed + res.alpha**2 * state.eta_S * (N_k + 0.5 * R_k)
        js.add(res.j)
        rejections += res.bound_rejections
    assert len(js) >= 3 and rejections > 0


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize(
    "j_max, accept", [(50, 0), (50, 4), (50, 20), (50, 50), (0, 0), (5, 5), (100, 100)]
)
def test_block_search_accepts_where_the_reference_does(m, j_max, accept):
    arc = _arc(4, m, 7)
    res, calls = _outcome(_arc_problem(4, m, 7), _accept_at(accept), *arc, j_max)
    assert res.j == accept and res.n_trials == accept + 1 and calls == accept + 1


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("j_max", [0, 5, 6, 50])
def test_block_search_fails_as_the_reference_does(m, j_max):
    arc = _arc(4, m, 8)
    exc, calls = _outcome(_arc_problem(4, m, 8), _accept_at(j_max + 1), *arc, j_max)
    assert isinstance(exc, LineSearchFailure)
    diagnostics = exc.diagnostics
    assert diagnostics["n_trials"] == j_max + 1 == calls + diagnostics["bound_rejections"]


@pytest.mark.parametrize("accept", [3, 12, 40])
def test_block_search_tests_the_reference_bound_to_the_last_bit(accept):
    # with m = 0 the merit is f: each trial's f is set to the right-hand
    # side for its alpha, merit_old + 10 eps |merit_old| + alpha^2 eta_S
    # (N_k + R_k / 2), one ulp above it before the accepted trial and
    # exactly on it there
    for seed in range(100, 120):
        prob, arc = _arc_problem(4, 0, seed), _arc(4, 0, seed, x_low=10.0)
        merit_old = _merit(prob, arc[0], arc[3])
        eta_S, N_k, R_k = arc[3].eta_S, arc[4], arc[5]

        def script(call, f, merit_old=merit_old, eta_S=eta_S, N_k=N_k, R_k=R_k):
            alpha = 2.0 ** (-call)
            relaxed = merit_old + 10.0 * EPS * abs(merit_old)
            rhs = relaxed + alpha * alpha * eta_S * (N_k + 0.5 * R_k)
            return rhs if call == accept else float(np.nextafter(rhs, np.inf))

        res, _ = _outcome(prob, script, *arc)
        assert res.j == accept and res.bound_rejections == 0


@pytest.mark.parametrize("m", [0, 2])
def test_block_search_rejects_and_snaps_as_the_reference_does(m):
    prob = _arc_problem(3, m, 9)
    it, step, dv, state, N_k, R_k = _arc(3, m, 9)
    x = np.array([1.0, 0.5, 2.0])
    it = make_iterate(x, it.y)
    # x_0 + alpha u_0 < 0 for alpha > 1/4: j = 0, 1 lie below the bound
    u = np.array([-4.0 * (1.0 + 1e-14), 0.3, -0.2])
    arc = (it, ScaledStep(u=u, w=step.w, beta=1.0), np.zeros(3 + m), state, N_k, R_k)
    res, calls = _outcome(prob, _accept_at(0), *arc)
    assert (res.j, res.bound_rejections, calls) == (2, 2, 1)
    # j = 2 lands about 1e-14 below zero, within the roundoff band: snapped
    assert res.accepted.x[0] == 0.0
    res, calls = _outcome(prob, _accept_at(2), *arc)
    assert (res.j, res.bound_rejections, calls) == (4, 2, 3)


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("k", [0, 1, 4, 30])
def test_block_search_raises_where_the_reference_does(m, k):
    def script(call, f):
        if call == k:
            raise RuntimeError(f"no objective at call {call}")
        return 1e6

    exc, calls = _outcome(_arc_problem(4, m, 10), script, *_arc(4, m, 10))
    assert isinstance(exc, EvaluationError) and f"call {k}" in str(exc)
    assert calls == k + 1
    # the error carries the search's counts, the failing trial included
    assert exc.diagnostics["n_trials"] == calls + exc.diagnostics["bound_rejections"]
