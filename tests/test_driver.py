import dataclasses
import inspect

import numpy as np
import pytest

import curvsqp.driver as driver
from conftest import quadric_sphere_instances
from curvsqp.classify import initial_state
from curvsqp.cli import write_log
from curvsqp.curvature import curvature_form, refresh_direction, scale
from curvsqp.driver import (
    SolveStatus,
    SolverConfig,
    second_order_certificate,
    solve,
)
from curvsqp.errors import EvaluationError, FactorizationBreakdown, QpFailure, QpInternalError
from curvsqp.factor import convexify
from curvsqp.merit import MeritState, curvilinear_search
from curvsqp.model import NlpProblem, evaluate, make_iterate
from curvsqp.problems import get_problem
from curvsqp.qpstep import solve_qp
from curvsqp.workset import estimate
from reference import certify_reference


# the IterationRecord fields that only a step fills in
STEP_FIELDS = (
    "alpha", "norm_p", "norm_u", "norm_dv", "N_k", "R_k",
    "theta", "cholesky_attempts", "trials", "bound_rejections",
)


def _unconstrained(name, f, g, H, x0):
    return NlpProblem(
        name=name,
        n=len(x0),
        m=0,
        objective=f,
        gradient=g,
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, len(x0))),
        hessian=H,
        x0=np.asarray(x0, dtype=float),
        y0=np.zeros(0),
    )


def test_convex_problem_converges_without_curvature_steps():
    result = solve(get_problem("convex-qp"))
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    np.testing.assert_allclose(result.iterate.x, [7.0 / 6.0, 5.0 / 6.0], atol=1e-6)
    assert result.f == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert result.iterations <= 50
    assert all(rec.norm_u == 0.0 for rec in result.history)


def test_cosine_saddle_escapes_through_curvature():
    # the start has an exactly zero gradient, so only the curvature
    # direction can move the iterate off the saddle
    result = solve(get_problem("cosine-saddle"))
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    assert result.f == pytest.approx(-1.0, abs=1e-6)
    assert result.iterate.x[1] == pytest.approx(1.0, abs=1e-4)
    dist = min(abs(result.iterate.x[0] - np.pi), abs(result.iterate.x[0] - 3 * np.pi))
    assert dist < 1e-3
    assert any(rec.norm_u > 0.0 for rec in result.history)


def test_saddle_line_slides_to_a_vertex():
    result = solve(get_problem("saddle-line"))
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    x = result.iterate.x
    assert abs(x[0] + x[1] - 2.0) <= 1e-7
    assert min(x) <= 1e-7
    assert result.f <= 1e-6


def test_disabling_curvature_stalls_on_the_saddle():
    config = SolverConfig(enable_curvature=False)
    result = solve(get_problem("cosine-saddle"), config=config)
    assert result.status is SolveStatus.FIRST_ORDER_ONLY
    assert result.status.exit_code == 2
    np.testing.assert_allclose(result.iterate.x, [2.0 * np.pi, 1.0], atol=1e-8)


def test_one_curvature_step_already_lowers_the_objective():
    config = SolverConfig(max_iterations=1)
    result = solve(get_problem("cosine-saddle"), config=config)
    assert result.status is SolveStatus.ITERATION_LIMIT
    assert result.status.exit_code == 3
    assert result.f < 1.0 - 1e-6


def test_every_evaluation_respects_the_bounds():
    base = get_problem("saddle-line")
    seen = []

    def logged(x):
        seen.append(np.array(x, copy=True))
        return base.objective(x)

    probe = NlpProblem(
        name=base.name,
        n=base.n,
        m=base.m,
        objective=logged,
        gradient=base.gradient,
        constraints=base.constraints,
        jacobian=base.jacobian,
        hessian=base.hessian,
        x0=base.x0,
        y0=base.y0,
    )
    solve(probe)
    assert seen
    assert min(float(np.min(x)) for x in seen) >= 0.0


def _simplex_indefinite():
    # indefinite QP on {x0 + x1 + x2 = 3, x >= 0} from x = 1: one
    # curvature step, then QP steps, each accepted at its first trial
    Q = np.array([[6.0, 12.0, 3.0], [12.0, 12.0, -9.0], [3.0, -9.0, 6.0]])
    b = np.array([-1.0, 2.0, 3.0])
    return NlpProblem(
        name="simplex-indefinite",
        n=3,
        m=1,
        objective=lambda x: 0.5 * float(x @ (Q @ x)) + float(b @ x),
        gradient=lambda x: Q @ x + b,
        constraints=lambda x: np.array([x.sum() - 3.0]),
        jacobian=lambda x: np.ones((1, 3)),
        hessian=lambda x, y: Q,
        x0=np.ones(3),
        y0=np.zeros(1),
    )


def _two_cosines(x0=(6.26, 6.28)):
    # from near the maximum of cos x1 + 1.7 cos x2 the second and third
    # searches reject their first trial and accept the second
    w = np.array([1.0, 1.7])
    return _unconstrained(
        "two-cosines",
        lambda x: float(w @ np.cos(x)),
        lambda x: -w * np.sin(x),
        lambda x, y: np.diag(-w * np.cos(x)),
        list(x0),
    )


_CASES = {
    "simplex-indefinite": _simplex_indefinite,
    "two-cosines": _two_cosines,
    "two-cosines-arc-failure": lambda: _two_cosines((6.2, 6.28)),
}
_CONFIGS = {"two-cosines-arc-failure": SolverConfig(j_max=0)}


def _problem(name):
    return _CASES[name]() if name in _CASES else get_problem(name)


@pytest.mark.parametrize(
    "name, points, hessians",
    [
        ("convex-qp", 8, 8),
        ("cosine-saddle", 7, 6),
        ("saddle-line", 5, 5),
        ("simplex-indefinite", 8, 9),
        ("two-cosines", 9, 7),
        ("two-cosines-arc-failure", 3, 2),
    ],
)
def test_each_point_is_evaluated_once(name, points, hessians):
    base = _problem(name)
    calls = dict.fromkeys(
        ("objective", "constraints", "gradient", "jacobian", "hessian"), 0
    )

    def counted(key):
        def callback(*args):
            calls[key] += 1
            return getattr(base, key)(*args)

        return callback

    problem = dataclasses.replace(base, **{key: counted(key) for key in calls})
    result = solve(problem, config=_CONFIGS.get(name))
    # f and c at the start point, then at every trial of every search,
    # failed ones included, that the bounds did not reject
    assert calls["objective"] == calls["constraints"]
    assert calls["objective"] == 1 + sum(
        rec.trials - rec.bound_rejections for rec in result.history
    )
    # g, J and H at the start point and at each accepted trial only
    stepped = [
        rec for rec in result.history
        if rec.alpha > 0.0 and (rec.norm_dv > 0.0 or rec.norm_u > 0.0)
    ]
    assert calls["gradient"] == calls["jacobian"] == 1 + len(stepped)
    # plus one Hessian at the merit's multiplier per curvature step when
    # there are constraints not declared linear
    curvature_steps = sum(1 for rec in result.history if rec.norm_u > 0.0)
    extra = curvature_steps if base.m and not base.linear_constraints else 0
    assert calls["hessian"] == 1 + len(stepped) + extra
    assert (calls["objective"], calls["hessian"]) == (points, hessians)


@pytest.mark.parametrize(
    "name", ["convex-qp", "cosine-saddle", "saddle-line", "simplex-indefinite"]
)
def test_seeded_certification_changes_no_record(name, monkeypatch):
    problem = _problem(name)
    certify = driver._certified_hessian
    references = []

    def recorded(H_tilde, J, mu, bump_rows, h_scale, theta_prev):
        references.append(certify_reference(H_tilde, J, mu, bump_rows, h_scale)[1])
        return certify(H_tilde, J, mu, bump_rows, h_scale, theta_prev)

    monkeypatch.setattr(driver, "_certified_hessian", recorded)
    seeded = solve(problem)
    # the same solve with every search started from theta = 0
    monkeypatch.setattr(driver, "_certified_hessian", lambda *args: certify(*args[:5]))
    unseeded = solve(problem)

    def uncounted(history):
        return [dataclasses.replace(rec, cholesky_attempts=0) for rec in history]

    assert seeded.status is unseeded.status is SolveStatus.SECOND_ORDER_OPTIMAL
    assert uncounted(seeded.history) == uncounted(unseeded.history)
    np.testing.assert_array_equal(seeded.iterate.x, unseeded.iterate.x)
    # one certification per step, in record order; the last record made none
    made = len(seeded.history) - 1
    assert len(references) == made
    assert [rec.theta for rec in seeded.history[:made]] == references
    assert all(rec.cholesky_attempts > 0 for rec in seeded.history[:made])
    assert (seeded.history[-1].theta, seeded.history[-1].cholesky_attempts) == (0.0, 0)
    attempts = [sum(rec.cholesky_attempts for rec in r.history) for r in (seeded, unseeded)]
    assert attempts[0] <= attempts[1]


def test_gradient_failing_at_rejected_trials_does_not_end_the_solve():
    base = _two_cosines()
    reference = solve(base)
    assert any(rec.trials > 1 for rec in reference.history)
    # the start point and every accepted point, the last one included
    kept = [rec.x for rec in reference.history]

    def gradient(x):
        if not any(np.array_equal(x, point) for point in kept):
            raise RuntimeError("no gradient away from the accepted points")
        return base.gradient(x)

    result = solve(dataclasses.replace(base, gradient=gradient))
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    assert result.history == reference.history
    np.testing.assert_array_equal(result.iterate.x, reference.iterate.x)


@pytest.mark.parametrize(
    "bad, text",
    [
        (lambda x: np.array([np.nan]), "non-finite"),
        # the id stays stable for runs compared test by test
        pytest.param(lambda x: np.zeros(2), "constraints returned shape (2,), expected (1,)",
                     id="<lambda>-constraints have shape"),
    ],
)
def test_bad_constraints_at_a_trial_is_an_evaluation_error(bad, text):
    base = _simplex_indefinite()
    calls = []

    def constraints(x):
        # the start point is evaluated once, so the second call is the
        # first trial of the first search
        calls.append(1)
        return base.constraints(x) if len(calls) == 1 else bad(x)

    result = solve(dataclasses.replace(base, constraints=constraints))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert text in result.message
    _assert_first_step_failed(result, trials=1)
    # the start point and the trial that raised, which the record counts
    assert len(calls) == 1 + result.history[0].trials


def _assert_first_step_failed(result, trials):
    # the failing step closes the one record, after its certification;
    # its counts are the trials its search evaluated, the failing one too
    (record,) = result.history
    assert record.cls == "-"
    assert record.alpha == 0.0
    assert (record.trials, record.bound_rejections) == (trials, 0)
    assert record.cholesky_attempts >= 1
    assert result.eta == record.eta


def test_cholesky_attempts_count_every_factorization_of_a_failing_solve(monkeypatch):
    base = _simplex_indefinite()
    calls, factorizations = [], []
    cholesky = np.linalg.cholesky

    def constraints(x):
        calls.append(1)
        return base.constraints(x) if len(calls) == 1 else np.array([np.nan])

    def counted(a):
        factorizations.append(1)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    result = solve(dataclasses.replace(base, constraints=constraints))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert factorizations
    assert sum(rec.cholesky_attempts for rec in result.history) == len(factorizations)


class _OwnEvaluationError(EvaluationError):
    pass


def test_an_evaluation_error_subclass_at_a_trial_is_an_evaluation_error():
    base = _simplex_indefinite()
    calls = []

    def objective(x):
        # the second call is the first trial of the first search
        calls.append(1)
        if len(calls) > 1:
            raise _OwnEvaluationError("own text")
        return base.objective(x)

    result = solve(dataclasses.replace(base, objective=objective))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert result.message == "own text"
    _assert_first_step_failed(result, trials=1)


def _hessian_failing_above_zero(failure):
    base = get_problem("saddle-line")

    def hessian(x, y):
        if y[0] > 0.0:
            return failure()
        return base.hessian(x, y)

    # undeclared, so the merit multiplier's Hessian is asked for
    return dataclasses.replace(base, hessian=hessian, linear_constraints=False)


def _raise():
    raise RuntimeError("no Hessian for positive arguments")


@pytest.mark.parametrize("failure", [lambda: np.full((2, 2), np.nan), _raise])
def test_bad_merit_multiplier_hessian_is_an_evaluation_error(failure):
    # from the infeasible start (1.2, 1.2) with y = 1 the callback sees
    # -y = -1 at the start point, and -w = 7 at the merit multiplier
    # w = pi + nu (pi - y) of the first curvature step, whose Hessian
    # must be checked too
    start = make_iterate([1.2, 1.2], [1.0])
    result = solve(_hessian_failing_above_zero(failure), start)
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert result.message.startswith("saddle-line: ")
    # the first curvature step fails before its search and closes its record
    _assert_first_step_failed(result, trials=0)
    np.testing.assert_array_equal(result.iterate.x, start.x)
    assert result.f == get_problem("saddle-line").objective(result.iterate.x)


def _steep_cubic():
    # f = -1e9 x^3 on x = 3: the Hessian outgrows the pivot threshold
    # until no dual pivot is admissible, three iterations in
    return NlpProblem(
        name="steep-cubic",
        n=1,
        m=1,
        objective=lambda x: float(-1e9 * x[0] ** 3),
        gradient=lambda x: np.array([-3e9 * x[0] ** 2]),
        constraints=lambda x: np.array([x[0] - 3.0]),
        jacobian=lambda x: np.array([[1.0]]),
        hessian=lambda x, y: np.array([[-6e9 * x[0]]]),
        x0=np.array([1.0]),
        y0=np.zeros(1),
    )


def test_breakdown_is_a_status_that_keeps_the_history():
    result = solve(_steep_cubic())
    assert result.status is SolveStatus.FACTORIZATION_BREAKDOWN
    assert result.message == "dual rows left unpivoted at the stage-1 stopping point"
    assert [rec.k for rec in result.history] == [0, 1, 2]
    assert np.isfinite(result.f)
    # the breakdown comes before the final iterate is measured
    assert np.isnan(result.eta) and np.isnan(result.curv_ratio)


def test_certificate_still_raises_on_breakdown():
    # at x = 3 the threshold is 1.8e-2, above the dual diagonal -1e-3
    with pytest.raises(FactorizationBreakdown):
        second_order_certificate(_steep_cubic(), make_iterate([3.0], [0.0]), 1e-3)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("x", [[1.0, 1.0], [0.0, 0.0]], ids=["free", "all-active"])
def test_certificate_rejects_a_penalty_that_is_not_finite_and_positive(x, mu):
    # at the origin every variable is active, so build_kkt never runs
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        second_order_certificate(get_problem("saddle-line"), make_iterate(x, [1.0]), mu)


@pytest.mark.parametrize(
    "x, match",
    [([-1.0, 1.0], "start point violates the nonnegativity bounds"),
     ([1.0, 1.0, 1.0], "start point dimensions do not match the problem"),
     ([np.nan, 1.0], "start point is not finite")],
    ids=["violated-bound", "three-vector", "nan-entry"],
)
def test_certificate_rejects_a_point_solve_would_not_start_from(x, match):
    # the point check of solve's start, made before any callback runs;
    # at (-1, 1) the analysis alone would certify a point outside the bounds
    with pytest.raises(ValueError, match=match):
        second_order_certificate(get_problem("saddle-line"), make_iterate(x, [1.0]), 1.0)


def _runaway():
    # unbounded quartic: the iterates grow until the objective overflows
    return _unconstrained(
        "runaway",
        lambda x: float(-x[0] ** 4),
        lambda x: np.array([-4.0 * x[0] ** 3]),
        lambda x, y: np.array([[-12.0 * x[0] ** 2]]),
        [2.0],
    )


def test_evaluation_error_keeps_the_history():
    with np.errstate(over="ignore"):
        result = solve(_runaway(), config=SolverConfig(max_iterations=400))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert "non-finite" in result.message
    assert result.history
    assert [rec.k for rec in result.history] == list(range(result.iterations))
    assert np.isfinite(result.f)


def test_failing_start_point_leaves_an_empty_history():
    base = get_problem("cosine-saddle")

    def objective(x):
        raise RuntimeError("no objective here")

    result = solve(dataclasses.replace(base, objective=objective))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert "no objective here" in result.message
    assert result.history == ()
    np.testing.assert_array_equal(result.iterate.x, base.x0)
    for value in (result.f, result.eta, result.omega, result.omega_first, result.curv_ratio):
        assert np.isnan(value)


def test_a_nan_gradient_at_the_start_is_an_evaluation_error():
    problem = dataclasses.replace(get_problem("saddle-line"), gradient=lambda x: np.full(2, np.nan))
    result = solve(problem)
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert result.message == "saddle-line: non-finite evaluator output"


def test_an_infinite_jacobian_at_the_first_accepted_trial_is_an_evaluation_error():
    base = get_problem("saddle-line")
    calls = []

    def jacobian(x):
        calls.append(x)
        return base.jacobian(x) if len(calls) == 1 else np.full((1, 2), np.inf)

    result = solve(dataclasses.replace(base, jacobian=jacobian))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert result.message == "saddle-line: non-finite evaluator output"
    # the start, then the accepted trial of the first step
    assert len(calls) == 2


def test_an_evaluation_error_from_a_callback_keeps_its_text():
    def objective(x):
        raise EvaluationError("custom text")

    result = solve(dataclasses.replace(get_problem("saddle-line"), objective=objective))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert result.message == "custom text"


def test_an_m_label_refreshes_the_direction_at_the_halved_mu_R(monkeypatch):
    # force M at saddle-line's first classified iterate: mu_R halves while
    # the direction exists, so the solve re-measures it at the new mu_R
    classify = driver.classify_iterate
    labels, refreshed = [], []

    def forced(meas, fstate, resid):
        labels.append(classify(meas, fstate, resid) if labels else "M")
        return labels[-1]

    def refresh(direction, H, J, mu):
        refreshed.append(direction)
        return refresh_direction(direction, H, J, mu)

    monkeypatch.setattr(driver, "classify_iterate", forced)
    monkeypatch.setattr(driver, "refresh_direction", refresh)
    problem = get_problem("saddle-line")
    result = solve(problem)
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    assert len(refreshed) == 1
    rec = result.history[1]
    assert rec.cls == "M" and rec.mu_R == 0.05
    # the extracted direction's quotient at mu_R = 0.1, then at 0.05
    u = refreshed[0].u_hat
    assert refreshed[0].rayleigh == -0.9502262443438912
    ev = evaluate(problem, make_iterate(rec.x, rec.y))
    assert rec.curv_ratio == curvature_form(u, ev.H, ev.J, 0.05) / float(u @ u)
    assert rec.curv_ratio == -0.9049773755656108


def _square_jacobian_problem():
    # f = -4 x0 x1 + x2 with rows [x2, x2, x0 + x1 - 2]: m == n == 3
    J = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return NlpProblem(
        name="square-jacobian",
        n=3,
        m=3,
        objective=lambda x: float(-4.0 * x[0] * x[1] + x[2]),
        gradient=lambda x: np.array([-4.0 * x[1], -4.0 * x[0], 1.0]),
        constraints=lambda x: np.array([x[2], x[2], x[0] + x[1] - 2.0]),
        jacobian=lambda x: J,
        hessian=lambda x, y: np.array([[0.0, -4.0, 0.0], [-4.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        x0=np.array([1.2, 0.8, 0.0]),
        y0=np.zeros(3),
    )


def test_square_jacobian_keeps_its_constraint_rows():
    result = solve(_square_jacobian_problem())
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    np.testing.assert_allclose(result.iterate.x, [1.0, 1.0, 0.0], atol=1e-6)
    assert result.f == pytest.approx(-4.0, abs=1e-6)


def test_certificate_with_a_square_jacobian():
    # on the line x0 + x1 = 2 the objective curves upward; without that
    # row the free block [[0, -4], [-4, 0]] would look like a saddle
    ratio, ws, exists = second_order_certificate(
        _square_jacobian_problem(), make_iterate([1.0, 1.0, 0.0], np.zeros(3)), 0.1
    )
    np.testing.assert_array_equal(ws.free, [0, 1])
    assert not exists
    assert ratio == 0.0


def _kink():
    # |x - 1| from the wrong side: the unit step jumps across the kink
    return _unconstrained(
        "kink",
        lambda x: float(abs(x[0] - 1.0)),
        lambda x: np.array([np.sign(x[0] - 1.0)]),
        lambda x, y: np.array([[0.0]]),
        [1.2],
    )


# one solve for each way a solve ends: optimal, an evaluation error
# inside a step, a failed search and a stage-1 breakdown
_ENDINGS = {
    "convex-qp": lambda: solve(get_problem("convex-qp")),
    "runaway": lambda: solve(_runaway(), config=SolverConfig(max_iterations=400)),
    "kink": lambda: solve(_kink(), config=SolverConfig(j_max=0)),
    "steep-cubic": lambda: solve(_steep_cubic()),
}


@pytest.mark.parametrize("ending", _ENDINGS)
def test_history_bookkeeping(ending):
    with np.errstate(over="ignore"):
        result = _ENDINGS[ending]()
    for i, rec in enumerate(result.history):
        assert rec.k == i
        assert rec.mu >= rec.mu_R
        assert len(rec.csv_values()) == 15
    assert result.history[0].cls == "-"
    total = sum(result.class_counts.values())
    assert total == sum(1 for rec in result.history if rec.cls in "SLMF")
    last = result.history[-1]
    if result.status is SolveStatus.FACTORIZATION_BREAKDOWN:
        # the breakdown comes before the final iterate is measured
        assert all(np.isnan(v) for v in (result.eta, result.omega, result.curv_ratio))
    else:
        assert last.alpha == 0.0
        assert (result.eta, result.omega, result.curv_ratio) == (
            last.eta, last.omega, last.curv_ratio)


def test_null_step_keeps_the_point():
    # f = 1e4 x0 + (x1 - 1)^2 / 2 against the bound x0 >= 0: the QP
    # solver counts the start's x1 residual of 5e-7 as converged against
    # the bound multiplier's 1e4, so the step is exactly zero
    calls = []

    def objective(x):
        calls.append(1)
        return float(1e4 * x[0] + 0.5 * (x[1] - 1.0) ** 2)

    problem = _unconstrained(
        "bound-wall",
        objective,
        lambda x: np.array([1e4, x[1] - 1.0]),
        lambda x, y: np.diag([0.0, 1.0]),
        [0.0, 1.0 + 5e-7],
    )
    result = solve(problem, config=SolverConfig(max_iterations=1))
    assert result.status is SolveStatus.ITERATION_LIMIT
    null, after = result.history
    assert null.alpha == 1.0 and null.trials == 0
    assert null.norm_p == null.norm_dv == null.norm_u == 0.0
    # the certification of a diagonal matrix: 7 sign tests
    assert (null.theta, null.cholesky_attempts) == (2e-08, 7)
    assert after.x == null.x
    # the start point only: a null step evaluates nothing
    assert len(calls) == 1


def test_the_penalty_never_falls_below_mu_r():
    """mu >= mu_R on every record, with no floor in solve.

    penalty_update keeps mu or takes max(mu / 2, mu_R), and mu_R never
    rises; a new rule for mu_R must keep this.
    """
    cases = [(get_problem(name), None) for name in ("convex-qp", "cosine-saddle", "saddle-line")]
    cases += list(quadric_sphere_instances(seed=1, count=10))
    cases += [(_two_cosines(), None), (_two_cosines((6.2, 6.28)), None)]
    for problem, v0 in cases:
        history = solve(problem, v0).history
        assert len(history) > 1
        assert all(rec.mu >= rec.mu_R for rec in history), problem.name


def test_certificate_is_vacuous_with_every_variable_active():
    ratio, ws, exists = second_order_certificate(
        get_problem("saddle-line"), make_iterate([0.0, 0.0], [0.0]), 0.1
    )
    assert ws.free.size == 0
    assert not exists
    assert ratio == 0.0


def test_certificate_flags_the_saddle():
    ratio, ws, exists = second_order_certificate(
        get_problem("saddle-line"), make_iterate([1.0, 1.0], [1.0]), 1.0
    )
    assert exists
    assert -1.0 - 1e-12 <= ratio < 0.0


def test_certificate_clean_at_a_minimizer():
    ratio, ws, exists = second_order_certificate(
        get_problem("cosine-saddle"), make_iterate([np.pi, 1.0], []), 0.1
    )
    assert not exists
    assert ratio == 0.0


@pytest.mark.parametrize(
    "setting",
    [
        {"mu0": 0.0},
        {"mu0": float("nan")},
        {"nu": -1.0},
        {"tau0": 0.0},
        {"u_max": float("inf")},
        {"qp_tol": 0.0},
        {"eta_S": 0.0},
        {"eta_S": 1.0},
        {"alpha_min": 0.0},
        {"alpha_min": 1.5},
        {"tol_first": -1e-8},
        {"epsilon_a": -1.0},
        {"margin": float("-inf")},
        {"max_iterations": -1},
        {"max_iterations": 2.5},
        {"j_max": True},
        {"mu0": 10**400},
        {"enable_curvature": "no"},
        {"enable_curvature": None},
        {"mu0": True},
        {"margin": True},
        {"mu0": "0.1"},
        {"tol_first": None},
    ],
)
def test_out_of_range_settings_raise_value_error(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        solve(get_problem("convex-qp"), config=SolverConfig(**setting))


def test_settings_are_stored_as_plain_numbers():
    given = {
        "mu0": np.float64(0.1),
        "tau0": np.float32(0.125),
        "nu": 1,
        "max_iterations": np.int64(5),
    }
    config = SolverConfig(**given)
    types = {f.name: f.type for f in dataclasses.fields(SolverConfig)}
    for name, value in given.items():
        stored = getattr(config, name)
        assert type(stored) is types[name]
        assert stored == value
    # a single-precision setting no longer makes the records single precision
    rec = solve(get_problem("saddle-line"), config=SolverConfig(mu0=np.float32(0.125))).history[1]
    assert all(type(v) is float for v in (rec.mu, rec.mu_R, rec.tau, rec.N_k))


def test_integer_settings_write_the_log_of_their_float_values(tmp_path):
    logs = []
    for value in (1, 1.0):
        result = solve(get_problem("saddle-line"), config=SolverConfig(mu0=value, tau0=value))
        logs.append(tmp_path / f"{type(value).__name__}.csv")
        write_log(logs[-1], result.history)
    assert logs[0].read_bytes() == logs[1].read_bytes()


# settings whose default once was copied below the driver: (function, its
# parameter, the SolverConfig field)
_COPIED_DEFAULTS = [
    (estimate, "epsilon_a", "epsilon_a"),
    (convexify, "margin", "margin"),
    (scale, "u_max", "u_max"),
    (curvilinear_search, "j_max", "j_max"),
    (solve_qp, "tol", "qp_tol"),
    (initial_state, "tau", "tau0"),
    (second_order_certificate, "epsilon_a", "epsilon_a"),
]


@pytest.mark.parametrize(
    "function, parameter, field",
    _COPIED_DEFAULTS,
    ids=[f"{fn.__name__}-{parameter}" for fn, parameter, _ in _COPIED_DEFAULTS],
)
def test_function_defaults_equal_the_solver_config_defaults(monkeypatch, function, parameter, field):
    # the function holds no default of its own: the value it works with
    # under the default config is SolverConfig's, passed down by the driver
    problem = get_problem("saddle-line")
    if function is second_order_certificate:
        assert parameter not in inspect.signature(function).parameters
        # it analyzes under SolverConfig(), whose epsilon_a reaches estimate
        function, run = estimate, lambda: second_order_certificate(
            problem, make_iterate(problem.x0, np.zeros(problem.m)), 0.1
        )
    else:
        default = inspect.signature(function).parameters[parameter].default
        assert default is inspect.Parameter.empty
        run = lambda: solve(problem)
    received = []

    def spy(*args, **kwargs):
        received.append(inspect.signature(function).bind(*args, **kwargs).arguments[parameter])
        return function(*args, **kwargs)

    monkeypatch.setattr(driver, function.__name__, spy)
    run()
    assert received
    assert all(value == getattr(SolverConfig(), field) for value in received)


@pytest.mark.parametrize("field", ["nu", "eta_S", "alpha_min"])
def test_merit_state_defaults_equal_the_solver_config_defaults(monkeypatch, field):
    # MeritState has no default for the field; every state the solve
    # builds carries SolverConfig's value
    assert field not in MeritState._field_defaults
    merit_state = driver._merit_state
    built = []

    def spy(source, mu, config):
        built.append(merit_state(source, mu, config))
        return built[-1]

    monkeypatch.setattr(driver, "_merit_state", spy)
    solve(get_problem("saddle-line"))
    assert built
    assert all(getattr(state, field) == getattr(SolverConfig(), field) for state in built)


def test_settings_at_the_ends_of_their_ranges_are_accepted():
    SolverConfig(
        tol_first=0.0, tol_second=0.0, tol_constraint=0.0, max_iterations=0,
        epsilon_a=0.0, alpha_min=1.0, margin=0.0, j_max=0,
    )


def test_solve_rejects_bad_start_points():
    problem = get_problem("convex-qp")
    with pytest.raises(ValueError):
        solve(problem, v0=make_iterate([1.0, 1.0, 1.0], [0.0]))
    with pytest.raises(ValueError):
        solve(problem, v0=make_iterate([-1.0, 1.0], [0.0]))
    # the right length in two dimensions is still the wrong shape
    for x, y in ((np.ones((2, 1)), [0.0]), ([1.0, 1.0], [[0.0]])):
        with pytest.raises(ValueError, match="start point dimensions"):
            solve(problem, v0=make_iterate(x, y))
    anon = _unconstrained(
        "anon",
        lambda x: float(x[0] ** 2),
        lambda x: np.array([2.0 * x[0]]),
        lambda x, y: np.array([[2.0]]),
        [1.0],
    )
    anon = NlpProblem(**{**anon.__dict__, "x0": None})
    with pytest.raises(ValueError):
        solve(anon)


_TWO_ROWS_J = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])


def _two_rows():
    # n = 3, m = 2: the transposed Jacobian has as many entries as J
    b = _TWO_ROWS_J @ np.ones(3)
    return NlpProblem(
        name="two-rows",
        n=3,
        m=2,
        objective=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: x.copy(),
        constraints=lambda x: _TWO_ROWS_J @ x - b,
        jacobian=lambda x: _TWO_ROWS_J,
        hessian=lambda x, y: np.eye(3),
        x0=np.full(3, 2.0),
        y0=np.zeros(2),
    )


@pytest.mark.parametrize(
    "callback, bad, shapes",
    [
        ("jacobian", lambda x: _TWO_ROWS_J.T, "(3, 2), expected (2, 3)"),
        ("gradient", lambda x: x[:, None].copy(), "(3, 1), expected (3,)"),
        ("constraints", lambda x: np.zeros((2, 1)), "(2, 1), expected (2,)"),
        ("objective", lambda x: np.array([0.5 * float(x @ x)]), "(1,), expected ()"),
        ("hessian", lambda x, y: np.eye(3).ravel(), "(9,), expected (3, 3)"),
    ],
    ids=["jacobian-transposed", "gradient-column", "constraints-column", "objective-vector",
         "hessian-flat"],
)
def test_a_callback_value_of_the_wrong_shape_is_an_evaluation_error(callback, bad, shapes):
    # each value has the right size, so only a reshape could take it
    base = _two_rows()
    assert solve(base).status is SolveStatus.SECOND_ORDER_OPTIMAL
    result = solve(dataclasses.replace(base, **{callback: bad}))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert result.message == f"two-rows: {callback} returned shape {shapes}"
    assert result.history == ()


@pytest.mark.parametrize(
    "x, y",
    [([np.nan, 1.0], [0.0]), ([np.inf, 1.0], [0.0]), ([-np.inf, 1.0], [0.0]),
     ([1.0, 1.0], [np.nan]), ([1.0, 1.0], [-np.inf])],
    ids=["nan-x", "inf-x", "minus-inf-x", "nan-y", "minus-inf-y"],
)
def test_solve_rejects_a_non_finite_start_point(x, y):
    # raised before any callback runs, instead of an evaluation-error
    # that would blame the callbacks
    with pytest.raises(ValueError, match="start point is not finite"):
        solve(get_problem("convex-qp"), v0=make_iterate(x, y))


def test_kink_defeats_the_search_when_no_backtracking_is_allowed():
    # j_max=0 forbids trying anything shorter than the unit step
    result = solve(_kink(), config=SolverConfig(j_max=0))
    assert result.status is SolveStatus.LINE_SEARCH_FAILURE
    assert result.status.exit_code == 4
    assert result.message


def test_exit_code_table():
    assert SolveStatus.SECOND_ORDER_OPTIMAL.exit_code == 0
    assert SolveStatus.FIRST_ORDER_ONLY.exit_code == 2
    assert SolveStatus.ITERATION_LIMIT.exit_code == 3
    assert SolveStatus.LINE_SEARCH_FAILURE.exit_code == 4
    assert SolveStatus.QP_FAILURE.exit_code == 4
    assert SolveStatus.EVALUATION_ERROR.exit_code == 4
    assert SolveStatus.FACTORIZATION_BREAKDOWN.exit_code == 4


def test_exhausted_arc_search_ends_the_solve_with_the_arc_record():
    # with one trial per search, the second iteration's single arc trial
    # is rejected; no second search is made along the QP step alone
    result = solve(_problem("two-cosines-arc-failure"),
                   config=_CONFIGS["two-cosines-arc-failure"])
    assert result.status is SolveStatus.LINE_SEARCH_FAILURE
    assert result.status.exit_code == 4
    assert result.message == "no step accepted in 1 trials"
    assert result.iterations == 2
    record = result.history[-1]
    assert result.iterate.x.tolist() == list(record.x)
    assert record.alpha == 0.0
    # the record keeps the failed arc's curvature step and its one trial
    assert record.norm_u > 0.0 and record.R_k < 0.0
    assert record.trials == 1 and record.bound_rejections == 0
    assert record.merit_new == record.merit


def test_nan_curvature_form_ends_the_step_before_any_trial(monkeypatch):
    reference = solve(_two_cosines())
    real, calls = driver.curvature_form, []

    def curvature_form(*args):
        calls.append(1)
        return np.nan if len(calls) == 2 else real(*args)

    monkeypatch.setattr(driver, "curvature_form", curvature_form)
    base = _two_cosines()
    objective_calls = []

    def objective(x):
        objective_calls.append(1)
        return base.objective(x)

    result = solve(dataclasses.replace(base, objective=objective))
    assert result.status is SolveStatus.LINE_SEARCH_FAILURE
    assert result.message == "non-finite model quantity R_k = nan"
    assert len(result.history) == 2
    assert result.history[0] == reference.history[0]
    last = result.history[1]
    assert np.isnan(last.R_k) and last.norm_u > 0.0
    assert (last.alpha, last.trials) == (0.0, 0)
    # the start point and the first search's trials; none for the second
    assert len(objective_calls) == 1 + sum(
        rec.trials - rec.bound_rejections for rec in result.history
    )
    np.testing.assert_array_equal(result.iterate.x, last.x)


@pytest.mark.parametrize("error", [QpFailure, QpInternalError])
def test_qp_failure_keeps_the_history(monkeypatch, error):
    reference = solve(get_problem("saddle-line"))
    real, calls = driver.solve_qp, []

    def solve_qp(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error("active set cycled")
        return real(*args, **kwargs)

    monkeypatch.setattr(driver, "solve_qp", solve_qp)
    result = solve(get_problem("saddle-line"))
    assert result.status is SolveStatus.QP_FAILURE
    assert result.status.exit_code == 4
    assert result.message == "active set cycled"
    assert len(result.history) == 2
    assert result.history[0] == reference.history[0]
    assert result.history[1].alpha == 0.0
    # the certification succeeded, so the closing record keeps its shift
    # and attempts; every later step field stays at its no-step value
    last, ref = result.history[1], reference.history[1]
    assert (last.theta, last.cholesky_attempts) == (ref.theta, ref.cholesky_attempts)
    assert last.cholesky_attempts > 0
    for name in STEP_FIELDS:
        if name not in ("theta", "cholesky_attempts"):
            assert getattr(last, name) == 0, name
    assert last.merit_new == last.merit


def test_certification_failure_keeps_the_history(monkeypatch):
    reference = solve(get_problem("saddle-line"))
    real, calls = driver._certified_hessian, []

    def certify(*args):
        calls.append(1)
        if len(calls) == 2:
            raise QpInternalError("convexified Hessian cannot be made positive definite")
        return real(*args)

    monkeypatch.setattr(driver, "_certified_hessian", certify)
    result = solve(get_problem("saddle-line"))
    assert result.status is SolveStatus.QP_FAILURE
    assert result.message == "convexified Hessian cannot be made positive definite"
    assert len(result.history) == 2
    assert result.history[0] == reference.history[0]
    last = result.history[1]
    for name in STEP_FIELDS:
        assert getattr(last, name) == 0, name
    assert last.merit_new == last.merit


def test_iteration_limit_record_made_no_step():
    result = solve(get_problem("saddle-line"), config=SolverConfig(max_iterations=1))
    assert result.status is SolveStatus.ITERATION_LIMIT
    assert len(result.history) == 2
    assert result.history[0].alpha > 0.0
    last = result.history[1]
    for name in STEP_FIELDS:
        assert getattr(last, name) == 0, name
    assert last.merit_new == last.merit
    np.testing.assert_array_equal(result.iterate.x, last.x)
