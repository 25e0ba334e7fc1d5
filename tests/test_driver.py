import dataclasses

import numpy as np
import pytest

import curvsqp.driver as driver
from curvsqp.driver import (
    SolveStatus,
    SolverConfig,
    second_order_certificate,
    solve,
)
from curvsqp.errors import FactorizationBreakdown, QpFailure, QpInternalError
from curvsqp.model import NlpProblem, make_iterate
from curvsqp.oracle import certify_reference
from curvsqp.problems import get_problem


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
        ("saddle-line", 5, 6),
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
    # there are constraints
    curvature_steps = sum(1 for rec in result.history if rec.norm_u > 0.0)
    assert calls["hessian"] == 1 + len(stepped) + (curvature_steps if base.m else 0)
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
    assert sum(rec.backtracks for rec in reference.history) > 0
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
        (lambda x: np.zeros(2), "constraints have shape"),
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
    assert result.history == ()


def _hessian_failing_below_zero(failure):
    base = get_problem("saddle-line")

    def hessian(x, y):
        if y[0] < 0.0:
            return failure()
        return base.hessian(x, y)

    return dataclasses.replace(base, hessian=hessian)


def _raise():
    raise RuntimeError("no Hessian for negative multipliers")


@pytest.mark.parametrize("failure", [lambda: np.full((2, 2), np.nan), _raise])
def test_bad_merit_multiplier_hessian_is_an_evaluation_error(failure):
    # the solve evaluates only y >= 0 here; the merit multiplier of the
    # curvature step is negative, and its Hessian must be checked too
    result = solve(_hessian_failing_below_zero(failure))
    assert result.status is SolveStatus.EVALUATION_ERROR
    assert result.message.startswith("saddle-line: ")
    # the first curvature step fails, before any record is closed
    assert result.history == ()
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


def test_evaluation_error_keeps_the_history():
    # unbounded quartic: the iterates grow until the objective overflows
    problem = _unconstrained(
        "runaway",
        lambda x: float(-x[0] ** 4),
        lambda x: np.array([-4.0 * x[0] ** 3]),
        lambda x, y: np.array([[-12.0 * x[0] ** 2]]),
        [2.0],
    )
    with np.errstate(over="ignore"):
        result = solve(problem, config=SolverConfig(max_iterations=400))
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


def test_history_bookkeeping():
    result = solve(get_problem("convex-qp"))
    for i, rec in enumerate(result.history):
        assert rec.k == i
        assert rec.mu >= rec.mu_R
        assert len(rec.csv_values()) == 15
    assert result.history[0].cls == "-"
    assert result.history[-1].alpha == 0.0
    total = sum(result.class_counts.values())
    assert total == sum(1 for rec in result.history if rec.cls in "SLMF")


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
    ],
)
def test_out_of_range_settings_raise_value_error(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        solve(get_problem("convex-qp"), config=SolverConfig(**setting))


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
    # |x - 1| from the wrong side: the unit step jumps across the kink,
    # and j_max=0 forbids trying anything shorter
    problem = _unconstrained(
        "kink",
        lambda x: float(abs(x[0] - 1.0)),
        lambda x: np.array([np.sign(x[0] - 1.0)]),
        lambda x, y: np.array([[0.0]]),
        [1.2],
    )
    result = solve(problem, config=SolverConfig(j_max=0))
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
    assert (last.alpha, last.trials, last.backtracks) == (0.0, 0, 0)
    # the start point and the first search's trials; none for the second
    first = result.history[0]
    assert len(objective_calls) == 1 + first.trials - first.bound_rejections
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
