import dataclasses

import numpy as np
import pytest

from curvsqp.driver import (
    SolveStatus,
    SolverConfig,
    second_order_certificate,
    solve,
)
from curvsqp.errors import FactorizationBreakdown
from curvsqp.merit import merit_value
from curvsqp.model import NlpProblem, evaluate, make_iterate
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
    # curvature step, then two searches that backtrack 3 and 2 times
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


def _problem(name):
    return _simplex_indefinite() if name == "simplex-indefinite" else get_problem(name)


@pytest.mark.parametrize(
    "name, points, hessians",
    [
        ("convex-qp", 8, 8),
        ("cosine-saddle", 7, 6),
        ("saddle-line", 5, 6),
        ("simplex-indefinite", 15, 11),
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
    result = solve(problem)
    # f and c at the start point, then at every trial of every search
    # (these problems never reject a trial at the bounds)
    stepped = [
        rec for rec in result.history
        if rec.alpha > 0.0 and (rec.norm_dv > 0.0 or rec.norm_u > 0.0)
    ]
    assert calls["objective"] == calls["constraints"]
    assert calls["objective"] == 1 + sum(rec.backtracks + 1 for rec in stepped)
    # g, J and H at the start point and at each accepted trial only
    assert calls["gradient"] == calls["jacobian"] == 1 + len(stepped)
    # plus one Hessian at the merit's multiplier per curvature step when
    # there are constraints
    curvature_steps = sum(1 for rec in result.history if rec.norm_u > 0.0)
    assert calls["hessian"] == 1 + len(stepped) + (curvature_steps if base.m else 0)
    assert (calls["objective"], calls["hessian"]) == (points, hessians)


def test_gradient_failing_at_rejected_trials_does_not_end_the_solve():
    base = _simplex_indefinite()
    trace = []
    reference = solve(base, trace=trace)
    assert sum(rec.backtracks for rec in reference.history) > 0
    kept = [base.x0] + [entry["accepted"].x for entry in trace]

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


def test_trace_lets_the_acceptance_inequality_be_rechecked():
    for name in ("saddle-line", "cosine-saddle", "convex-qp"):
        problem = get_problem(name)
        trace = []
        solve(problem, trace=trace)
        assert trace
        for entry in trace:
            state = entry["state"]
            m_prev = merit_value(evaluate(problem, entry["previous"]), entry["previous"], state)
            m_acc = merit_value(evaluate(problem, entry["accepted"]), entry["accepted"], state)
            a = entry["alpha"]
            rhs = m_prev + a * a * state.eta_S * entry["N_k"] + a * state.eta_S * entry["R_k"]
            assert m_acc <= rhs + 1e-10 * (1.0 + abs(m_prev))


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
