"""End-to-end acceptance checks, one test per contract item.

Each test is self-contained and pins its own tolerances; together they
cover factorization fidelity, convexification inertia, curvature
extraction quality, the merit calculus, the line-search and penalty
contracts, QP correctness, and the three built-in convergence stories.
"""

import numpy as np
import pytest

from conftest import (
    central_diff,
    condensed_step,
    kkt_instances,
    merit_form_instances,
    qp_instances,
    stacked_reference,
)
from curvsqp.curvature import extract_direction
from curvsqp.driver import SolveStatus, SolverConfig, second_order_certificate, solve
from curvsqp.factor import apply_shift, build_kkt, convexify, stage1_factorize
from curvsqp.merit import MeritState, merit_value
from curvsqp.model import Evaluation, evaluate, make_iterate
from curvsqp.oracle import eigen, merit_hessian, nullspace_basis
from curvsqp.problems import get_problem, list_problems
from curvsqp.workset import estimate


def _all_free(n):
    return estimate(np.ones(n), 0.5, 1e-2)


@pytest.fixture(scope="module")
def solver_runs():
    """A fixed battery of solver runs shared by the run-level criteria."""
    batches = [
        ("saddle-line", SolverConfig(), None),
        ("cosine-saddle", SolverConfig(), None),
        ("convex-qp", SolverConfig(), None),
        ("cosine-saddle", SolverConfig(enable_curvature=False), None),
        ("saddle-line", SolverConfig(), make_iterate([0.5, 1.5], [0.0])),
        ("convex-qp", SolverConfig(max_iterations=5), None),
    ]
    runs = []
    for name, config, v0 in batches:
        problem = get_problem(name)
        trace = []
        result = solve(problem, v0=v0, config=config, trace=trace)
        runs.append((problem, result, trace))
    return runs


def test_c01_factorization_reconstructs_the_kkt_matrix():
    """1000 instances: residual <= 1e-9*(1+|K|_max), dual pivots all consumed."""
    checked = 0
    for H, J, mu in kkt_instances(101, 1000):
        factor = stage1_factorize(build_kkt(H, J, mu))
        norm = float(np.max(np.abs(factor.kkt.K), initial=0.0))
        assert factor.reconstruction_error() <= 1e-9 * (1.0 + norm)
        assert factor.counts["D-"] + factor.counts["HD"] == J.shape[0]
        checked += 1
    assert checked == 1000


def test_c02_convexified_kkt_has_target_inertia():
    """Shifted matrix shows inertia (|F|, m, 0); shifted B block is positive definite."""
    for H, J, mu in kkt_instances(102, 1000):
        nf, m = H.shape[0], J.shape[0]
        factor = stage1_factorize(build_kkt(H, J, mu))
        conv = convexify(factor)
        H_t = apply_shift(H, conv.shifted_rows, conv.delta)
        shifted = build_kkt(H_t, J, mu)
        assert eigen(shifted.K).inertia == (nf, m, 0)
        B_t = H_t + (J.T @ J) / mu if m else H_t
        # independent positive definiteness route
        np.linalg.cholesky(B_t + 1e-12 * (1.0 + np.max(np.abs(B_t))) * np.eye(nf))


def test_c03_extracted_direction_respects_the_eigenvalue_chain():
    """rayleigh in [lambda_min(B), 0); lambda_min(S) <= lambda_min(B) <= reduced Hessian."""
    seen = 0
    for H, J, mu in kkt_instances(103, 1000):
        factor = stage1_factorize(build_kkt(H, J, mu))
        d = extract_direction(factor, _all_free(H.shape[0]))
        if not (d.exists and d.rho > 1e-8):
            continue
        seen += 1
        B = H + (J.T @ J) / mu if J.shape[0] else H
        lam_B = eigen(B).lambda_min
        assert lam_B - 1e-9 * (1.0 + abs(lam_B)) <= d.rayleigh < 0.0
        assert eigen(factor.S).lambda_min <= lam_B + 1e-8
        Z = nullspace_basis(J)
        if Z.shape[1]:
            assert lam_B <= eigen(Z.T @ H @ Z).lambda_min + 1e-8
    assert seen > 100


def test_c04_no_negative_curvature_goes_undetected():
    """lambda_min(B) < -1e-6 always yields exists=True with negative certificate."""
    hits = 0
    for H, J, mu in kkt_instances(104, 1000):
        B = H + (J.T @ J) / mu if J.shape[0] else H
        if eigen(B).lambda_min >= -1e-6:
            continue
        factor = stage1_factorize(build_kkt(H, J, mu))
        d = extract_direction(factor, _all_free(H.shape[0]))
        assert d.exists
        assert d.curvature_B < 0.0
        hits += 1
    assert hits > 100


def test_c05_stacked_merit_form_collapses_to_penalized_form():
    """(u, -(1/mu)Ju) quadratic form equals u'(H + J'J/mu)u to 1e-12 relative."""
    for H, J, mu, nu, u in merit_form_instances(105, 500):
        m = J.shape[0]
        ev = Evaluation(f=0.0, c=np.zeros(m), g=np.zeros(H.shape[0]), J=J, H=H)
        state = MeritState(y_E=np.zeros(m), mu=mu, mu_R=mu, nu=nu)
        H_M = merit_hessian(ev, state, H)
        w = -(J @ u) / mu
        v = np.concatenate([u, w])
        target = u @ H @ u + (J @ u) @ (J @ u) / mu
        assert abs(v @ (H_M @ v) - target) <= 1e-12 * (1.0 + abs(target))


def test_c06_derivatives_match_finite_differences():
    """Gradient to 1e-6 and Hessian to 1e-5 relative, 20 points per problem."""
    rng = np.random.default_rng(106)
    step = 1e-5
    for name in list_problems():
        problem = get_problem(name)
        for _ in range(20):
            x = rng.uniform(0.25, 3.0, size=problem.n)
            y = rng.normal(size=problem.m)
            g = problem.gradient(x)
            fd_g = central_diff(problem.objective, x, step)
            assert np.max(np.abs(fd_g - g)) <= 1e-6 * (1.0 + np.max(np.abs(g)))
            H = problem.hessian(x, y)

            def lag_grad(z):
                base = problem.gradient(z)
                if problem.m:
                    base = base + problem.jacobian(z).T @ y
                return base

            fd_H = np.zeros((problem.n, problem.n))
            for j in range(problem.n):
                e = np.zeros(problem.n)
                e[j] = step
                fd_H[:, j] = (lag_grad(x + e) - lag_grad(x - e)) / (2.0 * step)
            assert np.max(np.abs(fd_H - H)) <= 1e-5 * (1.0 + np.max(np.abs(H)))


def test_c07_every_accepted_step_satisfies_the_search_inequality(solver_runs):
    """Independent merit re-evaluation confirms each acceptance; zero violations."""
    checked = 0
    for problem, _result, trace in solver_runs:
        for entry in trace:
            state = entry["state"]
            prev, acc = entry["previous"], entry["accepted"]
            m_prev = merit_value(evaluate(problem, prev), prev, state)
            m_acc = merit_value(evaluate(problem, acc), acc, state)
            a = entry["alpha"]
            rhs = m_prev + a * a * state.eta_S * entry["N_k"] + a * state.eta_S * entry["R_k"]
            assert m_acc <= rhs + 1e-12 * (1.0 + abs(m_prev))
            checked += 1
    assert checked > 10


def test_c08_penalties_stay_ordered_and_halve_only_on_merit_iterates(solver_runs):
    """mu >= mu_R throughout; mu_R halves exactly on M-records, else unchanged."""
    for _problem, result, _trace in solver_runs:
        history = result.history
        for rec in history:
            assert rec.mu >= rec.mu_R
        for prev, rec in zip(history, history[1:]):
            assert rec.mu_R <= prev.mu_R
            if rec.cls == "M":
                assert rec.mu_R == 0.5 * prev.mu_R
            else:
                assert rec.mu_R == prev.mu_R


def test_c09_qp_solutions_match_brute_force_enumeration():
    """200 instances: condensed step = stacked brute force to 1e-8; complementarity 1e-8."""
    for ev, it, state, seed in qp_instances(109, 200):
        step, _, _, dv, value = condensed_step(ev, it, state, seed)
        ref_dv, _ref_z, ref_obj = stacked_reference(ev, it, state)
        assert np.max(np.abs(dv - ref_dv)) <= 1e-8
        assert np.linalg.norm(np.minimum(it.x + step.p, step.z)) <= 1e-8
        assert value <= ref_obj + 1e-8 * (1.0 + abs(ref_obj))


def test_c10_curvature_steps_escape_the_cosine_saddle():
    """From the exact saddle: f = -1 +- 1e-6; without curvature: no movement."""
    problem = get_problem("cosine-saddle")
    result = solve(problem)
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    assert result.iterations <= 200
    assert abs(result.f - (-1.0)) <= 1e-6

    stalled = solve(problem, config=SolverConfig(enable_curvature=False))
    assert stalled.status is SolveStatus.FIRST_ORDER_ONLY
    assert np.linalg.norm(stalled.iterate.x - np.array([2.0 * np.pi, 1.0])) <= 1e-8


def test_c11_constrained_saddle_slides_to_a_certified_vertex():
    """Vertex (2,0) or (0,2) with f <= 1e-6 and a clean curvature certificate."""
    result = solve(get_problem("saddle-line"))
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    assert result.iterations <= 200
    x = result.iterate.x
    vertex = min(
        np.linalg.norm(x - np.array([2.0, 0.0])),
        np.linalg.norm(x - np.array([0.0, 2.0])),
    )
    assert vertex <= 1e-6
    assert result.f <= 1e-6
    ratio, _ws, exists = second_order_certificate(
        get_problem("saddle-line"), result.iterate, result.history[-1].mu_R
    )
    assert (not exists) or ratio >= -1e-6


def test_c12_convex_problem_never_triggers_curvature_steps():
    """eta and omega <= 1e-8 within 50 iterations; norm_u stays exactly zero."""
    result = solve(get_problem("convex-qp"))
    assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL
    assert result.iterations <= 50
    assert result.eta <= 1e-8
    assert result.omega <= 1e-8
    assert all(rec.norm_u == 0.0 for rec in result.history)
