import numpy as np
import pytest

from conftest import (
    DIAGONAL_VALUES,
    DEFAULTS,
    condensed_step,
    merit_state,
    qp_instances,
    stacked_reference,
)
from curvsqp.errors import QpFailure, QpInternalError
from curvsqp.model import Evaluation, make_iterate
from curvsqp.qpstep import solve_qp
from reference import qp_reference


def test_one_dimensional_bound_hits():
    step = solve_qp(np.array([[2.0]]), np.array([4.0]), np.array([1.0]), tol=DEFAULTS.qp_tol)
    np.testing.assert_allclose(step.p, [-1.0])
    np.testing.assert_allclose(step.z, [2.0])
    assert step.model_decrease == pytest.approx(-3.0)
    assert min(1.0 + step.p[0], step.z[0]) == pytest.approx(0.0)


def test_interior_newton_step():
    G = np.array([[4.0, 1.0], [1.0, 3.0]])
    grad = np.array([-1.0, -2.0])
    step = solve_qp(G, grad, np.array([5.0, 5.0]), tol=DEFAULTS.qp_tol)
    np.testing.assert_allclose(step.p, np.linalg.solve(G, -grad), atol=1e-12)
    np.testing.assert_array_equal(step.z, [0.0, 0.0])
    assert step.active.size == 0


def test_zero_gradient_zero_step():
    step = solve_qp(np.eye(3), np.zeros(3), np.ones(3), tol=DEFAULTS.qp_tol)
    np.testing.assert_array_equal(step.p, np.zeros(3))
    assert step.model_decrease == 0.0


def test_seeded_bound_is_released():
    # the seed pins the variable at its bound; the multiplier check frees it
    step = solve_qp(np.array([[2.0]]), np.array([-4.0]), np.array([1.0]), seed_active=[0],
                    tol=DEFAULTS.qp_tol)
    np.testing.assert_allclose(step.p, [2.0])
    assert step.active.size == 0


def _model(H, J, g, c, y, mu, nu, x):
    ev = Evaluation(f=0.0, c=np.array(c, dtype=float), g=np.array(g, dtype=float),
                    J=np.array(J, dtype=float), H=np.array(H, dtype=float),
                    h_scale=float(np.max(np.abs(H))))
    state = merit_state(y_E=np.zeros(len(c)), mu=mu, nu=nu)
    return ev, make_iterate(x, y), state


def test_dual_tail_is_unconstrained():
    # stacked model G = I, grad = (0, 5): the dual entry runs to -5
    ev, it, state = _model([[1.0]], [[0.0]], [0.0], [5.0], [0.0], 1.0, 1.0, [0.1])
    ref_dv, _, _ = stacked_reference(ev, it, state)
    np.testing.assert_allclose(ref_dv, [0.0, -5.0], atol=1e-12)
    _, _, _, dv, _ = condensed_step(ev, it, state)
    np.testing.assert_allclose(dv, [0.0, -5.0], atol=1e-12)


def test_splits_primal_and_dual_parts():
    # stacked model G = diag(1, 2, 3), grad = (-1, -2, -3)
    ev, it, state = _model(np.diag([1.0, 2.0]), [[0.0, 0.0]], [-1.0, -2.0], [-1.0],
                           [0.0], 1.0, 3.0, [9.0, 9.0])
    qp, _, _, dv, _ = condensed_step(ev, it, state)
    assert qp.p.shape == (2,) and dv.shape == (3,)
    np.testing.assert_allclose(dv, [1.0, 1.0, 1.0], atol=1e-12)


def test_matches_brute_force_family():
    for ev, it, state, seed in qp_instances(55, 80):
        _, _, _, dv, value = condensed_step(ev, it, state, seed)
        ref_dv, ref_z, ref_obj = stacked_reference(ev, it, state)
        scale = 1.0 + np.max(np.abs(ref_dv))
        assert np.max(np.abs(dv - ref_dv)) <= 1e-8 * scale
        assert value == pytest.approx(ref_obj, abs=1e-8 * (1.0 + abs(ref_obj)))


def test_complementarity_and_feasibility_family():
    for ev, it, state, seed in qp_instances(56, 80):
        x = it.x
        step, grad, G, _, _ = condensed_step(ev, it, state, seed)
        assert np.min(x + step.p) >= -1e-12
        comp = np.linalg.norm(np.minimum(x + step.p, step.z))
        assert comp <= 1e-8 * (1.0 + np.max(np.abs(grad)))
        # stationarity: residual vanishes off the active index list
        r = grad + G @ step.p
        free = np.ones(grad.shape[0], dtype=bool)
        free[step.active] = False
        assert np.max(np.abs(r[free]), initial=0.0) <= 1e-8 * (1.0 + np.max(np.abs(grad)))


def test_model_decrease_nonpositive():
    for ev, it, state, seed in qp_instances(57, 60):
        step, _, _, _, _ = condensed_step(ev, it, state, seed)
        assert step.model_decrease <= 1e-12
        if np.linalg.norm(step.p) > 1e-8:
            assert step.model_decrease < 0.0


def test_pinned_entries_sit_exactly_on_bounds():
    for ev, it, state, seed in qp_instances(58, 60):
        step, _, _, _, _ = condensed_step(ev, it, state, seed)
        np.testing.assert_array_equal(step.p[step.active], -it.x[step.active])


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), np.zeros(3), np.ones(1), tol=DEFAULTS.qp_tol)
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), np.zeros(2), np.ones(3), tol=DEFAULTS.qp_tol)


def _qp_outcome(fn, G, grad, x, **kwargs):
    """The QpStep's bytes, or the error's type, text and partial step."""
    try:
        step = fn(G, grad, x, tol=DEFAULTS.qp_tol, **kwargs)
    except (QpFailure, QpInternalError) as exc:
        partial = getattr(exc, "partial", None)
        return type(exc).__name__, str(exc), None if partial is None else partial.tobytes()
    return (step.p.tobytes(), step.z.tobytes(), repr(step.model_decrease),
            step.active.dtype.str, step.active.tobytes(), step.iterations)


def _spd_instances(seed, count):
    """Yield (G, grad, x, seed_active) bound QPs with G positive definite.

    n <= 12. About a third of x sits on its bound, a random subset of
    indices is seeded, and the gradient is large enough that unit steps
    often hit a bound and seeded entries often get released.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 13))
        A = rng.normal(size=(n, n))
        G = A @ A.T + 0.1 * np.eye(n)
        grad = rng.normal(size=n) * 10.0 ** rng.uniform(0.0, 2.0)
        x = rng.uniform(0.0, 2.0, size=n)
        x[rng.uniform(size=n) < 0.3] = 0.0
        yield G, grad, x, np.flatnonzero(rng.uniform(size=n) < 0.4)


def test_active_set_loop_matches_the_reference():
    blocked = released = 0
    for G, grad, x, seed in _spd_instances(61, 400):
        out = _qp_outcome(solve_qp, G, grad, x, seed_active=seed)
        assert out == _qp_outcome(qp_reference, G, grad, x, seed_active=seed)
        active = np.frombuffer(out[4], dtype=out[3])
        blocked += np.setdiff1d(active, seed).size > 0
        released += np.setdiff1d(seed, active).size > 0
    # the family must keep covering both kinds of working-set change
    assert blocked > 200 and released > 200


def test_active_set_loop_matches_the_reference_at_the_edges():
    rng = np.random.default_rng(62)
    G = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    grad = np.array([3.0, -2.0, 1.0])
    x = np.array([0.5, 0.0, 1.0])
    cases = [
        dict(seed_active=[]),
        dict(seed_active=np.arange(3)),
        dict(seed_active=None),
        dict(seed_active=[1], max_iterations=1),  # the cap: QpFailure
        dict(seed_active=None, max_iterations=0),
    ]
    for kwargs in cases:
        for g in (grad, np.zeros(3), rng.normal(size=3) * 1e3):
            out = _qp_outcome(solve_qp, G, g, x, **kwargs)
            assert out == _qp_outcome(qp_reference, G, g, x, **kwargs)
    assert _qp_outcome(solve_qp, G, grad, x, seed_active=[1], max_iterations=1)[0] == "QpFailure"
    # a singular reduced block: QpInternalError on both routes
    singular = np.zeros((3, 3))
    out = _qp_outcome(solve_qp, singular, grad, x, seed_active=[2])
    assert out == _qp_outcome(qp_reference, singular, grad, x, seed_active=[2])
    assert out[0] == "QpInternalError"


def diagonal_qp_instances(seed, count):
    """Yield (G, grad, x, seed_active) bound QPs with a diagonal G.

    A quarter of G's diagonal comes from DIAGONAL_VALUES, the rest from
    a few moderate values, so ties are common. Odd instances draw from
    all of DIAGONAL_VALUES (zeros make a reduced system singular), even
    ones from its positive entries only, where a subnormal entry under
    an O(1) residual makes a quotient that overflows to inf and a huge
    one a residual that does. grad has +-0.0 entries on every third
    instance, about a third of x sits on its bound, and every twentieth
    x has a NaN. n <= 10.
    """
    rng = np.random.default_rng(seed)
    values = np.array(DIAGONAL_VALUES)
    for i in range(count):
        n = int(rng.integers(1, 11))
        d = rng.choice([0.25, 1.0, 2.0, 7.5], size=n)
        listed = rng.uniform(size=n) < 0.25
        d[listed] = rng.choice(values if i % 2 else values[values > 0.0], size=int(listed.sum()))
        G = np.diag(d)
        grad = rng.normal(size=n) * 10.0 ** rng.uniform(0.0, 2.0)
        if i % 3 == 0:
            zeros = rng.uniform(size=n) < 0.3
            grad[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        x = rng.uniform(0.0, 2.0, size=n)
        x[rng.uniform(size=n) < 0.3] = 0.0
        if i % 20 == 19:
            x[rng.integers(n)] = np.nan
        yield G, grad, x, np.flatnonzero(rng.uniform(size=n) < 0.4)


def _counted_solve(monkeypatch):
    lapack = np.linalg.solve
    solves = []

    def counted(a, b):
        solves.append(a.shape)
        return lapack(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return solves


def test_diagonal_qp_matches_the_matrix_route_and_the_reference(monkeypatch):
    """Products and quotients give the QpStep, or the error, of G @ p and LAPACK."""
    solves = _counted_solve(monkeypatch)
    kinds = {"divided": 0, "not finite": 0, "at entry": 0, "singular": 0}
    fast = []
    with np.errstate(all="ignore"):
        for G, grad, x, seed in diagonal_qp_instances(63, 1500):
            solves.clear()
            out = _qp_outcome(solve_qp, G.diagonal().copy(), grad, x, seed_active=seed)
            # the elementwise route never calls LAPACK
            assert solves == []
            assert out == _qp_outcome(qp_reference, G, grad, x, seed_active=seed)
            fast.append((G, grad, x, seed, out))
            if out[0] == "QpInternalError":
                kinds["singular"] += 1
            elif out[0] == "QpFailure":
                kinds["at entry" if out[2] is None else "not finite"] += 1
            else:
                kinds["divided"] += 1
        # the same QP on the matrix
        for G, grad, x, seed, out in fast:
            assert _qp_outcome(solve_qp, G, grad, x, seed_active=seed) == out
    # the family must reach every outcome: a QpStep from the quotients
    # alone, a QpFailure at an overflowing quotient or residual, one at
    # entry (a NaN in x) and a singular system
    assert kinds["divided"] > 300
    assert min(kinds.values()) > 30, kinds


def test_non_finite_data_fails_at_entry_on_both_routes(monkeypatch):
    """A NaN in x or an inf in grad raises QpFailure before the first iteration."""
    solves = _counted_solve(monkeypatch)
    d, grad, x = np.array([2.0, 1.0, 3.0]), np.array([1.0, -2.0, 0.5]), np.array([1.0, 0.0, 2.0])
    bad_x, bad_grad = x.copy(), grad.copy()
    bad_x[1] = np.nan
    bad_grad[2] = np.inf
    cases = [(grad, bad_x, None), (bad_grad, x, None), (bad_grad, x, [1]), (-bad_grad, bad_x, [0])]
    expected = ("QpFailure", "non-finite gradient or bound", None)
    for g, xx, seed in cases:
        for G in (d, np.diag(d)):
            assert _qp_outcome(solve_qp, G, g, xx, seed_active=seed) == expected
        assert _qp_outcome(qp_reference, np.diag(d), g, xx, seed_active=seed) == expected
    # no iteration ran
    assert solves == []


def test_an_overflowing_quotient_keeps_the_last_finite_p():
    """A subnormal diagonal under an O(1) residual ends in QpFailure, on both routes."""
    # x1 is freed by its multiplier once x0 has taken its unit Newton
    # step; the subproblem over both then divides 1 by 5e-324
    d, grad, x = np.array([1.0, 5e-324]), np.array([-1.0, -1.0]), np.array([0.5, 1.0])
    expected = ("QpFailure", "non-finite residual or step in a working-set subproblem",
                np.array([1.0, -1.0]).tobytes())
    assert _qp_outcome(solve_qp, d, grad, x, seed_active=[1]) == expected
    assert _qp_outcome(solve_qp, np.diag(d), grad, x, seed_active=[1]) == expected
    assert _qp_outcome(qp_reference, np.diag(d), grad, x, seed_active=[1]) == expected


def test_an_overflowing_ratio_never_blocks():
    """A subnormal step entry gives an inf ratio, with no warning, on both routes."""
    # x1's ratio (-1 - 0) / -1e-310 overflows; the full Newton step stands
    grad, x = np.array([1.0, 1e-310]), np.array([2.0, 1.0])
    step = solve_qp(np.ones(2), grad, x, tol=DEFAULTS.qp_tol)
    assert step.p.tobytes() == (-grad).tobytes() and step.active.size == 0
    expected = _qp_outcome(solve_qp, np.ones(2), grad, x)
    assert _qp_outcome(solve_qp, np.eye(2), grad, x) == expected
    assert _qp_outcome(qp_reference, np.eye(2), grad, x) == expected


def test_off_diagonal_qp_runs_the_matrix_route(monkeypatch):
    """A nonzero or -0.0 off-diagonal pair keeps G @ p and LAPACK. A diagonal
    with an inf entry, or a NaN the driver never hands over, stays on the
    elementwise route with the bits of its matrix: inf * 0 and NaN * 0
    are NaN in diag * p as in G @ p."""
    solves = _counted_solve(monkeypatch)
    cases = 0
    lapack_calls = 0
    with np.errstate(all="ignore"):
        for G, grad, x, seed in diagonal_qp_instances(64, 200):
            n = G.shape[0]
            x = np.nan_to_num(x)
            controls = []
            if n > 1:
                for off in (1e-3, -0.0):
                    C = G.copy()
                    C[0, -1] = C[-1, 0] = off
                    controls.append((C, C))
            for bad in (np.nan, np.inf, -np.inf):
                c = G.diagonal().copy()
                c[-1] = bad
                controls.append((c, np.diag(c)))
            for C, matrix in controls:
                solves.clear()
                out = _qp_outcome(solve_qp, C, grad, x, seed_active=seed)
                calls = solves[:]
                solves.clear()
                assert out == _qp_outcome(qp_reference, matrix, grad, x, seed_active=seed)
                # the reference calls LAPACK wherever the matrix route
                # does, and the elementwise route never
                assert calls == (solves if C.ndim == 2 else [])
                lapack_calls += len(calls)
                cases += 1
    assert cases > 600
    assert lapack_calls > 600
