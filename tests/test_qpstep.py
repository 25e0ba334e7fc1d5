import numpy as np
import pytest

from conftest import condensed_step, qp_instances, stacked_reference
from curvsqp.merit import MeritState
from curvsqp.errors import QpFailure, QpInternalError
from curvsqp.model import Evaluation, make_iterate
from curvsqp.oracle import qp_reference
from curvsqp.qpstep import solve_qp


def test_one_dimensional_bound_hits():
    step = solve_qp(np.array([[2.0]]), np.array([4.0]), np.array([1.0]))
    np.testing.assert_allclose(step.p, [-1.0])
    np.testing.assert_allclose(step.z, [2.0])
    assert step.model_decrease == pytest.approx(-3.0)
    assert min(1.0 + step.p[0], step.z[0]) == pytest.approx(0.0)


def test_interior_newton_step():
    G = np.array([[4.0, 1.0], [1.0, 3.0]])
    grad = np.array([-1.0, -2.0])
    step = solve_qp(G, grad, np.array([5.0, 5.0]))
    np.testing.assert_allclose(step.p, np.linalg.solve(G, -grad), atol=1e-12)
    np.testing.assert_array_equal(step.z, [0.0, 0.0])
    assert step.active.size == 0


def test_zero_gradient_zero_step():
    step = solve_qp(np.eye(3), np.zeros(3), np.ones(3))
    np.testing.assert_array_equal(step.p, np.zeros(3))
    assert step.model_decrease == 0.0


def test_seeded_bound_is_released():
    # the seed pins the variable at its bound; the multiplier check frees it
    step = solve_qp(np.array([[2.0]]), np.array([-4.0]), np.array([1.0]), seed_active=[0])
    np.testing.assert_allclose(step.p, [2.0])
    assert step.active.size == 0


def _model(H, J, g, c, y, mu, nu, x):
    ev = Evaluation(f=0.0, c=np.array(c, dtype=float), g=np.array(g, dtype=float),
                    J=np.array(J, dtype=float), H=np.array(H, dtype=float))
    state = MeritState(y_E=np.zeros(len(c)), mu=mu, mu_R=mu, nu=nu)
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
        solve_qp(np.eye(2), np.zeros(3), np.ones(1))
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), np.zeros(2), np.ones(3))


def _qp_outcome(fn, G, grad, x, **kwargs):
    """The QpStep's bytes, or the error's type, text and partial step."""
    try:
        step = fn(G, grad, x, **kwargs)
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
    # a NaN bound makes a NaN ratio, at which argmin would stop, ahead
    # of the ratio 0.5 that blocks
    x_nan = np.array([np.nan, 0.5, 2.0])
    out = _qp_outcome(solve_qp, np.eye(3), np.ones(3), x_nan)
    assert out == _qp_outcome(qp_reference, np.eye(3), np.ones(3), x_nan)
    # a singular reduced block: QpInternalError on both routes
    singular = np.zeros((3, 3))
    out = _qp_outcome(solve_qp, singular, grad, x, seed_active=[2])
    assert out == _qp_outcome(qp_reference, singular, grad, x, seed_active=[2])
    assert out[0] == "QpInternalError"
