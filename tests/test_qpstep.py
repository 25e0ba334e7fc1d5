import numpy as np
import pytest

from conftest import condensed_step, qp_instances, stacked_reference
from curvsqp.merit import MeritState
from curvsqp.model import Evaluation, make_iterate
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
