import numpy as np
import pytest

from conftest import DEFAULTS
from curvsqp.classify import (
    FilterState,
    Measures,
    classify,
    initial_state,
    measures,
    merit_residuals,
    update_state,
)
from curvsqp.curvature import extract_direction, no_direction
from curvsqp.factor import build_kkt, stage1_factorize
from curvsqp.model import Evaluation, evaluate, make_iterate
from curvsqp.problems import get_problem
from curvsqp.workset import estimate


def _meas(eta=0.0, omega_first=0.0, curv_ratio=0.0):
    omega = max(omega_first, -curv_ratio)
    return Measures(
        eta=eta,
        omega_first=omega_first,
        curv_ratio=curv_ratio,
        omega=omega,
        phi_S=eta + 1e-5 * omega,
        phi_L=1e-5 * eta + omega,
    )


def _fstate(tau=1e-2, phi_S_max=1.0, phi_L_max=1.0, mu_R=0.1, y_E=None):
    return FilterState(
        tau=tau,
        phi_S_max=phi_S_max,
        phi_L_max=phi_L_max,
        mu_R=mu_R,
        y_E=np.zeros(1) if y_E is None else np.asarray(y_E, dtype=float),
    )


def test_measure_formulas_weigh_eta_and_omega():
    # eta=1 from the constraint value, omega=2 from pure curvature
    ev = Evaluation(
        f=0.0,
        c=np.array([1.0]),
        g=np.array([0.5]),
        J=np.array([[0.0]]),
        H=np.array([[-2.0]]),
        h_scale=2.0,
    )
    it = make_iterate([0.0], [0.0])
    d = no_direction(1, 1)
    d = type(d)(
        exists=True,
        u_hat=np.array([1.0]),
        w_hat=np.array([0.0]),
        curvature_B=-2.0,
        rayleigh=-2.0,
        rho=2.0,
    )
    m = measures(ev, it, d)
    assert m.eta == pytest.approx(1.0)
    assert m.omega_first == 0.0
    assert m.curv_ratio == pytest.approx(-2.0)
    assert m.omega == pytest.approx(2.0)
    assert m.phi_S == pytest.approx(1.0 + 2e-5)
    assert m.phi_L == pytest.approx(1e-5 + 2.0)


def test_first_order_point_without_curvature_scores_zero_omega():
    ev = Evaluation(
        f=0.0,
        c=np.array([0.3]),
        g=np.array([2.0]),
        J=np.array([[2.0]]),
        H=np.eye(1),
        h_scale=1.0,
    )
    it = make_iterate([1.0], [1.0])
    m = measures(ev, it, no_direction(1, 1))
    assert m.omega_first == 0.0
    assert m.curv_ratio == 0.0
    assert m.omega == 0.0
    assert m.phi_S == pytest.approx(m.eta)


def test_saddle_point_scores_nonoptimal_through_curvature():
    # stationary point of the equality-constrained saddle: the first-order
    # residual vanishes but the extracted direction keeps omega positive
    problem = get_problem("saddle-line")
    it = make_iterate([1.0, 1.0], [1.0])
    ev = evaluate(problem, it)
    ws = estimate(it.x, 1.0, 1e-2)
    factor = stage1_factorize(build_kkt(ev.H, ev.J, 1.0))
    d = extract_direction(factor, ws, ev.H, ev.J)
    assert d.exists
    m = measures(ev, it, d)
    assert m.omega_first <= 1e-12
    assert -1.0 - 1e-12 <= m.curv_ratio < 0.0
    assert m.omega == pytest.approx(-m.curv_ratio)


def test_classify_strong_progress():
    m = _meas(eta=0.4)
    assert m.phi_S == pytest.approx(0.4)
    assert classify(m, _fstate(phi_S_max=1.0), (1.0, 1.0)) == "S"


def test_classify_optimality_progress():
    # phi_S fails its threshold but phi_L passes
    m = _meas(eta=0.9, omega_first=0.1)
    st = _fstate(phi_S_max=1.0, phi_L_max=1.0)
    assert m.phi_S > 0.5 * st.phi_S_max
    assert m.phi_L <= 0.5 * st.phi_L_max
    assert classify(m, st, (1.0, 1.0)) == "L"


def test_classify_merit_stationary():
    m = _meas(eta=2.0, omega_first=2.0, curv_ratio=0.0)
    st = _fstate(tau=1e-3)
    assert classify(m, st, (1e-9, 1e-9)) == "M"


def test_classify_curvature_blocks_merit_label():
    m = _meas(eta=2.0, omega_first=2.0, curv_ratio=-0.5)
    st = _fstate(tau=1e-3)
    assert classify(m, st, (1e-9, 1e-9)) == "F"


def test_classify_fallthrough():
    m = _meas(eta=2.0, omega_first=2.0)
    assert classify(m, _fstate(), (1.0, 1.0)) == "F"


def test_update_halves_tolerances_on_merit_iterates():
    st = _fstate(tau=1e-2, mu_R=0.1)
    out = update_state("M", st, _meas(), make_iterate([1.0], [3.0]))
    assert out.tau == pytest.approx(5e-3)
    assert out.mu_R == pytest.approx(0.05)
    np.testing.assert_array_equal(out.y_E, [3.0])
    # thresholds untouched
    assert out.phi_S_max == st.phi_S_max
    assert out.phi_L_max == st.phi_L_max


def test_update_contracts_thresholds_on_progress():
    st = _fstate(phi_S_max=1.0, phi_L_max=1.0)
    out = update_state("S", st, _meas(eta=0.4), make_iterate([1.0], [2.0]))
    assert out.phi_S_max == pytest.approx(0.5)
    assert out.phi_L_max == pytest.approx(0.5)
    np.testing.assert_array_equal(out.y_E, [2.0])
    assert out.tau == st.tau
    assert out.mu_R == st.mu_R


def test_update_keeps_achieved_value_when_above_half():
    st = _fstate(phi_S_max=1.0)
    out = update_state("L", st, _meas(eta=0.8), make_iterate([1.0], [0.0]))
    assert out.phi_S_max == pytest.approx(0.8)


def test_update_caps_reference_multipliers():
    out = update_state("S", _fstate(), _meas(), make_iterate([1.0], [2e6]))
    np.testing.assert_array_equal(out.y_E, [1e6])
    out = update_state("M", _fstate(), _meas(), make_iterate([1.0], [-3e6]))
    np.testing.assert_array_equal(out.y_E, [-1e6])


def test_update_leaves_state_alone_on_failure():
    st = _fstate()
    assert update_state("F", st, _meas(eta=5.0), make_iterate([1.0], [9.0])) is st


def test_update_rejects_unknown_label():
    with pytest.raises(ValueError):
        update_state("X", _fstate(), _meas(), make_iterate([1.0], [0.0]))


def test_initial_state_floors_thresholds_at_one():
    st = initial_state(_meas(eta=0.01), [0.0], 0.1, DEFAULTS.tau0)
    assert st.phi_S_max == 1.0
    assert st.phi_L_max == 1.0
    assert st.tau == pytest.approx(1e-2)
    assert st.mu_R == pytest.approx(0.1)


def test_initial_state_doubles_large_scores():
    st = initial_state(_meas(eta=2.0, omega_first=3.0), [2e6], 0.1, DEFAULTS.tau0)
    assert st.phi_S_max == pytest.approx(2.0 * (2.0 + 3e-5))
    assert st.phi_L_max == pytest.approx(2.0 * (2e-5 + 3.0))
    np.testing.assert_array_equal(st.y_E, [1e6])


def test_merit_residual_split():
    grad = np.array([-0.5, 2.0, 3.0, 4.0])
    stat_y, stat_x = merit_residuals(grad, np.array([1.0, 0.0]))
    assert stat_x == pytest.approx(0.5)
    assert stat_y == pytest.approx(5.0)


def test_merit_residual_split_unconstrained():
    stat_y, stat_x = merit_residuals(np.array([0.25]), np.array([1.0]))
    assert stat_y == 0.0
    assert stat_x == pytest.approx(0.25)
