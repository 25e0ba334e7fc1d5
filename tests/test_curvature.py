import numpy as np
import pytest

from conftest import DIAGONAL_VALUES, kkt_instances
from curvsqp.curvature import (
    CurvatureDirection,
    curvature_form,
    extract_direction,
    no_direction,
    orient,
    refresh_direction,
    scale,
)
from curvsqp.factor import build_kkt, stage1_factorize
from curvsqp.oracle import eigen, nullspace_basis
from curvsqp.workset import estimate


def _all_free(n):
    return estimate(np.ones(n), 0.5, 1e-2)


def _factor(H, J, mu):
    return stage1_factorize(build_kkt(H, J, mu))


def test_extract_hand_case_with_dual_rows():
    """Schur complement [-3] lifts to a direction with quadratic form -9."""
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    J = np.array([[1.0, 1.0]])
    factor = _factor(H, J, 1.0)
    d = extract_direction(factor, _all_free(2), H, J)
    assert d.exists
    assert d.rho == pytest.approx(3.0)
    assert d.curvature_B == pytest.approx(-9.0, rel=1e-12)
    # the lifted vector satisfies the dual rows of the KKT system, so its
    # KKT quadratic form collapses to the same value
    u = d.u_hat
    w_lift = (J @ u) / 1.0
    full = np.concatenate([u, w_lift])
    form = full @ (factor.kkt.K @ full)
    assert form == pytest.approx(-9.0, rel=1e-12)


def test_extract_off_diagonal_pivot():
    H = np.array([[-1.0, 2.0], [2.0, -1.0]])
    J = np.zeros((0, 2))
    factor = _factor(H, J, 1.0)
    d = extract_direction(factor, _all_free(2), H, J)
    assert d.exists
    assert d.rho == pytest.approx(2.0)
    assert d.pivot_indices == (0, 1)
    # h = (e0 - e1)/sqrt(2), w_S = sqrt(2) h, no pivoted block: u = w_S
    np.testing.assert_allclose(np.abs(d.u_hat), [1.0, 1.0], atol=1e-14)
    assert d.curvature_B == pytest.approx(-6.0)
    assert d.rayleigh == pytest.approx(-3.0)
    assert d.rayleigh == pytest.approx(eigen(H).lambda_min)


def test_extract_empty_schur_returns_nothing():
    H, J = np.diag([2.0, 3.0]), np.array([[1.0, 0.0]])
    d = extract_direction(_factor(H, J, 0.5), _all_free(2), H, J)
    assert not d.exists
    np.testing.assert_array_equal(d.u_hat, np.zeros(2))
    np.testing.assert_array_equal(d.w_hat, np.zeros(1))
    assert d.curvature_B == 0.0 and d.rayleigh == 0.0


def test_extract_ignores_roundoff_schur():
    H, J = np.array([[-1e-15]]), np.zeros((0, 1))
    d = extract_direction(_factor(H, J, 1.0), _all_free(1), H, J)
    assert not d.exists


def test_extract_zero_on_active_set_exactly():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = 5
        x = rng.uniform(0.5, 2.0, size=n)
        x[rng.choice(n, size=2, replace=False)] = 0.0
        ws = estimate(x, 0.5, 1e-2)
        A = rng.normal(size=(n, n))
        H = -(A @ A.T) - 0.1 * np.eye(n)
        J = rng.normal(size=(2, n))
        H_F = H[np.ix_(ws.free, ws.free)]
        J_F = J[:, ws.free]
        mu = 0.3
        factor = _factor(H_F, J_F, mu)
        d = extract_direction(factor, ws, H=H, J=J)
        assert d.exists
        assert np.all(d.u_hat[ws.active] == 0.0)
        # dual displacement mirrors the implementation expression exactly
        np.testing.assert_array_equal(d.w_hat, -(J @ d.u_hat) / mu)


def test_eigenvalue_chain_random_family():
    """rayleigh sits in [lambda_min(B), 0); S and null-space bounds hold."""
    seen = 0
    for H, J, mu in kkt_instances(42, 300):
        nf = H.shape[0]
        factor = _factor(H, J, mu)
        d = extract_direction(factor, _all_free(nf), H, J)
        if not d.exists or d.rho <= 1e-8:
            continue
        seen += 1
        B = H + (J.T @ J) / mu if J.shape[0] else H
        lam_B = eigen(B).lambda_min
        assert d.rayleigh < 0.0
        assert d.rayleigh >= lam_B - 1e-8
        lam_S = eigen(factor.S).lambda_min
        assert lam_S <= lam_B + 1e-8
        Z = nullspace_basis(J) if J.shape[0] else np.eye(nf)
        if Z.shape[1]:
            lam_Z = eigen(Z.T @ H @ Z).lambda_min
            assert lam_B <= lam_Z + 1e-8
    assert seen > 50


def test_detection_power_random_family():
    # oracle-negative instances are never missed
    for H, J, mu in kkt_instances(43, 300):
        nf = H.shape[0]
        B = H + (J.T @ J) / mu if J.shape[0] else H
        if eigen(B).lambda_min < -1e-6:
            d = extract_direction(_factor(H, J, mu), _all_free(nf), H, J)
            assert d.exists and d.curvature_B < 0.0


def test_curvature_form_matches_definition():
    rng = np.random.default_rng(44)
    H = rng.normal(size=(3, 3))
    H = 0.5 * (H + H.T)
    J = rng.normal(size=(2, 3))
    u = rng.normal(size=3)
    expected = u @ H @ u + (J @ u) @ (J @ u) / 0.25
    assert curvature_form(u, H, J, 0.25) == pytest.approx(expected, rel=1e-14)


def _direction(u, w=(), curv=-1.0):
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return CurvatureDirection(
        exists=True,
        u_hat=u,
        w_hat=w,
        curvature_B=curv,
        rayleigh=curv / float(u @ u),
        rho=abs(curv),
    )


def test_orient_flips_ascent():
    d = _direction([1.0, -1.0])
    out = orient(d, np.array([0.2, -0.1]))
    np.testing.assert_array_equal(out.u_hat, [-1.0, 1.0])
    assert out.curvature_B == d.curvature_B


def test_orient_keeps_descent():
    d = _direction([1.0, -1.0])
    out = orient(d, np.array([-0.2, 0.1]))
    assert out is d


def test_orient_keeps_orthogonal():
    d = _direction([1.0, 1.0])
    out = orient(d, np.array([0.5, -0.5]))
    assert out is d


def test_orient_counts_dual_component():
    # primal slope 0.2 is outweighed by dual slope -0.5
    d = _direction([1.0], w=[1.0])
    out = orient(d, np.array([0.2, -0.5]))
    assert out is d


def test_scale_feasibility_bound():
    d = _direction([-1.0, 0.0])
    x = np.array([0.5, 0.5])
    p = np.array([0.0, -0.3])
    s = scale(d, x, p, u_max=10.0)
    assert s.beta == pytest.approx(0.5)
    np.testing.assert_allclose(s.u, [-0.5, 0.0])


def test_scale_blocked_at_bound():
    d = _direction([-1.0, 0.0])
    s = scale(d, np.array([0.3, 1.0]), np.array([-0.3, 0.0]), u_max=10.0)
    assert s.beta == 0.0
    # exact zeros, as without a direction (0 * u_hat would hold -0.0)
    assert s.u.tolist() == [0.0, 0.0] and not np.signbit(s.u).any()


def test_scale_norm_cap():
    d = _direction([1.0, 1.0])
    s = scale(d, np.array([4.9, 5.0]), np.array([0.1, 0.0]), u_max=1.0)
    assert s.beta == pytest.approx(1.0 / np.sqrt(2.0))
    assert np.linalg.norm(s.u) == pytest.approx(1.0)


def test_scale_cap_grows_with_qp_step():
    # norm bound is max(u_max, 2|p|)
    d = _direction([1.0, 0.0])
    p = np.array([3.0, 4.0])
    s = scale(d, np.array([1.0, 1.0]), p, u_max=1.0)
    assert np.linalg.norm(s.u) == pytest.approx(10.0)


def test_scale_nonexistent_direction():
    s = scale(no_direction(2, 1), np.ones(2), np.zeros(2), u_max=1.0)
    assert s.beta == 0.0
    np.testing.assert_array_equal(s.u, np.zeros(2))
    np.testing.assert_array_equal(s.w, np.zeros(1))


def test_refresh_drops_direction_when_penalty_shrinks():
    H = np.array([[-1.0]])
    J = np.array([[1.0]])
    factor = _factor(H, J, 10.0)
    d = extract_direction(factor, _all_free(1), H, J)
    # u = sqrt(0.9) e1, so the form is 0.9 * (-1 + 1/mu)
    assert d.exists and d.curvature_B == pytest.approx(-0.81, rel=1e-12)
    assert d.rayleigh == pytest.approx(-0.9, rel=1e-12)
    kept = refresh_direction(d, H, J, 5.0)
    assert kept.exists
    assert kept.curvature_B == pytest.approx(-0.72, rel=1e-12)
    np.testing.assert_array_equal(kept.w_hat, -(J @ kept.u_hat) / 5.0)
    dropped = refresh_direction(d, H, J, 0.5)
    assert not dropped.exists


def _counted_solves(monkeypatch):
    """Record the matrix shape of every np.linalg.solve call."""
    lapack = np.linalg.solve
    calls = []

    def counted(a, b):
        calls.append(a.shape)
        return lapack(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_lift_matches_lapack_bit_for_bit(monkeypatch):
    """A zero right-hand side lifts to the +0.0 bits LAPACK returns for it, without the solve."""
    rng = np.random.default_rng(75)
    cases = list(kkt_instances(76, 120))
    for _ in range(60):
        n = int(rng.integers(1, 13))
        cases.append((np.diag(rng.choice(DIAGONAL_VALUES[:7], size=n)), np.zeros((0, n)), 1.0))
    # a coupled positive definite block beside an uncoupled diagonal one,
    # with dual rows on the coupled block only
    for _ in range(60):
        nc, nd, m = (int(v) for v in rng.integers(1, 5, size=3))
        A = rng.normal(size=(nc, nc))
        H = np.zeros((nc + nd, nc + nd))
        H[:nc, :nc] = A @ A.T + 0.1 * np.eye(nc)
        H[nc:, nc:] = np.diag(rng.choice(DIAGONAL_VALUES[:7], size=nd))
        J = np.zeros((m - 1, nc + nd))
        J[:, :nc] = rng.normal(size=(m - 1, nc))
        cases.append((H, J, float(10.0 ** rng.uniform(-3.0, 0.0))))
    lapack = np.linalg.solve
    calls = _counted_solves(monkeypatch)
    skipped = solved = 0
    for H, J, mu in cases:
        factor = _factor(H, J, mu)
        k, ns = factor.n_piv, factor.S.shape[0]
        if not k:
            continue
        U = factor.L[:k, :k].T
        # the premise: every zero right-hand side the lift can form,
        # 0.0 - L_S.T @ w for a unit w, solves to +0.0 through LAPACK
        for w in np.eye(ns):
            rhs = 0.0 - factor.L[k:, :k].T @ w
            if not rhs.any():
                assert lapack(U, rhs).tobytes() == np.zeros(k).tobytes()
        calls.clear()
        d = extract_direction(factor, _all_free(H.shape[0]), H, J)
        if not d.exists:
            continue
        # a skipped solve leaves the pivoted primal entries at +0.0
        pivoted = factor.perm[:k][factor.perm[:k] < factor.kkt.n_free]
        if calls:
            solved += 1
        else:
            skipped += 1
            assert not d.u_hat[pivoted].view(np.uint64).any()
    assert skipped > 40 and solved > 40


@pytest.mark.parametrize("m", [0, 1])
def test_an_uncoupled_block_lifts_without_a_solve(monkeypatch, m):
    """Only the S row's own entry reaches the lift: no solve, and LAPACK's bits."""
    # a coupled positive block and an uncoupled negative entry that
    # becomes S; the pivoted block's U is not the identity
    H = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, -2.0]])
    J = np.array([[1.0, 2.0, 0.0]])[:m]
    factor = _factor(H, J, 0.5)
    k = factor.n_piv
    U = factor.L[:k, :k].T
    assert not np.array_equal(U, np.eye(k))
    calls = _counted_solves(monkeypatch)
    d = extract_direction(factor, _all_free(3), H, J)
    assert calls == []
    assert d.exists and d.rho == 2.0
    # the direction np.linalg.solve would have lifted, entry by entry
    w_S = np.sqrt(d.rho) * np.ones(1)
    lifted = np.zeros(k + 1)
    lifted[factor.perm[:k]] = np.linalg.solve(U, 0.0 - factor.L[k:, :k].T @ w_S)
    lifted[factor.perm[k:]] = w_S
    assert d.u_hat.tobytes() == lifted[:3].tobytes()
