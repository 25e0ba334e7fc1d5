import ast
from pathlib import Path

import numpy as np
import pytest

import curvsqp.oracle as oracle
from conftest import kkt_instances
from curvsqp.errors import CurvSqpError
from curvsqp.oracle import _round_robin, eigen, nullspace_basis, qp_brute_force


def test_oracle_imports_nothing_it_checks():
    """The oracle's only package import is .errors, so it shares no code with the solver."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = set()
    absolute = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {".errors"}
    assert not any(name == "curvsqp" or name.startswith("curvsqp.") for name in absolute)


def test_eigen_hand_values_indefinite():
    rep = eigen(np.array([[1.0, 2.0], [2.0, 1.0]]))
    np.testing.assert_allclose(rep.values, [-1.0, 3.0], atol=1e-12)
    assert rep.lambda_min == pytest.approx(-1.0, abs=1e-12)
    assert rep.inertia == (1, 1, 0)


def test_eigen_hand_values_negative():
    rep = eigen(np.array([[-1.0, 2.0], [2.0, -1.0]]))
    np.testing.assert_allclose(rep.values, [-3.0, 1.0], atol=1e-12)


def test_eigen_diagonal_sorted():
    d = np.array([3.0, -1.0, 0.5, 7.0, 0.0])
    rep = eigen(np.diag(d))
    np.testing.assert_allclose(rep.values, np.sort(d), atol=1e-14)


def test_eigen_empty():
    rep = eigen(np.zeros((0, 0)))
    assert rep.values.shape == (0,)
    assert rep.inertia == (0, 0, 0)


def test_eigen_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigen(np.zeros((2, 3)))


def test_eigen_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        rep = eigen(A)
        R = rep.vectors @ np.diag(rep.values) @ rep.vectors.T
        assert np.max(np.abs(R - A)) <= 1e-10 * (1.0 + np.max(np.abs(A)))
        assert np.max(np.abs(rep.vectors.T @ rep.vectors - np.eye(n))) <= 1e-12


def test_round_robin_rounds_are_disjoint_and_cover_every_pair_once():
    for n in range(1, 12):
        seen = []
        for P, Q in _round_robin(n):
            rows = np.concatenate([P, Q])
            assert np.unique(rows).size == rows.size
            assert np.all(P < Q) and np.all(Q < n)
            seen += list(zip(P.tolist(), Q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_inertia_routes_agree():
    # jacobi route vs LAPACK's eigenvalues, 1000 random matrices
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        if rng.uniform() < 0.3:
            # plant an exact zero eigenvalue via a rank-one deflation
            rep = eigen(A)
            A = A - rep.values[0] * np.outer(rep.vectors[:, 0], rep.vectors[:, 0])
            A = 0.5 * (A + A.T)
        vals = np.linalg.eigvalsh(A)
        tol = 1e-10 * np.max(np.abs(vals))
        lapack = (np.sum(vals > tol), np.sum(vals < -tol), np.sum(np.abs(vals) <= tol))
        assert eigen(A).inertia == lapack


def test_nullspace_line():
    Z = nullspace_basis(np.array([[1.0, 1.0]]))
    assert Z.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    # direction is determined up to sign
    assert min(np.linalg.norm(Z[:, 0] - expected), np.linalg.norm(Z[:, 0] + expected)) <= 1e-12


def test_nullspace_empty_jacobian_is_identity():
    np.testing.assert_array_equal(nullspace_basis(np.zeros((0, 3))), np.eye(3))


def test_nullspace_full_rank_square():
    Z = nullspace_basis(np.eye(2))
    assert Z.shape == (2, 0)


def test_nullspace_properties_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(1, 8))
        J = rng.normal(size=(m, n))
        Z = nullspace_basis(J)
        rank = np.linalg.matrix_rank(J) if m else 0
        assert Z.shape == (n, n - rank)
        if Z.shape[1]:
            assert np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) <= 1e-12
            if m:
                assert np.max(np.abs(J @ Z)) <= 1e-10 * (1.0 + np.max(np.abs(J)))


def test_brute_force_one_dimensional():
    dv, z, obj = qp_brute_force(np.array([[2.0]]), np.array([4.0]), np.array([1.0]))
    np.testing.assert_allclose(dv, [-1.0])
    np.testing.assert_allclose(z, [2.0])
    assert obj == pytest.approx(-3.0)


def test_brute_force_interior():
    G = np.array([[2.0, 0.0], [0.0, 4.0]])
    grad = np.array([-2.0, -4.0])
    dv, z, obj = qp_brute_force(G, grad, np.array([5.0, 5.0]))
    np.testing.assert_allclose(dv, [1.0, 1.0])
    np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-12)


def test_kkt_family_exercises_all_shapes():
    # sanity on the shared generator the heavier suites rely on
    sizes = set()
    for H, J, mu in kkt_instances(1, 64):
        assert H.shape[0] == H.shape[1] == J.shape[1]
        assert 1e-3 <= mu <= 1.0
        assert np.max(np.abs(H - H.T)) == 0.0
        sizes.add((H.shape[0], J.shape[0]))
    assert len(sizes) > 10
