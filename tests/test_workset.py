import numpy as np

from curvsqp.workset import embed, estimate, restrict_columns, restrict_principal


def test_estimate_near_bound():
    ws = estimate(np.array([0.001, 1.0]), mu=0.01, epsilon_a=0.05)
    np.testing.assert_array_equal(ws.active, [0])
    np.testing.assert_array_equal(ws.free, [1])
    assert ws.threshold == 0.01


def test_estimate_all_at_zero():
    ws = estimate(np.array([0.0, 0.0]), mu=0.3, epsilon_a=0.05)
    np.testing.assert_array_equal(ws.active, [0, 1])
    assert ws.free.size == 0


def test_estimate_all_free():
    ws = estimate(np.array([5.0, 7.0]), mu=0.1, epsilon_a=0.1)
    assert ws.active.size == 0
    np.testing.assert_array_equal(ws.free, [0, 1])


def test_estimate_threshold_is_inclusive():
    ws = estimate(np.array([0.01]), mu=0.01, epsilon_a=0.05)
    np.testing.assert_array_equal(ws.active, [0])


def test_estimate_monotone_in_mu():
    # shrinking mu never adds active indices
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(0.0, 0.05, size=6)
        mu_hi = rng.uniform(1e-3, 1.0)
        mu_lo = mu_hi * rng.uniform(0.05, 1.0)
        hi = set(estimate(x, mu_hi, 1e-2).active.tolist())
        lo = set(estimate(x, mu_lo, 1e-2).active.tolist())
        assert lo <= hi


def test_restrict_principal_submatrix():
    ws = estimate(np.array([0.0, 1.0]), mu=0.1, epsilon_a=0.01)
    H = np.array([[1.0, 2.0], [2.0, 3.0]])
    np.testing.assert_array_equal(restrict_principal(H, ws), [[3.0]])


def test_restrict_jacobian_columns():
    ws = estimate(np.array([1.0, 1.0]), mu=0.1, epsilon_a=0.01)
    J = np.array([[1.0, 1.0]])
    np.testing.assert_array_equal(restrict_columns(J, ws), [[1.0, 1.0]])


def test_restrict_square_jacobian_keeps_every_row():
    # the cut is named by the caller, never guessed from a square shape
    ws = estimate(np.array([0.0, 1.0]), mu=0.1, epsilon_a=0.01)
    J = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(restrict_columns(J, ws), [[2.0], [4.0]])
    np.testing.assert_array_equal(restrict_principal(J, ws), [[4.0]])


def test_embed_scatters_onto_the_free_set():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.uniform(0.0, 0.1, size=8)
        ws = estimate(x, rng.uniform(1e-3, 1.0), 1e-2)
        v = rng.normal(size=8)
        back = embed(v[ws.free], ws)
        np.testing.assert_array_equal(back[ws.free], v[ws.free])
        assert np.all(back[ws.active] == 0.0)
