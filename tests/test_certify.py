import numpy as np
import pytest

import curvsqp.driver as driver
from conftest import DIAGONAL_VALUES
from curvsqp.driver import _certification_grid, _certified_hessian
from curvsqp.errors import QpInternalError
from reference import certification_grid_reference, certify_reference


def certify_instances(seed, count):
    """Yield (H_tilde, J, mu, bump_rows, h_scale) certification inputs.

    Kinds rotate through a positive definite H (theta = 0), a positive
    definite free block whose bumped rows are indefinite and strongly
    coupled to it (theta mid-grid), and an indefinite H with no bump
    rows given (every row is bumped). n <= 12, m <= 4, mu in [1e-3, 1].
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(0, 5))
        mu = float(10.0 ** rng.uniform(-3.0, 0.0))
        A = rng.normal(size=(n, n))
        kind = i % 3
        if kind == 0:
            H = A @ A.T + 0.1 * np.eye(n)
            bump = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        elif kind == 1:
            bump = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            free = np.setdiff1d(np.arange(n), bump)
            H = 0.5 * (A + A.T) * 10.0 ** rng.uniform(0.0, 3.0)
            H[np.ix_(free, free)] = A[free] @ A[free].T + 0.01 * np.eye(free.size)
        else:
            H = 0.5 * (A + A.T)
            bump = np.zeros(0, dtype=int)
        J = rng.normal(size=(m, n))
        yield H, J, mu, bump, float(np.max(np.abs(H)))


def _grid_index(theta, h_scale):
    """Position of theta on the grid 0, s, 2s, 4s, ..."""
    if theta == 0.0:
        return 0
    s = 1e-8 * (1.0 + h_scale)
    i = 1 + int(round(np.log2(theta / s)))
    assert s * 2.0 ** (i - 1) == theta
    return i


def _grid_length(h_scale):
    theta, limit, length = 1e-8 * (1.0 + h_scale), 1e18 * (1.0 + h_scale), 1
    while theta <= limit and theta < np.inf:
        theta, length = 2.0 * theta, length + 1
    return length


def _grid_point(i, h_scale):
    return 0.0 if i == 0 else 1e-8 * (1.0 + h_scale) * 2.0 ** (i - 1)


def _starts(answer, h_scale):
    """Starting shifts around the answer's grid index, and the extremes."""
    top = _grid_length(h_scale) - 1
    starts = [_grid_point(answer + d, h_scale) for d in range(-3, 4) if 0 <= answer + d <= top]
    # between two grid points, as when the previous step's grid differed
    if answer >= 2:
        starts.append(0.75 * _grid_point(answer, h_scale))
    return starts + [0.0, _grid_point(top, h_scale), 4.0 * _grid_point(top, h_scale)]


def test_certification_matches_the_reference():
    indices = []
    empty_bumps = 0
    for H, J, mu, bump, h_scale in certify_instances(41, 300):
        H_used, theta, _ = _certified_hessian(H, J, mu, bump, h_scale)
        H_ref, theta_ref = certify_reference(H, J, mu, bump, h_scale)
        assert theta == theta_ref
        assert H_used.dtype == H_ref.dtype and H_used.shape == H_ref.shape
        assert H_used.tobytes() == H_ref.tobytes()
        indices.append(_grid_index(theta, h_scale))
        empty_bumps += bump.size == 0
    # the family must keep covering theta = 0, the middle of the grid
    # where the n = 128 simplex QPs land, and the all-rows bump
    assert indices.count(0) > 0
    assert sum(25 <= i <= 40 for i in indices) > 0
    assert empty_bumps > 0


def test_seeded_certification_matches_the_reference_from_every_start():
    for H, J, mu, bump, h_scale in certify_instances(41, 300):
        H_ref, theta_ref = certify_reference(H, J, mu, bump, h_scale)
        for start in _starts(_grid_index(theta_ref, h_scale), h_scale):
            H_used, theta, _ = _certified_hessian(H, J, mu, bump, h_scale, start)
            assert theta == theta_ref, start
            assert H_used.dtype == H_ref.dtype and H_used.shape == H_ref.shape
            assert H_used.tobytes() == H_ref.tobytes(), start


def test_unfixable_free_block_raises_on_both_routes():
    # the non-bumped row is negative definite, so no bump on row 1 helps
    H = np.array([[-1.0, 0.0], [0.0, 1.0]])
    J = np.zeros((0, 2))
    bump = np.array([1])
    top = _grid_length(1.0) - 1
    for start in (0.0, 1.0, _grid_point(top, 1.0), 4.0 * _grid_point(top, 1.0)):
        with pytest.raises(QpInternalError):
            _certified_hessian(H, J, 1.0, bump, 1.0, start)
    with pytest.raises(QpInternalError):
        certify_reference(H, J, 1.0, bump, 1.0)


@pytest.mark.parametrize("H, bump", [
    # row 1 is negative and never bumped, so no theta helps
    (np.diag([1.0, -1.0]), np.array([0])),
    # the symmetrized base holds -inf, which only theta = inf would lift
    (np.array([[-1.7e308, 1.0], [1.0, 1.0]]), np.zeros(0, dtype=int)),
], ids=["unbumped-negative-row", "infinite-base"])
def test_grid_ends_at_its_largest_finite_point_on_both_routes(monkeypatch, H, bump):
    """With 1e18 * (1 + h_scale) = inf, theta never reaches inf: both routes raise."""
    cholesky = np.linalg.cholesky
    calls = []

    def counted(a):
        calls.append(a.shape)
        # a grid has at most 88 points; more attempts are a runaway search
        assert len(calls) <= 88
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    J = np.zeros((0, 2))
    # the symmetrization of -1.7e308 overflows
    with np.errstate(over="ignore"):
        with pytest.raises(QpInternalError):
            _certified_hessian(H, J, 1.0, bump, 1.7e308)
        calls.clear()
        with pytest.raises(QpInternalError):
            certify_reference(H, J, 1.0, bump, 1.7e308)


def _grid_starts(grid):
    """theta_prev at, between, below and past the points of a grid array."""
    top = grid[-1]
    starts = [0.0, -0.0, -1.0, 5e-324, grid[1] / 3.0, top, np.nextafter(top, np.inf),
              1.5 * top, 4.0 * top, 1.7e308, np.inf, np.nan]
    for a, b in zip(grid[:-1], grid[1:]):
        starts += [a, np.nextafter(a, np.inf), 0.5 * (a + b), 0.75 * b, np.nextafter(b, 0.0)]
    return starts


@pytest.mark.parametrize("h_scale", [0.0, 1.0, 3.0, 1.7e290, 1.7e308])
def test_the_arithmetic_grid_is_the_array_bit_for_bit(h_scale):
    """top, k0 and every point match the grid built as one array."""
    with np.errstate(over="ignore"):
        grid, top, _ = certification_grid_reference(h_scale, 0.0)
        starts = _grid_starts(grid)
    s, got_top, _ = _certification_grid(h_scale, 0.0)
    assert got_top == top
    points = np.array([driver._grid_point(s, k) for k in range(top + 1)])
    assert points.tobytes() == grid.tobytes()
    for theta in starts:
        assert _certification_grid(h_scale, theta)[2] == \
            certification_grid_reference(h_scale, theta)[2], theta


def test_certification_bisects_the_grid(monkeypatch):
    # bumping row 1 must beat the Schur complement 0 - 1/a = -40, which
    # first happens near grid index 32 with h_scale = 1
    H = np.array([[1.0 / 40.0, 1.0], [1.0, 0.0]])
    J = np.zeros((0, 2))
    bump = np.array([1])
    cholesky = np.linalg.cholesky
    attempts = []

    def counted(a):
        attempts.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    _, theta_ref = certify_reference(H, J, 1.0, bump, 1.0)
    linear = len(attempts)
    answer = _grid_index(theta_ref, 1.0)
    assert 30 <= answer <= 34
    assert linear == answer + 1

    def count(start=0.0):
        attempts.clear()
        _, theta, reported = _certified_hessian(H, J, 1.0, bump, 1.0, start)
        assert theta == theta_ref
        assert reported == len(attempts)
        return len(attempts)

    assert count() <= int(np.ceil(np.log2(_grid_length(1.0)))) + 1
    assert count(_grid_point(answer, 1.0)) == 2
    assert count(_grid_point(answer - 1, 1.0)) <= 3
    assert count(_grid_point(answer + 1, 1.0)) <= 3


def diagonal_certify_instances(seed, count):
    """Yield (d, J, mu, bump_rows, h_scale): a diagonal H_tilde as its vector d, m = 0.

    Entries come from DIAGONAL_VALUES. Kinds rotate through positive
    rows outside a random bump subset (theta anywhere on the grid), any
    rows outside it (often no theta works) and no bump rows given (every
    row is bumped). h_scale is 1, 3, 1.7e290, whose grid reaches
    1.7e308, so a shifted 8e307 overflows, or 1.7e308, whose limit
    1e18 * (1 + h_scale) is inf, so the grid ends at its largest finite
    point. n <= 10.
    """
    rng = np.random.default_rng(seed)
    values = np.array(DIAGONAL_VALUES)
    for i in range(count):
        n = int(rng.integers(1, 11))
        d = rng.choice(values, size=n)
        kind = i % 3
        if kind == 2:
            bump = np.zeros(0, dtype=int)
        else:
            bump = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            if kind == 0:
                free = np.setdiff1d(np.arange(n), bump)
                d[free] = rng.choice(values[values > 0.0], size=free.size)
        yield d, np.zeros((0, n)), 1.0, bump, float(rng.choice([1.0, 3.0, 1.7e290, 1.7e308]))


def _certify_outcome(fn, *args):
    """(theta, dtype, shape, bytes[, attempts]) of a certification, or the error's type.

    A diagonal G, returned as its vector, is read as its matrix.
    """
    try:
        out = fn(*args)
    except QpInternalError as exc:
        return type(exc).__name__
    G = np.diag(out[0]) if out[0].ndim == 1 else out[0]
    return (float(out[1]), G.dtype.str, G.shape, G.tobytes()) + tuple(out[2:])


def _counted_cholesky(monkeypatch):
    cholesky = np.linalg.cholesky
    calls = []

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def test_diagonal_certification_matches_the_reference_and_cholesky(monkeypatch):
    """The sign test finds Cholesky's theta, matrix and attempt count from every start."""
    calls = _counted_cholesky(monkeypatch)
    fast = []
    thetas = []
    with np.errstate(over="ignore"):
        for d, J, mu, bump, h_scale in diagonal_certify_instances(42, 300):
            H = np.diag(d)
            ref = _certify_outcome(certify_reference, H, J, mu, bump, h_scale)
            answer = _grid_index(ref[0], h_scale) if isinstance(ref, tuple) else 0
            for start in _starts(answer, h_scale):
                calls.clear()
                out = _certify_outcome(_certified_hessian, d, J, mu, bump, h_scale, start)
                assert (out if isinstance(out, str) else out[:4]) == ref, start
                # the sign test calls no Cholesky, also on a base whose
                # symmetrization overflows to inf
                assert not calls
                fast.append(((H, J, mu, bump, h_scale, start), out, bool(np.isinf(d + d).any())))
            thetas.append(ref if isinstance(ref, str) else answer)
        # the same certification of the matrix makes the same attempts
        for args, out, _ in fast:
            assert _certify_outcome(_certified_hessian, *args) == out
    # the family must reach a base whose symmetrization overflows and
    # one whose does not, theta = 0, a shifted theta and a failure
    assert 100 < sum(row[-1] for row in fast) < len(fast) - 1000
    assert thetas.count(0) and thetas.count("QpInternalError")
    assert any(isinstance(t, int) and t > 0 for t in thetas)


def test_off_diagonal_certification_runs_cholesky(monkeypatch):
    """A nonzero or -0.0 off-diagonal pair, or a NaN on a matrix's diagonal,
    runs Cholesky. An inf in a diagonal vector, as an overflowing
    symmetrization leaves it, takes the sign test with Cholesky's outcome;
    a NaN there is outside the driver's contract (see the factor module)."""
    calls = _counted_cholesky(monkeypatch)
    cases = 0
    with np.errstate(all="ignore"):
        for d, J, mu, bump, h_scale in diagonal_certify_instances(43, 120):
            n = d.shape[0]
            controls = []
            if n > 1:
                for off in (1e-3, -0.0):
                    C = np.diag(d)
                    C[0, -1] = C[-1, 0] = off
                    controls.append((C, C))
            for bad in (np.nan, np.inf, -np.inf):
                c = d.copy()
                c[-1] = bad
                controls.append((np.diag(c), np.diag(c)) if bad != bad else (c, np.diag(c)))
            for C, matrix in controls:
                calls.clear()
                out = _certify_outcome(_certified_hessian, C, J, mu, bump, h_scale)
                assert bool(calls) == (C.ndim == 2)
                ref = _certify_outcome(certify_reference, matrix, J, mu, bump, h_scale)
                assert (out if isinstance(out, str) else out[:4]) == ref
                cases += 1
    assert cases > 400
