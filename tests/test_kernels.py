import dataclasses

import numpy as np
import pytest

import curvsqp.driver as driver
import curvsqp.factor as factor
from conftest import kkt_instances, scaled_kkt_instances, spy_on_diagonal_entries
from curvsqp.curvature import extract_direction
from curvsqp.driver import SolveStatus, second_order_certificate, solve
from curvsqp.factor import build_kkt, convexify, diagonal_entries, eliminate, stage1_factorize
from curvsqp.model import NlpProblem, make_iterate
from curvsqp.problems import get_problem
from curvsqp.workset import estimate, restrict_principal
from reference import diagonal_matrix, stage1_reference


def _stage1_inputs(H, J, mu):
    kkt = build_kkt(H, J, mu)
    N = kkt.K.shape[0]
    A = kkt.K.copy()
    L = np.eye(N)
    perm = np.arange(N, dtype=np.int64)
    ptype = np.zeros(N, dtype=np.int64)
    psize = np.zeros(N, dtype=np.int64)
    tiny = 1e-12 * (1.0 + kkt.norm_max)
    return A, L, perm, ptype, psize, kkt.n_free, tiny


def _assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _compare(instances, inputs=_stage1_inputs):
    """Run both eliminations on every instance; count 2x2 pivots and breakdowns."""
    two_by_two = breakdowns = 0
    for H, J, mu in instances:
        ins_ref = inputs(H, J, mu)
        ins = inputs(H, J, mu)
        out_ref = stage1_reference(*ins_ref)
        out = eliminate(*ins)
        assert out == out_ref
        for a, b in zip(ins[:5], ins_ref[:5]):
            _assert_bitwise_equal(a, b)
        _, npiv, status = out_ref
        two_by_two += int(np.any(ins_ref[4][:npiv] == 2))
        breakdowns += status
    return two_by_two, breakdowns


def test_elimination_matches_the_reference():
    _compare(kkt_instances(32, 600))


def test_elimination_matches_the_reference_on_scaled_systems():
    two_by_two, breakdowns = _compare(scaled_kkt_instances(33, 400))
    # the family must keep covering both branches the random one misses
    assert two_by_two > 0
    assert breakdowns > 0


def test_a_cross_pivot_whose_dual_row_sits_at_k_matches_the_reference():
    # pivots H+ (x0), H+ (x2) and D- (the second dual row, which x0's
    # pivot made admissible); at k = 3 no 1x1 is left, and the 2x2 pairs
    # x1 with the first dual row (original index 3), which sits at
    # position k: swapping x1 into k moves the dual row to x1's place
    H = np.diag([4.0, 0.0, 1.0])
    J = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert _compare([(H, J, 1e-300)]) == (1, 0)


def nonfinite_kkt_instances(seed, count):
    """Yield (H_F, J_F, mu) triples with NaN and +-inf on the H diagonal.

    Every instance gets one to three NaN diagonal entries and, on half
    of them, an inf or -inf entry too; m is 0 on even instances and 1 to
    4 on odd ones, so the elimination meets the NaNs both while dual
    rows are left and after the last one. |F| <= 12.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        nf = int(rng.integers(2, 13))
        m = 0 if i % 2 == 0 else int(rng.integers(1, 5))
        mu = float(10.0 ** rng.uniform(-3.0, 0.0))
        A = rng.normal(size=(nf, nf))
        H = 0.5 * (A + A.T) + (i % 3) * np.eye(nf)
        rows = rng.choice(nf, size=min(nf, int(rng.integers(1, 4))), replace=False)
        H[rows, rows] = np.nan
        if i % 4 >= 2:
            H[rows[0], rows[0]] = rng.choice([np.inf, -np.inf])
        yield H, rng.normal(size=(m, nf)), mu


def _nonfinite_inputs(H, J, mu):
    """_stage1_inputs with the threshold taken over the finite entries.

    stage1_factorize's threshold is NaN or inf on such a matrix, which
    admits no pivot at all; a finite one lets the elimination run into
    the non-finite diagonals.
    """
    A, L, perm, ptype, psize, nh, _ = _stage1_inputs(H, J, mu)
    tiny = 1e-12 * (1.0 + np.max(np.abs(A), where=np.isfinite(A), initial=0.0))
    return A, L, perm, ptype, psize, nh, tiny


def test_elimination_matches_the_reference_with_nonfinite_diagonals():
    instances = list(nonfinite_kkt_instances(34, 400))
    with np.errstate(all="ignore"):
        _compare(instances, _nonfinite_inputs)
        # instances that pivot with a NaN diagonal still left, m = 0 and m > 0
        past_nan = [0, 0]
        for H, J, mu in instances:
            ins = _nonfinite_inputs(H, J, mu)
            k, npiv, _ = stage1_reference(*ins)
            past_nan[J.shape[0] > 0] += bool(npiv and np.isnan(np.diagonal(ins[0])[k:]).any())
    assert past_nan[0] > 100 and past_nan[1] > 100


def diagonal_kkt_instances(seed, count):
    """Yield (H_F, J_F, mu) triples with a diagonal H_F and no dual rows.

    Diagonals are drawn from a short list, so ties are common, with +0.0
    and -0.0 among them; instance kinds cycle through entries at and one
    ulp above the pivot threshold, no entry above the threshold, and
    |F| = 1. |F| <= 12.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = i % 4
        nf = 1 if kind == 3 else int(rng.integers(2, 13))
        d = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0], size=nf)
        if kind in (1, 2):
            # d[0] fixes max |d|, so the threshold is 1e-12 * (1 + |d[0]|)
            d[0] = 3.0 if kind == 1 else -2.0
            tiny = 1e-12 * (1.0 + abs(d[0]))
            if kind == 2:
                d = np.minimum(d, 0.0)
            rows = 1 + rng.permutation(nf - 1)[:3]
            d[rows] = [tiny, np.nextafter(tiny, np.inf) if kind == 1 else tiny, tiny][:rows.size]
        yield np.diag(d), np.zeros((0, nf)), float(10.0 ** rng.uniform(-3.0, 0.0))


def _stage1_of_diagonal(d, mu):
    """stage1_factorize of the diagonal d, given as a vector, against the
    reference elimination of its matrix, bit for bit.

    A diagonal factor must hold the reference's A and S as their
    diagonals, +0.0 being all the reference holds off them, and stands
    for the identity L.
    """
    n = d.shape[0]
    J = np.zeros((0, n))
    ins = _stage1_inputs(np.diag(d), J, mu)
    k, npiv, _ = stage1_reference(*ins)
    A, L, perm, ptype, psize = ins[:5]
    got = stage1_factorize(build_kkt(d, J, mu))
    assert got.L is None and got.A.ndim == 1 and got.S.ndim == 1
    got_A, got_L, got_S = diagonal_matrix(got.A), np.eye(n), diagonal_matrix(got.S)
    assert (got.n_piv, got.ptype.size) == (k, npiv)
    for a, b in ((got_A, A), (got_L, L), (got.perm, perm), (got.ptype, ptype[:npiv]),
                 (got.psize, psize[:npiv])):
        _assert_bitwise_equal(a, b)
    S = A[k:, k:]
    _assert_bitwise_equal(got_S, 0.5 * (S + S.T))
    return got


def test_diagonal_systems_without_dual_rows_take_the_permutation():
    instances = list(diagonal_kkt_instances(35, 600))
    for H, J, mu in instances:
        got = _stage1_of_diagonal(H.diagonal().copy(), mu)
        # the pivot blocks read off a diagonal factor are its 1x1 entries
        blocks = got.blocks
        assert [(b.values.shape, b.tag, b.offset) for b in blocks] == \
            [((1, 1), "H+", i) for i in range(got.n_piv)]
        assert [b.values[0, 0] for b in blocks] == got.A[:got.n_piv].tolist()
    # controls: an inf diagonal, as an overflowing doubling leaves it,
    # and a NaN, which the driver never hands over, keep the loop's bits
    # too: their thresholds admit no pivot on either route
    controls = []
    for H, J, mu in instances[:200]:
        for bad in (np.nan, np.inf, -np.inf):
            d = H.diagonal().copy()
            d[-1] = bad
            controls.append((d, mu))
    with np.errstate(all="ignore"):
        for d, mu in controls:
            assert _stage1_of_diagonal(d, mu).n_piv == 0


@pytest.mark.parametrize(
    "d, perm",
    [
        # the first swap moves row 0 behind its twin, row 1; a stable
        # descending argsort would give [2, 0, 1]
        ([1.0, 1.0, 2.0], [2, 1, 0]),
        # the second swap moves row 0 behind its twin, row 2; a stable
        # descending argsort would give [1, 3, 0, 2]
        ([1.0, 3.0, 1.0, 2.0], [1, 3, 2, 0]),
    ],
)
def test_the_permutation_takes_ties_in_the_order_the_loop_does(d, perm):
    got = _stage1_of_diagonal(np.array(d), 1.0)
    assert got.perm.tolist() == perm


def test_a_diagonal_whose_doubling_overflows_takes_the_permutation():
    # build_kkt's own symmetrization would overflow first, so K is set
    # directly; its threshold 1e-12 * (1 + 1.7e308) admits no pivot, and
    # S + S overflows on the -1.7e308 entry as S + S.T does on the
    # matrix, so the permutation keeps the loop's bits
    d = np.array([2.0, -1.7e308, 1.0])
    kkt = build_kkt(np.ones(3), np.zeros((0, 3)), 1.0)._replace(K=d, norm_max=1.7e308)
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = stage1_factorize(kkt)
    with pytest.warns(RuntimeWarning, match="overflow"):
        matrix = stage1_factorize(kkt._replace(K=diagonal_matrix(d)))
    assert got.L is None and got.n_piv == matrix.n_piv == 0
    for a, b in ((diagonal_matrix(got.A), matrix.A), (diagonal_matrix(got.S), matrix.S),
                 (got.perm, matrix.perm)):
        _assert_bitwise_equal(a, b)
    assert got.S.tolist() == [2.0, -np.inf, 1.0]


def test_the_shift_and_direction_of_a_diagonal_factor_are_the_loops():
    """convexify and extract_direction read a diagonal factor with the bits of its matrix.

    The instances' diagonals tie often (|S| too), so the direction must
    come from the first largest |S| in pivot order, as the matrix's
    row-major search finds it; half of them put the first variable on
    its bound, so the direction is embedded around an active entry.
    """
    directions = 0
    for i, (H, J, mu) in enumerate(diagonal_kkt_instances(36, 600)):
        n = H.shape[0]
        x = np.ones(n)
        x[0] = 0.0 if i % 2 and n > 1 else 1.0
        ws = estimate(x, 0.5, 1e-2)
        d = H.diagonal().copy()
        got = stage1_factorize(build_kkt(restrict_principal(d, ws), J[:, ws.free], mu))
        matrix = stage1_factorize(build_kkt(restrict_principal(H, ws), J[:, ws.free], mu))
        assert got.L is None and matrix.L is not None
        shift, shift_m = convexify(got, 0.5), convexify(matrix, 0.5)
        assert repr(shift.delta) == repr(shift_m.delta)
        _assert_bitwise_equal(shift.shifted_rows, shift_m.shifted_rows)
        u, u_m = extract_direction(got, ws, H, J), extract_direction(matrix, ws, H, J)
        assert (u.exists, u.pivot_indices) == (u_m.exists, u_m.pivot_indices)
        assert repr((u.curvature_B, u.rayleigh, u.rho)) == \
            repr((u_m.curvature_B, u_m.rayleigh, u_m.rho))
        _assert_bitwise_equal(u.u_hat, u_m.u_hat)
        _assert_bitwise_equal(u.w_hat, u_m.w_hat)
        directions += u.exists
    assert directions > 200


def _separable_cosine(seed, n=6):
    """sum(w_i cos x_i) with no equality rows, started near its 2*pi saddle."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n)
    x0 = 2.0 * np.pi + rng.uniform(-0.05, 0.05, n)
    problem = NlpProblem(
        name="separable-cosine",
        n=n,
        m=0,
        objective=lambda x: float(w @ np.cos(x)),
        gradient=lambda x: -w * np.sin(x),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, n)),
        hessian=lambda x, y: np.diag(-w * np.cos(x)),
    )
    return problem, make_iterate(x0, np.zeros(0))


def _diagonal_cases():
    """Three seeded n = 6 separable cosines and cosine-saddle."""
    cases = [_separable_cosine(seed) for seed in range(3)]
    cases.append((get_problem("cosine-saddle"), None))
    return cases


def _spy_on_stage1(monkeypatch):
    """Record, per stage1_factorize call, whether its factor is a diagonal one."""
    took = []
    original = factor.stage1_factorize

    def spy(kkt):
        got = original(kkt)
        took.append(got.L is None)
        return got

    monkeypatch.setattr(driver, "stage1_factorize", spy)
    return took


def _records(history):
    """Every field of every record, floats by repr, so NaN and -0.0 count too."""
    return [repr(dataclasses.astuple(rec)) for rec in history]


def _decline(monkeypatch):
    """Switch the diagonal route off: the driver's one test declines."""
    monkeypatch.setattr(driver, "diagonal_entries", lambda A: None)


def test_the_diagonal_routes_change_no_record(monkeypatch):
    """One diagonal test per iteration; the vectors keep every record of the matrix routes."""
    took = spy_on_diagonal_entries(monkeypatch, driver)
    stage1 = _spy_on_stage1(monkeypatch)
    fast = []
    for problem, v0 in _diagonal_cases():
        took.clear()
        stage1.clear()
        result = solve(problem, v0)
        fast.append(result)
        # the driver's one decision, once per iteration, and stage 1 on
        # its diagonal every time
        assert len(result.history) > 1
        assert took == [True] * len(result.history)
        assert stage1 == took
    _decline(monkeypatch)
    for (problem, v0), result in zip(_diagonal_cases(), fast):
        stage1.clear()
        assert _records(solve(problem, v0).history) == _records(result.history)
        assert stage1 and not any(stage1)


def test_the_permutation_changes_no_record(monkeypatch):
    """Stage 1's permutation keeps every record of the loop on the same diagonals."""
    stage1 = _spy_on_stage1(monkeypatch)
    fast = []
    for problem, v0 in _diagonal_cases():
        stage1.clear()
        fast.append(solve(problem, v0))
        assert stage1 and all(stage1)
    # every diagonal K now runs the loop on its matrix; the driver still
    # takes the diagonal route everywhere else
    spied = driver.stage1_factorize
    monkeypatch.setattr(driver, "stage1_factorize",
                        lambda kkt: spied(kkt._replace(K=diagonal_matrix(kkt.K))))
    for (problem, v0), result in zip(_diagonal_cases(), fast):
        stage1.clear()
        assert len(result.history) > 1
        assert _records(solve(problem, v0).history) == _records(result.history)
        assert stage1 and not any(stage1)


def test_the_certificate_takes_the_diagonal_route_bit_for_bit(monkeypatch):
    """second_order_certificate at each point of the solves, with and without the route."""
    points = []
    for problem, v0 in _diagonal_cases():
        result = solve(problem, v0)
        points += [(problem, make_iterate(rec.x, rec.y)) for rec in result.history]
        points.append((problem, result.iterate))
    took = spy_on_diagonal_entries(monkeypatch, driver)
    fast = []
    for problem, point in points:
        took.clear()
        fast.append(second_order_certificate(problem, point, 0.1))
        assert took == [True]
    _decline(monkeypatch)
    for (problem, point), (ratio, ws, exists) in zip(points, fast):
        ratio_m, ws_m, exists_m = second_order_certificate(problem, point, 0.1)
        assert repr((ratio_m, exists_m)) == repr((ratio, exists))
        assert ws_m.active.tobytes() == ws.active.tobytes()
    # the points include saddles with a direction and minimizers without
    assert {exists for _, _, exists in fast} == {True, False}


def _diagonal_with(d, off=None):
    """An unconstrained quadratic 1/2 sum(d_i x_i^2) - sum(x_i) with Hessian diag(d),
    started at x = 1; off, when given, is the (0, 1) and (1, 0) Hessian entry."""
    d = np.array(d)
    H = np.diag(d)
    if off is not None:
        H[0, 1] = H[1, 0] = off
    n = d.shape[0]
    problem = NlpProblem(
        name="diagonal-quadratic",
        n=n,
        m=0,
        objective=lambda x: float(0.5 * (d * x) @ x - np.add.reduce(x)),
        gradient=lambda x: d * x - 1.0,
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, n)),
        hessian=lambda x, y: H.copy(),
        x0=np.ones(n),
    )
    return problem


def test_the_diagonal_test_declines_off_diagonal_and_non_finite_entries():
    instances = list(diagonal_kkt_instances(37, 200))
    for H, _, _ in instances:
        diag = diagonal_entries(H)
        assert diag.tobytes() == H.diagonal().tobytes()
    declined = 0
    for H, _, _ in instances:
        controls = []
        if H.shape[0] > 1:
            for off in (1e-3, -0.0, np.nan):
                C = H.copy()
                C[0, -1] = C[-1, 0] = off
                controls.append(C)
        for bad in (np.nan, np.inf, -np.inf):
            C = H.copy()
            C[-1, -1] = bad
            controls.append(C)
        for C in controls:
            assert diagonal_entries(C) is None
            declined += 1
    assert declined > 800


@pytest.mark.parametrize("off, takes", [(None, True), (-0.0, False), (1e-3, False)],
                         ids=["overflowing-diagonal", "negative-zero-pair", "coupled-pair"])
def test_declined_and_overflowing_diagonals_keep_the_matrix_bits(monkeypatch, off, takes):
    """1.7e308 on H's diagonal overflows 0.5 * (d + d) to inf, which the
    vector routes carry with the matrix routes' bits. A -0.0 or nonzero
    off-diagonal pair makes the driver's test decline, and the matrix
    routes run. Either way the records are the matrix route's."""
    problem = _diagonal_with([1.7e308, 2.0, -1.0], off)
    took = spy_on_diagonal_entries(monkeypatch, driver)
    stage1 = _spy_on_stage1(monkeypatch)
    lapack = []
    for name in ("cholesky", "solve"):
        original = getattr(np.linalg, name)

        def counted(*args, name=name, original=original):
            lapack.append(name)
            return original(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    with np.errstate(all="ignore"):
        fast = solve(problem)
        assert took == [takes] * len(fast.history)
        fast_lapack = lapack[:]
        lapack.clear()
        _decline(monkeypatch)
        slow = solve(problem)
    if not takes:
        # stage 1, the certification and the QP ran the matrix routes
        assert stage1 and not any(stage1)
        assert fast_lapack == lapack and "cholesky" in lapack and "solve" in lapack
    assert (fast.status, fast.message) == (slow.status, slow.message)
    assert _records(fast.history) == _records(slow.history)


def _overflow_family():
    """Diagonal quadratics (_diagonal_with) with entries at the top of the float range.

    0.5 * (d + d) overflows to +-inf on 9e307 and above; 8e307 doubles
    to a finite value that later sums overflow. The four fixed diagonals
    end qp-failure at the first QP, and [8e307, -3, 1] after 184
    iterations as line-search-failure with N_k = nan. 40 seeded
    diagonals with n = 2..6 follow.
    """
    diagonals = [[1.7e308, 2.0, -1.0], [-1.7e308, 2.0, -1.0], [1e308, -1e308, 1.0],
                 [8e307, -3.0, 1.0]]
    rng = np.random.default_rng(0)
    values = np.array([1.7e308, -1.7e308, 9e307, -9e307, -2.0, -1.0, 0.5, 1.0, 3.0])
    for _ in range(40):
        diagonals.append(rng.choice(values, size=int(rng.integers(2, 7))))
    return [_diagonal_with(d) for d in diagonals]


def test_overflowing_diagonals_keep_the_matrix_records(monkeypatch):
    """Each solve of the overflow family keeps its status, message and records
    when the driver's test declines every diagonal."""
    with np.errstate(all="ignore"):
        fast = [solve(problem) for problem in _overflow_family()]
        _decline(monkeypatch)
        slow = [solve(problem) for problem in _overflow_family()]
    for a, b in zip(fast, slow):
        assert (a.status, a.message) == (b.status, b.message)
        assert _records(a.history) == _records(b.history)
    assert fast[0].status == SolveStatus.QP_FAILURE and len(fast[0].history) == 1
    assert fast[3].status == SolveStatus.LINE_SEARCH_FAILURE
    assert fast[3].iterations == 184 and "N_k = nan" in fast[3].message
    assert {r.status for r in fast} >= {SolveStatus.QP_FAILURE, SolveStatus.LINE_SEARCH_FAILURE,
                                        SolveStatus.EVALUATION_ERROR,
                                        SolveStatus.SECOND_ORDER_OPTIMAL}


def _spy_on_diagonal_arguments(monkeypatch):
    """Record (name, copy) of each 1-D first argument the driver hands
    build_kkt, _certified_hessian and solve_qp: H_F, H_tilde and G."""
    seen = []
    for name in ("build_kkt", "_certified_hessian", "solve_qp"):
        original = getattr(driver, name)

        def spy(A, *args, name=name, original=original, **kwargs):
            if A.ndim == 1:
                seen.append((name, A.copy()))
            return original(A, *args, **kwargs)

        monkeypatch.setattr(driver, name, spy)
    return seen


def _precondition_breaches(seen):
    """The recorded diagonals outside the factor module's precondition: a
    NaN anywhere, or a G with an entry that is not > 0."""
    return [(name, d) for name, d in seen
            if np.isnan(d).any() or (name == "solve_qp" and not (d > 0.0).all())]


def _solve_diagonal_and_overflow_cases():
    with np.errstate(all="ignore"):
        for problem, v0 in _diagonal_cases():
            solve(problem, v0)
        for problem in _overflow_family():
            solve(problem)


def test_the_kernels_get_no_nan_and_a_positive_certified_diagonal(monkeypatch):
    """The precondition the kernels' vector routes rely on holds on every call."""
    seen = _spy_on_diagonal_arguments(monkeypatch)
    _solve_diagonal_and_overflow_cases()
    assert _precondition_breaches(seen) == []
    # build_kkt gets ev.H's finite diagonal, some of whose doublings
    # overflow; the certification and the QP get some that hold +inf
    H_F = [d for got, d in seen if got == "build_kkt"]
    assert all(np.isfinite(d).all() for d in H_F)
    assert any((np.abs(d) > 0.5 * np.finfo(float).max).any() for d in H_F)
    for name in ("_certified_hessian", "solve_qp"):
        assert any(np.isposinf(d).any() for got, d in seen if got == name), name


def test_the_precondition_spy_sees_a_planted_nan(monkeypatch):
    """A NaN slipped into the driver's diagonal shows up as a breach."""
    seen = _spy_on_diagonal_arguments(monkeypatch)
    original = driver.diagonal_entries

    def with_nan(A):
        diag = original(A)
        if diag is not None:
            diag = diag.copy()
            diag[-1] = np.nan
        return diag

    monkeypatch.setattr(driver, "diagonal_entries", with_nan)
    _solve_diagonal_and_overflow_cases()
    assert _precondition_breaches(seen)
