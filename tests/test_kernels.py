import numpy as np

import curvsqp.factor as factor
from conftest import kkt_instances, scaled_kkt_instances
from curvsqp.driver import solve
from curvsqp.factor import build_kkt, eliminate
from curvsqp.model import NlpProblem, make_iterate
from curvsqp.oracle import stage1_reference
from curvsqp.problems import get_problem


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


def _spy_on_diagonal_pivots(monkeypatch):
    """Record, per call of factor._diagonal_pivots, whether it took the path."""
    took = []
    original = factor._diagonal_pivots

    def spy(*args):
        k = original(*args)
        took.append(k is not None)
        return k

    monkeypatch.setattr(factor, "_diagonal_pivots", spy)
    return took


def test_diagonal_systems_without_dual_rows_take_the_permutation(monkeypatch):
    took = _spy_on_diagonal_pivots(monkeypatch)
    instances = list(diagonal_kkt_instances(35, 600))
    for H, J, mu in instances:
        took.clear()
        _compare([(H, J, mu)])
        assert took == [True]
    # controls: a nonzero and a -0.0 off-diagonal pair, a NaN and an inf
    # diagonal; each must run the loop
    controls = []
    for H, J, mu in instances[:200]:
        if H.shape[0] < 2:
            continue
        for off in (1e-3, -0.0):
            C = H.copy()
            C[0, -1] = C[-1, 0] = off
            controls.append((C, J, mu))
        for bad in (np.nan, np.inf, -np.inf):
            C = H.copy()
            C[-1, -1] = bad
            controls.append((C, J, mu))
    with np.errstate(all="ignore"):
        for H, J, mu in controls:
            took.clear()
            _compare([(H, J, mu)], _nonfinite_inputs)
            assert took == [False]


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


def test_the_permutation_changes_no_record(monkeypatch):
    """A solve that takes the diagonal path keeps every record of the loop."""
    cases = [_separable_cosine(seed) for seed in range(3)]
    cases.append((get_problem("cosine-saddle"), None))
    took = _spy_on_diagonal_pivots(monkeypatch)
    fast = []
    for problem, v0 in cases:
        took.clear()
        fast.append(solve(problem, v0))
        assert took and all(took)
    monkeypatch.setattr(factor, "_diagonal_pivots", lambda *args: None)
    for (problem, v0), result in zip(cases, fast):
        assert len(result.history) > 1
        assert solve(problem, v0).history == result.history
