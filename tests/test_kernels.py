import numpy as np

from conftest import kkt_instances, scaled_kkt_instances
from curvsqp.factor import build_kkt, eliminate
from curvsqp.oracle import stage1_reference


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
