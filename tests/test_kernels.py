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


def _compare(instances):
    """Run both eliminations on every instance; count 2x2 pivots and breakdowns."""
    two_by_two = breakdowns = 0
    for H, J, mu in instances:
        ins_ref = _stage1_inputs(H, J, mu)
        ins = _stage1_inputs(H, J, mu)
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
