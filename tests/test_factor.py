import numpy as np
import pytest

from conftest import kkt_instances, scaled_kkt_instances
from curvsqp.errors import FactorizationBreakdown
from curvsqp.factor import (
    PIVOT_TAGS,
    apply_shift,
    build_kkt,
    convexify,
    eliminate,
    inertia,
    stage1_factorize,
)
from curvsqp.oracle import eigen

HAND_H = np.array([[0.0, 1.0], [1.0, 0.0]])
HAND_J = np.array([[1.0, 1.0]])


def test_build_kkt_layout():
    kkt = build_kkt(HAND_H, HAND_J, 1.0)
    expected = np.array([
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, -1.0],
    ])
    np.testing.assert_array_equal(kkt.K, expected)
    assert kkt.n_free == 2 and kkt.m == 1
    assert kkt.norm_max == 1.0


def test_build_kkt_validation():
    with pytest.raises(ValueError):
        build_kkt(HAND_H, HAND_J, 0.0)
    with pytest.raises(ValueError):
        build_kkt(HAND_H, np.zeros((1, 3)), 1.0)
    with pytest.raises(ValueError):
        build_kkt(np.zeros((2, 3)), HAND_J, 1.0)


def test_stage1_hand_schur_complement():
    """Dual pivot first, one Hessian pivot, Schur complement -3.

    Eliminating the dual row adds the rank-one outer product, turning the
    Hessian block into [[1,2],[2,1]]; a pivot on either diagonal 1 leaves
    1 - 4 = -3 behind.
    """
    factor = stage1_factorize(build_kkt(HAND_H, HAND_J, 1.0))
    np.testing.assert_allclose(factor.S, [[-3.0]], atol=1e-14)
    assert factor.counts == {"H+": 1, "D-": 1, "HD": 0}
    assert factor.n_piv == 2
    assert factor.inertia_so_far == (1, 1, 0)
    assert factor.reconstruction_error() <= 1e-12 * (1.0 + factor.kkt.norm_max)


def test_stage1_fully_pivoted_case():
    factor = stage1_factorize(build_kkt(np.diag([2.0, 3.0]), np.array([[1.0, 0.0]]), 0.5))
    assert factor.S.shape == (0, 0)
    assert factor.inertia_so_far == (2, 1, 0)
    # independent route: the 3x3 KKT matrix itself
    assert eigen(factor.kkt.K).inertia == (2, 1, 0)


def test_stage1_no_eligible_pivots():
    H = np.diag([-1.0, -2.0])
    factor = stage1_factorize(build_kkt(H, np.zeros((0, 2)), 1.0))
    assert factor.n_piv == 0
    np.testing.assert_array_equal(factor.S, H)
    np.testing.assert_array_equal(factor.L, np.eye(2))


def test_stage1_pivot_tags_match_values():
    for H, J, mu in kkt_instances(31, 100):
        factor = stage1_factorize(build_kkt(H, J, mu))
        for blk in factor.blocks:
            if blk.tag == "H+":
                assert blk.values.shape == (1, 1) and blk.values[0, 0] > 0.0
            elif blk.tag == "D-":
                assert blk.values.shape == (1, 1) and blk.values[0, 0] < 0.0
            else:
                assert blk.values.shape == (2, 2)
                vals = np.linalg.eigvalsh(blk.values)
                assert vals[0] < 0.0 < vals[1]


def _eager_blocks(kkt):
    """(values bytes, tag, offset) of each pivot, read off a direct elimination."""
    N = kkt.K.shape[0]
    A = kkt.K.copy()
    perm = np.arange(N, dtype=np.int64)
    ptype = np.zeros(N, dtype=np.int64)
    psize = np.zeros(N, dtype=np.int64)
    tiny = 1e-12 * (1.0 + kkt.norm_max)
    _, n_blocks, _ = eliminate(A, np.eye(N), perm, ptype, psize, kkt.n_free, tiny)
    blocks, off = [], 0
    for size, code in zip(psize[:n_blocks].tolist(), ptype[:n_blocks].tolist()):
        blocks.append((A[off:off + size, off:off + size].tobytes(), PIVOT_TAGS[code], off))
        off += size
    return blocks


def test_stage1_blocks_are_built_on_first_access():
    hd = 0
    for H, J, mu in [*kkt_instances(35, 200), *scaled_kkt_instances(36, 200)]:
        kkt = build_kkt(H, J, mu)
        try:
            factor = stage1_factorize(kkt)
        except FactorizationBreakdown as exc:
            factor = exc.partial
        assert "blocks" not in vars(factor)
        blocks = factor.blocks
        assert factor.blocks is blocks
        assert [(b.values.tobytes(), b.tag, b.offset) for b in blocks] == _eager_blocks(kkt)
        # B is the block diagonal of the blocks, zero elsewhere
        B = np.zeros_like(factor.B)
        for b in blocks:
            size = b.values.shape[0]
            B[b.offset:b.offset + size, b.offset:b.offset + size] = b.values
        assert B.tobytes() == factor.B.tobytes()
        assert factor.counts == {tag: sum(b.tag == tag for b in blocks) for tag in PIVOT_TAGS}
        hd += factor.counts["HD"] > 0
    assert hd > 0


def test_stage1_reconstruction_random():
    for H, J, mu in kkt_instances(32, 200):
        factor = stage1_factorize(build_kkt(H, J, mu))
        assert factor.reconstruction_error() <= 1e-9 * (1.0 + factor.kkt.norm_max)


def test_stage1_consumes_all_dual_rows():
    for H, J, mu in kkt_instances(33, 200):
        factor = stage1_factorize(build_kkt(H, J, mu))
        assert factor.counts["D-"] + factor.counts["HD"] == J.shape[0]
        # S lives on Hessian rows only
        assert np.all(factor.unpivoted_h < H.shape[0])


def test_stage1_schur_diagonal_below_threshold():
    for H, J, mu in kkt_instances(34, 200):
        factor = stage1_factorize(build_kkt(H, J, mu))
        if factor.S.shape[0]:
            assert np.max(np.diag(factor.S)) <= factor.tiny


def test_convexify_hand_delta():
    factor = stage1_factorize(build_kkt(HAND_H, HAND_J, 1.0))
    conv = convexify(factor, margin=0.1)
    assert conv.delta == pytest.approx(3.3, abs=1e-12)
    assert conv.shifted_rows.shape == (1,)
    H_tilde = apply_shift(HAND_H, conv.shifted_rows, conv.delta)
    shifted = build_kkt(H_tilde, HAND_J, 1.0)
    assert eigen(shifted.K).inertia == (2, 1, 0)


def test_convexify_empty_schur_is_identity():
    factor = stage1_factorize(build_kkt(np.diag([2.0, 3.0]), np.array([[1.0, 0.0]]), 0.5))
    conv = convexify(factor)
    assert conv.delta == 0.0
    np.testing.assert_array_equal(apply_shift(np.diag([2.0, 3.0]), conv.shifted_rows, conv.delta), np.diag([2.0, 3.0]))


def test_convexify_needs_strict_margin():
    # an indefinite Schur complement where delta = |S|_inf exactly fails
    H = np.array([[-1.0, 2.0], [2.0, -1.0]])
    factor = stage1_factorize(build_kkt(H, np.zeros((0, 2)), 1.0))
    np.testing.assert_array_equal(factor.S, H)
    assert inertia(H + 3.0 * np.eye(2)) != (2, 0, 0)
    conv = convexify(factor, margin=0.5)
    assert conv.delta == pytest.approx(4.5)
    assert eigen(apply_shift(H, conv.shifted_rows, conv.delta)).inertia == (2, 0, 0)


def test_inertia_examples():
    assert inertia(np.diag([4.0, 3.0, -0.5])) == (2, 1, 0)
    assert inertia(np.zeros((2, 2))) == (0, 0, 2)
    # the unshifted hand-example KKT matrix: eigenvalues are the roots of
    # (t + 1)(t^2 - 3), so one positive and two negative
    fixture = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, -1.0]])
    assert inertia(fixture) == (1, 2, 0)
    assert eigen(fixture).inertia == (1, 2, 0)
    assert inertia(np.zeros((0, 0))) == (0, 0, 0)
