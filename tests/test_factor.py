import warnings

import numpy as np
import pytest

from conftest import DEFAULTS, kkt_instances, scaled_kkt_instances
from curvsqp.errors import FactorizationBreakdown
from curvsqp.factor import (
    PIVOT_TAGS,
    apply_shift,
    build_kkt,
    convexify,
    eliminate,
    stage1_factorize,
)
from curvsqp.oracle import eigen
from reference import inertia_so_far, reconstruction_error

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


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("H_F, J_F", [(HAND_H, HAND_J), (np.array([1.0, -2.0]), np.zeros((0, 2)))],
                         ids=["matrix", "diagonal"])
def test_build_kkt_rejects_a_penalty_that_is_not_finite_and_positive(H_F, J_F, mu):
    # NaN compares false both ways, so a mu <= 0 test alone lets it through
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        build_kkt(H_F, J_F, mu)


def test_build_kkt_validation():
    with pytest.raises(ValueError):
        build_kkt(HAND_H, HAND_J, 0.0)
    with pytest.raises(ValueError):
        build_kkt(HAND_H, np.zeros((1, 3)), 1.0)
    with pytest.raises(ValueError):
        build_kkt(np.zeros((2, 3)), HAND_J, 1.0)
    # a diagonal H_F takes no dual rows, and must have one entry per column
    with pytest.raises(ValueError, match="diagonal"):
        build_kkt(np.ones(2), HAND_J, 1.0)
    with pytest.raises(ValueError):
        build_kkt(np.ones(3), np.zeros((0, 2)), 1.0)
    assert build_kkt(np.ones(2), np.zeros((0, 2)), 1.0).K.tolist() == [1.0, 1.0]


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
    assert inertia_so_far(factor) == (1, 1, 0)
    assert reconstruction_error(factor) <= 1e-12 * (1.0 + factor.kkt.norm_max)


def test_stage1_fully_pivoted_case():
    factor = stage1_factorize(build_kkt(np.diag([2.0, 3.0]), np.array([[1.0, 0.0]]), 0.5))
    assert factor.S.shape == (0, 0)
    assert inertia_so_far(factor) == (2, 1, 0)
    # independent route: the 3x3 KKT matrix itself
    assert eigen(factor.kkt.K).inertia == (2, 1, 0)


def test_stage1_no_eligible_pivots():
    H = np.diag([-1.0, -2.0])
    factor = stage1_factorize(build_kkt(H, np.zeros((0, 2)), 1.0))
    assert factor.n_piv == 0
    np.testing.assert_array_equal(factor.S, H)
    # the reference elimination's L is the identity: P K P.T is S exactly
    assert reconstruction_error(factor) == 0.0


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
    tiny = 1e-12 * (1.0 + kkt.norm_max)
    _, ptype, psize, _ = eliminate(A, perm, kkt.n_free, tiny)
    blocks, off = [], 0
    for size, code in zip(psize.tolist(), ptype.tolist()):
        blocks.append((A[off:off + size, off:off + size].tobytes(), PIVOT_TAGS[code], off))
        off += size
    return blocks


def test_stage1_blocks_match_the_elimination_records():
    hd = 0
    for H, J, mu in [*kkt_instances(35, 200), *scaled_kkt_instances(36, 200)]:
        kkt = build_kkt(H, J, mu)
        try:
            factor = stage1_factorize(kkt)
        except FactorizationBreakdown as exc:
            factor = exc.partial
        blocks = factor.blocks
        assert [(b.values.tobytes(), b.tag, b.offset) for b in blocks] == _eager_blocks(kkt)
        # the blocks tile the pivoted positions
        assert sum(b.values.shape[0] for b in blocks) == factor.n_piv
        assert factor.counts == {tag: sum(b.tag == tag for b in blocks) for tag in PIVOT_TAGS}
        hd += factor.counts["HD"] > 0
    assert hd > 0


def test_stage1_reconstruction_random():
    for H, J, mu in kkt_instances(32, 200):
        factor = stage1_factorize(build_kkt(H, J, mu))
        assert reconstruction_error(factor) <= 1e-9 * (1.0 + factor.kkt.norm_max)


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
            assert np.max(np.diag(factor.S)) <= 1e-12 * (1.0 + factor.kkt.norm_max)


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
    conv = convexify(factor, DEFAULTS.margin)
    assert conv.delta == 0.0
    np.testing.assert_array_equal(apply_shift(np.diag([2.0, 3.0]), conv.shifted_rows, conv.delta), np.diag([2.0, 3.0]))


def test_convexify_needs_strict_margin():
    # an indefinite Schur complement where delta = |S|_inf exactly fails
    H = np.array([[-1.0, 2.0], [2.0, -1.0]])
    factor = stage1_factorize(build_kkt(H, np.zeros((0, 2)), 1.0))
    np.testing.assert_array_equal(factor.S, H)
    assert eigen(H + 3.0 * np.eye(2)).inertia != (2, 0, 0)
    conv = convexify(factor, margin=0.5)
    assert conv.delta == pytest.approx(4.5)
    assert eigen(apply_shift(H, conv.shifted_rows, conv.delta)).inertia == (2, 0, 0)


def _coupled_kkt_instances(seed, count):
    """Yield (H_F, J_F, mu): indefinite H_F, |F| in 2..10, m in 1..3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nf = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(nf, nf))
        yield 0.5 * (A + A.T), rng.normal(size=(m, nf)), float(10.0 ** rng.uniform(-3.0, 0.0))


def test_convexify_shifts_by_what_s_needs():
    """delta is (1 + margin) * -lambda_min(S), never the larger row-sum-norm
    shift, and gives the shifted KKT matrix exactly |F| positive and m negative
    eigenvalues."""
    margin = DEFAULTS.margin
    shifted = 0
    for H, J, mu in _coupled_kkt_instances(37, 200):
        factor = stage1_factorize(build_kkt(H, J, mu))
        conv = convexify(factor, margin)
        S = factor.S
        if S.shape[0] == 0:
            continue
        shifted += 1
        floor = 1e-8 * (1.0 + factor.kkt.h_scale)
        norm_inf = np.abs(S).sum(axis=1).max()
        lam = eigen(S).lambda_min
        assert conv.delta <= max((1.0 + margin) * norm_inf, floor)
        assert conv.delta > -lam
        # and no more than the margin asks for
        assert conv.delta <= max((1.0 + margin) * max(-lam, 0.0), floor) + 1e-9 * norm_inf
        K = build_kkt(apply_shift(H, conv.shifted_rows, conv.delta), J, mu).K
        assert eigen(K).inertia == (H.shape[0], J.shape[0], 0)
    assert shifted > 150


def test_convexify_reads_a_diagonal_s_as_its_matrix():
    d = np.array([2.0, -3.0, -1.0, 0.5])
    diagonal = stage1_factorize(build_kkt(d, np.zeros((0, 4)), 1.0))
    matrix = stage1_factorize(build_kkt(np.diag(d), np.zeros((0, 4)), 1.0))
    # the least entry of S is not its first
    assert diagonal.S.tolist() == [-1.0, -3.0]
    shift, shift_m = convexify(diagonal, 0.5), convexify(matrix, 0.5)
    assert shift.delta == shift_m.delta == 4.5
    assert (apply_shift(d, shift.shifted_rows, shift.delta) > 0.0).all()


@pytest.mark.parametrize("H_F", [np.array([-np.inf, -1.0]), np.diag([-np.inf, -1.0])],
                         ids=["diagonal", "matrix"])
def test_convexify_of_an_infinite_s_is_infinite_without_lapack(H_F):
    # an inf diagonal makes the pivot threshold inf, so S is all of H_F;
    # eigvalsh on it would give NaN or raise LinAlgError
    factor = stage1_factorize(build_kkt(H_F, np.zeros((0, 2)), 1.0))
    assert factor.S.shape[0] == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conv = convexify(factor, DEFAULTS.margin)
    assert conv.delta == np.inf


def test_inertia_examples():
    assert eigen(np.diag([4.0, 3.0, -0.5])).inertia == (2, 1, 0)
    assert eigen(np.zeros((2, 2))).inertia == (0, 0, 2)
    # the unshifted hand-example KKT matrix: eigenvalues are the roots of
    # (t + 1)(t^2 - 3), so one positive and two negative
    fixture = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, -1.0]])
    assert eigen(fixture).inertia == (1, 2, 0)
    assert eigen(np.zeros((0, 0))).inertia == (0, 0, 0)
