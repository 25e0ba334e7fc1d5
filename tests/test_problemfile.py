"""Problem-file monomial tables against the per-monomial reference loop."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from curvsqp.driver import solve
from curvsqp.errors import ProblemFormatError
from curvsqp.problemfile import Polynomial, build_polynomial_problem, parse_problem_file
from reference import polynomial_reference


def _random_polynomial(rng, n):
    """Up to 25 terms, exponents up to 5, about half of them zero."""
    terms = int(rng.integers(1, 26))
    expos = rng.integers(0, 6, size=(terms, n))
    expos[rng.random((terms, n)) < 0.5] = 0
    return Polynomial(coeffs=rng.standard_normal(terms), expos=expos.astype(np.int64))


def _random_point(rng, n, scale=2.0):
    x = rng.uniform(0.0, scale, n)
    x[rng.random(n) < 0.2] = 0.0
    return x


def _assert_within_ulps(a, b, ulps, scale):
    a, b = np.asarray(a), np.asarray(b)
    assert np.all(np.abs(a - b) <= ulps * np.spacing(scale))


def test_tables_match_the_per_monomial_loop():
    rng = np.random.default_rng(20)
    for case in range(600):
        n = int(rng.integers(1, 13))
        poly = _random_polynomial(rng, n)
        x = _random_point(rng, n)
        f, g, H = polynomial_reference(poly.coeffs, poly.expos, x)
        got = (poly.value(x), poly.gradient(x), poly.hessian(x))
        if n >= 2:
            assert got[0] == f, case
            assert np.array_equal(got[1], g), case
            assert np.array_equal(got[2], H), case
        else:
            # at n = 1 the loop raises length-1 arrays to a power, which
            # numpy sends down its scalar pow path, while the table's
            # (terms, 1) array takes the SIMD path: each power may differ
            # in its last bit. With k terms summed, the two sums then
            # differ by at most 2k + 1 ulps of the sum of |terms| (x >= 0,
            # so that sum is the loop run on |coefficients|), however
            # much the terms cancel.
            k = len(poly.coeffs)
            sums = polynomial_reference(np.abs(poly.coeffs), poly.expos, x)
            for ours, ref, scale in zip(got, (f, g, H), sums):
                _assert_within_ulps(ours, ref, 2 * k + 1, scale)


def test_problem_callbacks_match_the_loop_per_polynomial():
    # the constraint, Jacobian and Lagrangian Hessian callbacks
    # reproduce the loop polynomial by polynomial, then H + y_i * H_i
    rng = np.random.default_rng(21)
    for case in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 4))
        objective = _random_polynomial(rng, n)
        constraints = [_random_polynomial(rng, n) for _ in range(m)]
        problem = build_polynomial_problem("random", objective, constraints, n)
        x, y = _random_point(rng, n), rng.standard_normal(m)
        f, g, H = polynomial_reference(objective.coeffs, objective.expos, x)
        refs = [polynomial_reference(p.coeffs, p.expos, x) for p in constraints]
        for yi, (_, _, Hi) in zip(y, refs):
            H = H + yi * Hi
        assert problem.objective(x) == f, case
        assert np.array_equal(problem.gradient(x), g), case
        assert np.array_equal(problem.constraints(x), np.array([r[0] for r in refs]).reshape(m))
        assert np.array_equal(problem.jacobian(x), np.array([r[1] for r in refs]).reshape(m, n))
        assert np.array_equal(problem.hessian(x, y), H), case


def test_a_file_without_constraints_gives_empty_values_of_the_declared_shape():
    doc = {"format_version": 1, "name": "free", "n": 3,
           "objective": [[1.0, [2, 0, 0]]], "start": {"x": [1.0, 1.0, 1.0]}}
    parsed = parse_problem_file(json.dumps(doc))
    assert parsed.problem.m == 0
    assert parsed.problem.constraints(parsed.x0).shape == (0,)
    assert parsed.problem.jacobian(parsed.x0).shape == (0, 3)


# the built-in saddle-line as a file: f = x1*x2 on x1 + x2 = 2
_SADDLE_LINE = {
    "format_version": 1, "name": "saddle-line", "n": 2,
    "objective": [[1.0, [1, 1]]],
    "constraints": [[[1.0, [1, 0]], [1.0, [0, 1]], [-2.0, [0, 0]]]],
    "start": {"x": [1.0, 1.0], "y": [1.0]},
}


@pytest.mark.parametrize(
    "constraints, linear",
    [
        ([[[1.0, [1, 0]], [1.0, [0, 1]], [-2.0, [0, 0]]], [[3.0, [0, 1]]]], True),
        ([[[1.0, [1, 0]], [-2.0, [0, 0]]], [[1.0, [0, 1]], [1.0, [1, 1]]]], False),
        ([[[1.0, [0, 2]], [-1.0, [0, 0]]]], False),
        # the row sum 2**63 would wrap to a negative int64
        ([[[1.0, [2**62, 2**62]]]], False),
        ([], True),
    ],
    ids=["affine", "one-product", "one-square", "wrapping-degree", "no-rows"],
)
def test_constraints_of_degree_at_most_one_are_declared_linear(constraints, linear):
    doc = {**_SADDLE_LINE, "constraints": constraints,
           "start": {"x": [1.0, 1.0], "y": [0.0] * len(constraints)}}
    assert parse_problem_file(json.dumps(doc)).problem.linear_constraints is linear


def test_a_declared_linear_file_saves_one_hessian_per_curvature_step():
    parsed = parse_problem_file(json.dumps(_SADDLE_LINE))
    assert parsed.problem.linear_constraints
    runs = []
    for declared in (True, False):
        base = dataclasses.replace(parsed.problem, linear_constraints=declared)
        calls = []

        def hessian(x, y, base=base, calls=calls):
            calls.append(1)
            return base.hessian(x, y)

        runs.append((solve(dataclasses.replace(base, hessian=hessian)), len(calls)))
    (result, hessians), (undeclared, undeclared_hessians) = runs
    assert result.history == undeclared.history
    stepped = [
        rec for rec in result.history
        if rec.alpha > 0.0 and (rec.norm_dv > 0.0 or rec.norm_u > 0.0)
    ]
    curvature_steps = sum(1 for rec in result.history if rec.norm_u > 0.0)
    assert curvature_steps > 0
    assert hessians == 1 + len(stepped)
    assert undeclared_hessians == hessians + curvature_steps


def _categories(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, {w.category for w in caught}


def test_overflow_matches_the_loop_and_warns_no_new_category():
    rng = np.random.default_rng(22)
    for case in range(200):
        n = int(rng.integers(2, 7))
        poly = _random_polynomial(rng, n)
        # large enough that x**5 and the products overflow to inf, and
        # opposite infinities meet in the sums as nan
        x = _random_point(rng, n, scale=1e80)
        ref, ref_warned = _categories(lambda: polynomial_reference(poly.coeffs, poly.expos, x))
        got, warned = _categories(lambda: (poly.value(x), poly.gradient(x), poly.hessian(x)))
        assert warned <= ref_warned, case
        for ours, theirs in zip(got, ref):
            assert np.array_equal(ours, theirs, equal_nan=True), case


def test_derivative_tables_are_built_on_first_use():
    poly = Polynomial(coeffs=np.array([2.0, -1.0]), expos=np.array([[2, 1], [0, 3]]))
    assert "gradient_table" not in vars(poly) and "hessian_table" not in vars(poly)
    poly.value(np.ones(2))
    assert "gradient_table" not in vars(poly) and "hessian_table" not in vars(poly)
    np.testing.assert_array_equal(poly.hessian(np.ones(2)), [[4.0, 4.0], [4.0, -6.0]])
    assert "hessian_table" in vars(poly)


def test_sparse_hessian_table_at_moderate_n():
    # 300 terms of at most three variables each out of n = 400: the
    # table has one row per term and Hessian entry it reaches, and is
    # built in memory proportional to those rows, not terms * n * n
    rng = np.random.default_rng(23)
    n, terms = 400, 300
    expos = np.zeros((terms, n), dtype=np.int64)
    for row in expos:
        k = int(rng.integers(1, 4))
        row[rng.choice(n, size=k, replace=False)] = rng.integers(1, 5, k)
    poly = Polynomial(coeffs=rng.standard_normal(terms), expos=expos)
    x = _random_point(rng, n)

    tracemalloc.start()
    try:
        table = poly.hessian_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nz = [np.flatnonzero(e) for e in expos]
    assert len(table.coef) == sum(
        len(z) * (len(z) - 1) // 2 + int(np.sum(e[z] >= 2)) for e, z in zip(expos, nz)
    )
    assert peak <= 4 * table.expos.nbytes

    f, g, H = polynomial_reference(poly.coeffs, poly.expos, x)
    assert poly.value(x) == f
    assert np.array_equal(poly.gradient(x), g)
    assert np.array_equal(poly.hessian(x), H)


@pytest.mark.parametrize("version", [True, 1.0])
def test_format_version_must_be_an_integer(version):
    """A bool or a float that equals 1 is not the integer format version 1."""
    doc = {"format_version": version, "name": "free", "n": 1,
           "objective": [[1.0, [2]]], "start": {"x": [1.0]}}
    with pytest.raises(ProblemFormatError, match="format_version"):
        parse_problem_file(json.dumps(doc))
    doc["format_version"] = 1
    assert parse_problem_file(json.dumps(doc)).problem.n == 1
