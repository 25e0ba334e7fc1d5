"""Polynomial problem files.

A problem file is JSON with a strict schema: unknown fields are
rejected so typos fail loudly instead of silently running defaults.

    {
      "format_version": 1,
      "name": "bilinear",
      "n": 2,
      "objective": [[1.0, [1, 1]]],
      "constraints": [[[1.0, [1, 0]], [1.0, [0, 1]], [-2.0, [0, 0]]]],
      "start": {"x": [1.0, 1.0], "y": [1.0]},
      "config": {"mu0": 0.1}
    }

objective and each constraint are monomial term lists [coefficient,
exponent-vector]; derivatives are generated analytically from the
exponents, so parsed problems have exact gradients, Jacobians, and
Hessians. Each callback evaluates a precompiled monomial table in one
numpy pass. A file whose constraint terms all have total degree at most
1 gives a problem that declares linear_constraints. config takes
SolverConfig fields and is checked by SolverConfig itself, so a bad
value fails at parse.
"""

import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .api import SolverConfig
from .errors import ProblemFormatError
from .model import NlpProblem

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "name", "n", "objective", "constraints", "start", "config"}
_START_KEYS = {"x", "y"}
# overridable solver settings: every SolverConfig field
_CONFIG_KEYS = {f.name for f in fields(SolverConfig)}
# the monomial tables hold exponents as int64
_MAX_EXPONENT = np.iinfo(np.int64).max
_NO_ENTRIES = np.zeros(0, dtype=np.intp)


class MonomialTable(NamedTuple):
    """Sum of coef[k] * prod(x ** expos[k]) scattered into out[index[k]].

    One row per monomial of a value or of a derivative entry; calling
    the table evaluates every row in one numpy pass and adds the rows
    into a flat output of length size in row order, so each entry
    accumulates its terms in the order the rows were listed. A Hessian
    table fills its upper triangle and then copies out[mirror_from]
    into out[mirror_to], the transposed positions.
    """

    coef: np.ndarray
    expos: np.ndarray
    index: np.ndarray
    size: int
    mirror_from: np.ndarray = _NO_ENTRIES
    mirror_to: np.ndarray = _NO_ENTRIES

    def __call__(self, x):
        terms = self.coef * np.multiply.reduce(x**self.expos, axis=1)
        # bincount adds its weights one at a time in index order
        out = np.bincount(self.index, weights=terms, minlength=self.size)
        out[self.mirror_to] = out[self.mirror_from]
        return out


def _derivative_rows(coef, expos, rows, j):
    """(coef, expos) of d/dx_j of monomial row rows[i] at j[i], for each pair i.

    c * prod(x ** e) differentiates to (c * e_j) * prod(x ** e') with
    e' = e less one in entry j.
    """
    expos = expos[rows]
    at = np.arange(rows.size), j
    coef = coef[rows] * expos[at]
    expos[at] -= 1
    return coef, expos


@dataclass(frozen=True)
class Polynomial:
    """Sum of monomials c * prod(x_i ** e_i) with exact derivatives.

    The value, gradient and Hessian are monomial tables. The gradient
    rows come from np.nonzero over the exponents, which lists (term, j)
    in term-major order, and the Hessian rows from np.nonzero over the
    gradient table's exponents, keeping l >= j, which lists (term, j, l)
    in the same term-major order; each row is one _derivative_rows
    step. So every entry sums its terms in the order of the
    per-monomial loop polynomial_reference in tests/reference.py and
    matches it bit for bit. The derivative tables are built on first
    use.
    """

    coeffs: np.ndarray
    expos: np.ndarray

    @property
    def n(self):
        return self.expos.shape[1]

    @property
    def affine(self):
        """Whether every term has total degree at most 1."""
        # each exponent is at most 1 first, so the row sums cannot overflow
        return bool((self.expos <= 1).all() and (self.expos.sum(axis=1) <= 1).all())

    @cached_property
    def value_table(self):
        index = np.zeros(len(self.coeffs), dtype=np.intp)
        return MonomialTable(self.coeffs, self.expos, index, 1)

    @cached_property
    def gradient_table(self):
        t, j = np.nonzero(self.expos)
        coef, expos = _derivative_rows(self.coeffs, self.expos, t, j)
        return MonomialTable(coef, expos, j, self.n)

    @cached_property
    def hessian_table(self):
        """d/dx_l of each gradient row (t, j) with l >= j: the diagonal and upper triangle."""
        grad = self.gradient_table
        g, l = np.nonzero(grad.expos)
        j = grad.index[g]
        keep = l >= j
        g, j, l = g[keep], j[keep], l[keep]
        coef, expos = _derivative_rows(grad.coef, grad.expos, g, l)
        index, upper = j * self.n + l, j < l
        return MonomialTable(
            coef,
            expos,
            index,
            self.n * self.n,
            mirror_from=index[upper],
            mirror_to=(l * self.n + j)[upper],
        )

    def value(self, x):
        return float(self.value_table(x)[0])

    def gradient(self, x):
        return self.gradient_table(x)

    def hessian(self, x):
        return self.hessian_table(x).reshape(self.n, self.n)


class ParsedProblem(NamedTuple):
    """A problem file: the problem, which carries the start (x0, y0),
    and the file's config entries as SolverConfig stores them."""

    problem: NlpProblem
    x0: np.ndarray
    y0: np.ndarray
    config: dict


def _fail(msg):
    raise ProblemFormatError(msg)


def _check_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where}: expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:  # an integer literal too large for a float
        v = np.inf
    if not np.isfinite(v):
        _fail(f"{where}: value must be finite")
    return v


def _parse_terms(raw, n, where):
    if not isinstance(raw, list) or not raw:
        _fail(f"{where}: expected a non-empty list of [coefficient, exponents] terms")
    coeffs = []
    expos = []
    for t, term in enumerate(raw):
        label = f"{where}, term {t}"
        if not isinstance(term, list) or len(term) != 2:
            _fail(f"{label}: expected [coefficient, exponent-vector]")
        coeffs.append(_check_number(term[0], f"{label} coefficient"))
        evec = term[1]
        if not isinstance(evec, list) or len(evec) != n:
            _fail(f"{label}: exponent vector must have length n={n}")
        row = []
        for i, e in enumerate(evec):
            if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e <= _MAX_EXPONENT:
                _fail(f"{label}: exponent {i} must be a nonnegative integer below 2**63")
            row.append(e)
        expos.append(row)
    return Polynomial(
        coeffs=np.array(coeffs, dtype=float),
        expos=np.array(expos, dtype=np.int64),
    )


def build_polynomial_problem(name, objective, constraint_polys, n, x0=None, y0=None):
    """Assemble an NlpProblem from parsed polynomials, started at (x0, y0).

    The problem declares linear_constraints when every constraint term
    has total degree at most 1, which holds when there are none.
    """
    m = len(constraint_polys)

    def c_fun(x):
        return np.array([p.value(x) for p in constraint_polys], dtype=float)

    def jac(x):
        # the shape is stated, not inferred, so no rows still gives (0, n)
        return np.array([p.gradient(x) for p in constraint_polys], dtype=float).reshape(m, n)

    def hess(x, y):
        H = objective.hessian(x)
        for yi, p in zip(y, constraint_polys):
            H = H + yi * p.hessian(x)
        return H

    return NlpProblem(
        name=name,
        n=n,
        m=m,
        objective=objective.value,
        gradient=objective.gradient,
        constraints=c_fun,
        jacobian=jac,
        hessian=hess,
        x0=x0,
        y0=y0,
        linear_constraints=all(p.affine for p in constraint_polys),
    )


def parse_problem_file(text):
    """Parse problem-file JSON into a ParsedProblem; strict on schema."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        _fail("top level must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        _fail(f"unknown top-level field(s): {', '.join(sorted(unknown))}")
    for required in ("format_version", "name", "n", "objective", "start"):
        if required not in data:
            _fail(f"missing required field '{required}'")
    version = data["format_version"]
    # True and 1.0 compare equal to 1, so the type is checked first
    if isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
        _fail(
            f"format_version {version!r} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    name = data["name"]
    if not isinstance(name, str) or not name:
        _fail("'name' must be a non-empty string")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        _fail("'n' must be a positive integer")

    objective = _parse_terms(data["objective"], n, "objective")
    constraint_polys = []
    raw_cons = data.get("constraints", [])
    if not isinstance(raw_cons, list):
        _fail("'constraints' must be a list of term lists")
    for i, raw in enumerate(raw_cons):
        constraint_polys.append(_parse_terms(raw, n, f"constraint {i}"))
    m = len(constraint_polys)

    start = data["start"]
    if not isinstance(start, dict):
        _fail("'start' must be an object with 'x' and optional 'y'")
    unknown = set(start) - _START_KEYS
    if unknown:
        _fail(f"unknown start field(s): {', '.join(sorted(unknown))}")
    if "x" not in start:
        _fail("'start' needs an 'x' entry")
    raw_x = start["x"]
    if not isinstance(raw_x, list) or len(raw_x) != n:
        _fail(f"start.x must be a list of length n={n}")
    x0 = np.array([_check_number(v, f"start.x[{i}]") for i, v in enumerate(raw_x)])
    if np.min(x0, initial=0.0) < 0.0:
        _fail("start.x must be componentwise nonnegative")
    raw_y = start.get("y", [0.0] * m)
    if not isinstance(raw_y, list) or len(raw_y) != m:
        _fail(f"start.y must be a list of length m={m}")
    y0 = np.array([_check_number(v, f"start.y[{i}]") for i, v in enumerate(raw_y)])

    config = data.get("config", {})
    if not isinstance(config, dict):
        _fail("'config' must be an object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        _fail(f"unknown config field(s): {', '.join(sorted(unknown))}")
    if config:
        try:
            settings = SolverConfig(**config)
        except ValueError as exc:
            raise ProblemFormatError(f"bad config value: {exc}") from exc
        config = {key: getattr(settings, key) for key in config}

    problem = build_polynomial_problem(name, objective, constraint_polys, n, x0, y0)
    return ParsedProblem(problem=problem, x0=x0, y0=y0, config=config)
