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
numpy pass.
"""

import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .driver import SolverConfig
from .errors import ProblemFormatError
from .model import NlpProblem

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "name", "n", "objective", "constraints", "start", "config"}
_START_KEYS = {"x", "y"}
# overridable solver settings: every SolverConfig field, with its type
_CONFIG_TYPES = {f.name: f.type for f in fields(SolverConfig)}
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


@dataclass(frozen=True)
class Polynomial:
    """Sum of monomials c * prod(x_i ** e_i) with exact derivatives.

    The value, gradient and Hessian are monomial tables. Their rows
    come from np.nonzero over the exponents, which lists (term, j) and
    (term, j, l) in term-major order, so every entry sums its terms in
    the order of oracle.polynomial_reference and matches it bit for
    bit. The derivative tables are built on first use.
    """

    coeffs: np.ndarray
    expos: np.ndarray

    @property
    def n(self):
        return self.expos.shape[1]

    @cached_property
    def value_table(self):
        index = np.zeros(len(self.coeffs), dtype=np.intp)
        return MonomialTable(self.coeffs, self.expos, index, 1)

    @cached_property
    def gradient_table(self):
        t, j = np.nonzero(self.expos)
        expos = self.expos[t]
        expos[np.arange(t.size), j] -= 1
        return MonomialTable(self.coeffs[t] * self.expos[t, j], expos, j, self.n)

    @cached_property
    def hessian_table(self):
        """Rows for the diagonal (e_j >= 2) and the upper triangle (j < l).

        Each gradient row (t, j) is paired with the l >= j it reaches, so
        the masks take one entry per gradient row and variable.
        """
        E = self.expos
        t, j = np.nonzero(E)
        cols = np.arange(self.n)
        reach = (cols > j[:, None]) | ((cols == j[:, None]) & (E[t, j] >= 2)[:, None])
        r, l = np.nonzero(reach & (E[t] > 0))
        t, j = t[r], j[r]
        rows = np.arange(t.size)
        expos = E[t]
        expos[rows, j] -= 1
        expos[rows, l] -= 1
        # (c * e_j) * (e_j - 1) on the diagonal, (c * e_j) * e_l above it
        coef = (self.coeffs[t] * E[t, j]) * (E[t, l] - (j == l))
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


def build_polynomial_problem(name, objective, constraint_polys, n):
    """Assemble an NlpProblem from parsed polynomials."""
    m = len(constraint_polys)

    def c_fun(x):
        if m == 0:
            return np.zeros(0)
        return np.array([p.value(x) for p in constraint_polys])

    def jac(x):
        if m == 0:
            return np.zeros((0, n))
        return np.vstack([p.gradient(x) for p in constraint_polys])

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
    if data["format_version"] != FORMAT_VERSION:
        _fail(
            f"format_version {data['format_version']!r} not supported "
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

    config = {}
    raw_cfg = data.get("config", {})
    if not isinstance(raw_cfg, dict):
        _fail("'config' must be an object")
    for key, value in raw_cfg.items():
        if key not in _CONFIG_TYPES:
            _fail(f"unknown config field '{key}'")
        want = _CONFIG_TYPES[key]
        if want is bool:
            if not isinstance(value, bool):
                _fail(f"config.{key} must be a boolean")
            config[key] = value
        elif want is int:
            if isinstance(value, bool) or not isinstance(value, int):
                _fail(f"config.{key} must be an integer")
            config[key] = value
        else:
            config[key] = _check_number(value, f"config.{key}")

    problem = build_polynomial_problem(name, objective, constraint_polys, n)
    return ParsedProblem(problem=problem, x0=x0, y0=y0, config=config)
