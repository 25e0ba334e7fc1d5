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
Hessians.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .driver import SolverConfig
from .errors import ProblemFormatError
from .model import NlpProblem

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "name", "n", "objective", "constraints", "start", "config"}
_START_KEYS = {"x", "y"}
# overridable solver settings: every SolverConfig field, with its type
_CONFIG_TYPES = {f.name: f.type for f in fields(SolverConfig)}


@dataclass(frozen=True)
class Polynomial:
    """Sum of monomials c * prod(x_i ** e_i) with exact derivatives."""

    coeffs: np.ndarray
    expos: np.ndarray

    @property
    def n(self):
        return self.expos.shape[1]

    def value(self, x):
        total = 0.0
        for c, e in zip(self.coeffs, self.expos):
            total += c * float(np.prod(x**e))
        return float(total)

    def gradient(self, x):
        g = np.zeros(self.n)
        for c, e in zip(self.coeffs, self.expos):
            for j in np.flatnonzero(e):
                ej = e.copy()
                ej[j] -= 1
                g[j] += c * e[j] * float(np.prod(x**ej))
        return g

    def hessian(self, x):
        H = np.zeros((self.n, self.n))
        for c, e in zip(self.coeffs, self.expos):
            nz = np.flatnonzero(e)
            for j in nz:
                if e[j] >= 2:
                    ejj = e.copy()
                    ejj[j] -= 2
                    H[j, j] += c * e[j] * (e[j] - 1) * float(np.prod(x**ejj))
                for l in nz:
                    if l <= j:
                        continue
                    ejl = e.copy()
                    ejl[j] -= 1
                    ejl[l] -= 1
                    val = c * e[j] * e[l] * float(np.prod(x**ejl))
                    H[j, l] += val
                    H[l, j] += val
        return H


@dataclass(frozen=True)
class ParsedProblem:
    problem: NlpProblem
    x0: np.ndarray
    y0: np.ndarray
    config: dict


def _fail(msg):
    raise ProblemFormatError(msg)


def _check_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where}: expected a number, got {type(value).__name__}")
    v = float(value)
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
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                _fail(f"{label}: exponent {i} must be a nonnegative integer")
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
