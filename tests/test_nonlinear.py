"""Solves with a nonlinear constraint, checked by an independent verifier.

Every built-in and benchmark constraint is linear, so none of them
depends on the sign with which constraint curvature enters the
Lagrangian Hessian. The quadric-sphere family does: its sphere row
curves. perfbench/verify.py is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

from conftest import quadric_sphere_instances
from curvsqp.driver import SolveStatus, solve
from curvsqp.model import check_derivatives

VERIFY_PY = Path(__file__).resolve().parents[1] / "perfbench" / "verify.py"


def _load_verify():
    spec = importlib.util.spec_from_file_location("perfbench_verify", VERIFY_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quadric_sphere_derivatives_agree():
    for problem, v0 in quadric_sphere_instances(seed=1, count=3):
        report = check_derivatives(problem, v0.x + 0.1, [0.7, -1.3])
        assert report.max_error <= 1e-6, report


def test_quadric_sphere_solves_are_second_order_optimal_and_verified():
    verify = _load_verify()
    for i, (problem, v0) in enumerate(quadric_sphere_instances(seed=1, count=10)):
        result = solve(problem, v0)
        assert result.status is SolveStatus.SECOND_ORDER_OPTIMAL, (i, result.status)
        verdict = verify.check_point(problem, result.iterate.x)
        assert verdict.ok, (i, verdict.reason)
