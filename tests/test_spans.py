"""The benchmark's span tracer still sees every solver call it patches.

perfbench/spans.py swaps names in curvsqp.driver for wrappers. A name
the driver bound before the swap would keep its original and report no
calls, so each span's call count is pinned for the three built-ins.
"""

from collections import Counter

import numpy as np
import pytest

import curvsqp.driver as driver
from conftest import load_perfbench
import curvsqp.merit as merit
from curvsqp.problems import get_problem

# span -> calls in one default solve; the solver loop's names first
_LOOP = (
    "workset.estimate", "factor.build_kkt", "factor.stage1", "factor.convexify",
    "curvature.extract", "classify.measures", "model.evaluate",
)
_STEP = (
    "classify.classify", "classify.update_state", "merit.penalty_update",
    "curvature.orient", "curvature.scale", "qpstep.solve_qp", "merit.search",
)


def _counts(iterations, cholesky, callbacks):
    counts = {name: iterations for name in _LOOP}
    counts.update({name: iterations - 1 for name in _STEP})
    counts.update({
        "driver.solve": 1,
        "driver.certify.cholesky": cholesky,
        "callbacks": callbacks,
    })
    return counts


EXPECTED = {
    "saddle-line": _counts(5, 11, 25),
    # the certification of its diagonal Hessian calls no Cholesky
    "cosine-saddle": _counts(6, 0, 32),
    "convex-qp": _counts(8, 7, 40),
}
# positive-definiteness tests the records count, by Cholesky or by sign
ATTEMPTS = {"saddle-line": 11, "cosine-saddle": 5, "convex-qp": 7}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_tracer_counts_every_patched_call(name):
    spans = load_perfbench("spans")
    originals = {attr: getattr(driver, attr) for attr in spans._DRIVER_NAMES}
    evaluate, cholesky = merit.evaluate, np.linalg.cholesky
    tracer = spans.Tracer()
    problem = tracer.traced_problem(get_problem(name))
    restore = tracer.install()
    try:
        result = tracer.solve(driver.solve, problem)
    finally:
        restore()
    # a Counter, so the zero count of an absent span compares equal
    assert Counter(span[0] for span in tracer.spans) == Counter(EXPECTED[name])
    assert sum(record.cholesky_attempts for record in result.history) == ATTEMPTS[name]
    for attr, original in originals.items():
        assert getattr(driver, attr) is original
    assert merit.evaluate is evaluate
    assert np.linalg.cholesky is cholesky
