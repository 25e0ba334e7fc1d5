"""tools/pool_digest.py tells bit-identical solves from ones that moved."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from curvsqp.driver import solve
from curvsqp.problems import get_problem

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pool_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("pool_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_sees_every_record_field_it_does_not_omit():
    tool = _load_tool()
    result = solve(get_problem("saddle-line"))
    again = solve(get_problem("saddle-line"))
    assert tool.digest(result) == tool.digest(again)

    last = result.history[-1]
    # the smallest change a float can make
    nudged = dataclasses.replace(last, merit_new=float(np.nextafter(last.merit_new, np.inf)))
    moved = dataclasses.replace(result, history=result.history[:-1] + (nudged,))
    assert tool.digest(moved) != tool.digest(result)
    assert tool.digest(moved, omit={"merit_new"}) == tool.digest(result, omit={"merit_new"})

    counted = dataclasses.replace(last, cholesky_attempts=last.cholesky_attempts + 1)
    recounted = dataclasses.replace(result, history=result.history[:-1] + (counted,))
    assert tool.digest(recounted) != tool.digest(result)
    assert tool.digest(recounted, omit={"cholesky_attempts"}) == tool.digest(
        result, omit={"cholesky_attempts"}
    )

    a = {"saddle-line/00": tool.digest(result), "convex-qp/00": "x"}
    b = {"saddle-line/00": tool.digest(moved), "cosine-saddle/00": "y"}
    assert tool.compare(a, b) == ["convex-qp/00", "cosine-saddle/00", "saddle-line/00"]
    assert tool.compare(a, dict(a)) == []
