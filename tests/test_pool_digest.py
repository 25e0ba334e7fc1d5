"""tools/pool_digest.py tells bit-identical solves from ones that moved."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np

from curvsqp.driver import IterationRecord, solve
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

    a = {"saddle-line/00": {"digest": tool.digest(result)}, "convex-qp/00": {"digest": "x"}}
    b = {"saddle-line/00": {"digest": tool.digest(moved)}, "cosine-saddle/00": {"digest": "y"}}
    assert tool.compare(a, b) == ["convex-qp/00", "cosine-saddle/00", "saddle-line/00"]
    assert tool.compare(a, dict(a)) == []


def test_compare_prints_both_outcomes_and_counts_lost_optima(tmp_path, capsys):
    tool = _load_tool()
    result = solve(get_problem("saddle-line"))
    entry = tool.outcome(result)
    assert entry == {
        "digest": tool.digest(result),
        "status": "second-order-optimal",
        "iterations": result.iterations,
    }
    stalled = {"digest": "0" * 64, "status": "iteration-limit", "iterations": 201}
    a = {"p/00": entry, "p/01": stalled, "p/02": entry, "p/03": entry}
    b = {"p/00": entry, "p/01": entry, "p/02": stalled}
    assert tool.compare(a, b) == ["p/01", "p/02", "p/03"]
    # p/02 ends otherwise in b, and p/03 is missing from it
    assert tool.left_optimal(a, b) == ["p/02", "p/03"]
    assert tool.left_optimal(b, a) == ["p/01"]

    paths = []
    for name, instances in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"omit": [], "instances": instances}))
    assert tool.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    iters = result.iterations
    assert capsys.readouterr().out.splitlines() == [
        f"p/01: iteration-limit in 201 iterations -> second-order-optimal in {iters} iterations",
        f"p/02: second-order-optimal in {iters} iterations -> iteration-limit in 201 iterations",
        f"p/03: second-order-optimal in {iters} iterations -> absent",
        "3 of 4 instances differ",
        "2 instances leave second-order-optimal",
    ]
    assert tool.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 4 instances differ",
        "0 instances leave second-order-optimal",
    ]


def test_compare_names_the_record_fields_only_one_side_digested(tmp_path, capsys):
    tool = _load_tool()
    fields = tool.record_fields(IterationRecord, omit={"merit_new"})
    assert "merit_new" not in fields and "trials" in fields
    assert fields == [f.name for f in dataclasses.fields(IterationRecord) if f.name != "merit_new"]

    entry = {"digest": "0" * 64, "status": "second-order-optimal", "iterations": 3}
    docs = {
        "a": {"omit": [], "fields": ["k", "backtracks", "trials"], "instances": {"p/00": entry}},
        "b": {"omit": [], "fields": ["k", "trials", "extra"], "instances": {"p/00": entry}},
        # a file written before the fields were listed
        "old": {"omit": [], "instances": {"p/00": entry}},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert tool.main(["--compare", str(paths["a"]), str(paths["b"])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "record fields only in A: backtracks",
        "record fields only in B: extra",
        "0 of 1 instances differ",
        "0 instances leave second-order-optimal",
    ]
    assert tool.main(["--compare", str(paths["a"]), str(paths["old"])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 1 instances differ",
        "0 instances leave second-order-optimal",
    ]


def test_compare_reports_hessian_counts_without_judging_them(tmp_path, capsys):
    tool = _load_tool()
    base = get_problem("saddle-line")
    counted, calls = tool.counting_hessian(base)
    result = solve(counted)
    assert result.history == solve(base).history
    entry = tool.outcome(result, hessians=len(calls))
    assert entry == {**tool.outcome(result), "hessians": 5}

    fewer = {**entry, "hessians": 4}
    old = {k: v for k, v in entry.items() if k != "hessians"}
    a = {"p/00": entry, "p/01": entry, "p/02": entry}
    b = {"p/00": fewer, "p/01": entry, "p/02": old}
    # a Hessian count alone never makes an instance differ
    assert tool.compare(a, b) == []
    # p/02 of b was written without counts
    assert tool.hessian_changes(a, b) == ["p/00"]

    paths = []
    for name, instances in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"omit": [], "instances": instances}))
    assert tool.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 3 instances differ",
        "0 instances leave second-order-optimal",
        "p/00: 5 -> 4 Hessian calls",
        "1 of 3 instances change their Hessian count",
    ]
    assert tool.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 3 instances differ",
        "0 instances leave second-order-optimal",
    ]
