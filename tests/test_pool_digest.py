"""tools/pool_digest.py tells bit-identical solves from ones that moved."""

import dataclasses
import importlib.util
import json
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

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
    assert tool.count_changes(a, b, "hessians") == ["p/00"]

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


def test_compare_reports_optima_that_moved_without_judging_them(tmp_path, capsys):
    tool = _load_tool()

    def entry(digest, f, status="second-order-optimal"):
        return {"digest": digest * 64, "status": status, "iterations": 3, "f": f}

    a = {"p/00": entry("0", -2.0), "p/01": entry("1", -1.5), "p/02": entry("2", 4.0),
         "p/03": entry("3", 1.0), "p/04": entry("4", 7.0)}
    b = {
        "p/00": entry("0", -2.5),
        # the same minimizer, to within the solver's tolerances
        "p/01": entry("1", -1.5 * (1.0 + 1e-7)),
        "p/02": entry("2", 4.0 + 1e-4),
        # not optimal on both sides, or written without f
        "p/03": entry("3", 0.5, "iteration-limit"),
        "p/04": {k: v for k, v in entry("4", 6.0).items() if k != "f"},
    }
    assert tool.moved_optima(a, b) == ["p/00", "p/02"]
    assert tool.moved_optima(a, dict(a)) == []

    paths = []
    for name, instances in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"omit": [], "instances": instances}))
    # only p/03's status differs; a moved f alone never fails the comparison
    assert tool.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "p/03: second-order-optimal in 3 iterations -> iteration-limit in 3 iterations",
        "1 of 5 instances differ",
        "1 instances leave second-order-optimal",
        "p/00: f -2.0 -> -2.5",
        "p/02: f 4.0 -> 4.0001",
        "2 of 5 instances stay second-order-optimal at another f: 1 higher, 1 lower",
    ]
    del a["p/03"], b["p/03"]
    for path, instances in zip(paths, (a, b)):
        path.write_text(json.dumps({"omit": [], "instances": instances}))
    assert tool.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(": 1 higher, 1 lower")


def test_compare_reports_the_largest_final_x_change_of_the_optima(tmp_path, capsys):
    tool = _load_tool()

    def entry(x, status="second-order-optimal"):
        return {"digest": "0" * 64, "status": status, "iterations": 3, "f": 0.0, "x": x}

    a = {"p/00": entry([1.0, -3.0]), "p/01": entry([0.0, 0.0]), "p/02": entry([5.0]),
         "p/03": entry([2.0])}
    b = {
        # 1e-9 on entries of size 3: 1e-9 / (1 + 3)
        "p/00": entry([1.0, -3.0 + 1e-9]),
        "p/01": entry([0.0, 2e-10]),
        # not optimal on both sides, or written without x
        "p/02": entry([6.0], "iteration-limit"),
        "p/03": {k: v for k, v in entry([3.0]).items() if k != "x"},
    }
    gap, key, count = tool.largest_x_change(a, b)
    assert (key, count) == ("p/00", 2)
    assert gap == abs((-3.0 + 1e-9) - -3.0) / 4.0
    assert tool.largest_x_change(a, dict(a)) == (0.0, "p/00", 4)
    assert tool.largest_x_change({"p/02": a["p/02"]}, {"p/02": b["p/02"]}) is None

    paths = []
    for name, instances in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"omit": [], "instances": instances}))
    assert tool.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"2 instances end second-order-optimal on both sides; the largest"
        f" max|x_B - x_A| / (1 + max|x_A|) is {gap:.3g}, at p/00"
    )


def test_pool_digests_keep_each_final_x_beside_its_f(monkeypatch):
    tool = _load_tool()
    problem = get_problem("saddle-line")
    instance = SimpleNamespace(problem=problem, v0=None, config=None)
    # a one-instance pool in place of perfbench's, which is only imported
    monkeypatch.setitem(sys.modules, "run", SimpleNamespace(
        WORKLOADS={"saddle": ("saddle", 1)}, POOL_SEED=0))
    monkeypatch.setitem(sys.modules, "families", SimpleNamespace(saddle=lambda rng: instance))
    monkeypatch.setattr(sys, "path", list(sys.path))
    _, out = tool.pool_digests(str(TOOL.parents[1] / "src"))
    result = solve(problem)
    assert out == {"saddle/00": {**tool.outcome(result, hessians=5, warned=0), "f": result.f,
                                 "x": result.iterate.x.tolist()}}


def test_pool_digests_count_each_solves_warnings_and_compare_reports_them(
        monkeypatch, tmp_path, capsys):
    tool = _load_tool()
    base = get_problem("saddle-line")
    hessian = base.hessian

    def warning_hessian(x, y):
        # the same text every call: only an "always" filter counts each one
        warnings.warn("overflow encountered", RuntimeWarning)
        return hessian(x, y)

    instance = SimpleNamespace(problem=dataclasses.replace(base, hessian=warning_hessian),
                               v0=None, config=None)
    monkeypatch.setitem(sys.modules, "run", SimpleNamespace(
        WORKLOADS={"saddle": ("saddle", 1)}, POOL_SEED=0))
    monkeypatch.setitem(sys.modules, "families", SimpleNamespace(saddle=lambda rng: instance))
    monkeypatch.setattr(sys, "path", list(sys.path))
    _, out = tool.pool_digests(str(TOOL.parents[1] / "src"))
    entry = out["saddle/00"]
    # one warning per Hessian call, and the solve is the one without them
    assert entry["warnings"] == entry["hessians"] == 5
    assert entry["digest"] == tool.digest(solve(base))

    quiet = {**entry, "warnings": 0}
    old = {k: v for k, v in entry.items() if k != "warnings"}
    a = {"p/00": entry, "p/01": entry, "p/02": entry}
    b = {"p/00": quiet, "p/01": entry, "p/02": old}
    # a warning count alone never makes an instance differ
    assert tool.compare(a, b) == []
    # p/02 of b was written without counts
    assert tool.count_changes(a, b, "warnings") == ["p/00"]

    paths = []
    for name, instances in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"omit": [], "instances": instances}))
    assert tool.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "p/00: 5 -> 0 warnings",
        "1 of 3 instances change their warning count",
    ]
    assert tool.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert not any("warning" in line for line in capsys.readouterr().out.splitlines())
