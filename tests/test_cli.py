import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import curvsqp.cli as cli
import curvsqp.driver as driver
from conftest import nan_difference_problem
from curvsqp.cli import CSV_FIELDS, LOG_HEADER_COMMENT, _run_derivative_check, main
from curvsqp.driver import SolverConfig, solve
from curvsqp.errors import ProblemFormatError, QpFailure
from curvsqp.model import check_derivatives, evaluate, make_iterate
from curvsqp.problemfile import parse_problem_file
from curvsqp.problems import get_problem, list_problems

BILINEAR = {
    "format_version": 1,
    "name": "bilinear",
    "n": 2,
    "objective": [[1.0, [1, 1]]],
    "constraints": [[[1.0, [1, 0]], [1.0, [0, 1]], [-2.0, [0, 0]]]],
    "start": {"x": [1.0, 1.0], "y": [1.0]},
}


# problem files the console-script CI job solves too
DATA = Path(__file__).parent / "data"


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_list_problems(capsys):
    assert main(["--list-problems"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["convex-qp", "cosine-saddle", "saddle-line"]


def test_solve_builtin_reports_success(capsys):
    assert main(["solve", "cosine-saddle"]) == 0
    out = capsys.readouterr().out
    assert "status=second-order-optimal" in out
    assert "cosine-saddle" in out


def test_no_curvature_flag_changes_the_exit_code():
    assert main(["solve", "cosine-saddle", "--no-curvature"]) == 2


def test_iteration_cap_flag():
    assert main(["solve", "saddle-line", "--max-iter", "1"]) == 3


def test_unknown_problem(capsys):
    assert main(["solve", "no-such-problem"]) == 1
    assert "neither a built-in problem" in capsys.readouterr().err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "convex-qp", "--max-iter", "many"])
    assert exc.value.code == 1


def test_malformed_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_directory_as_problem_path(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"curvsqp: cannot read '{tmp_path}'")
    assert err.count("\n") == 1


def test_undecodable_problem_file(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff{}")
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"curvsqp: cannot read '{path}'")
    assert err.count("\n") == 1


def test_directory_as_log_path(tmp_path, capsys):
    assert main(["solve", "convex-qp", "--log", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"curvsqp: cannot write '{tmp_path}'")
    assert err.count("\n") == 1


def test_report_path_under_a_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert main(["solve", "convex-qp", "--report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"curvsqp: cannot write '{path}'")
    assert err.count("\n") == 1


def test_problem_file_solves_to_a_vertex(tmp_path):
    path = _write(tmp_path, BILINEAR)
    assert main(["solve", path]) == 0


def test_a_file_with_a_curved_constraint_leaves_its_saddle_start(tmp_path, capsys):
    # f = (a^2 - b^2) / 2 on the circle a^2 + b^2 = 2, with a = x0 - 3 and
    # b = x1 - 3: the start a = sqrt(2), b = 0 is a KKT point at f = 1 with
    # negative reduced curvature, and the minimizers b = +-sqrt(2) have f = -1
    path = str(DATA / "circle-saddle.json")
    parsed = parse_problem_file((DATA / "circle-saddle.json").read_text())
    assert parsed.x0.tolist() == [3.0 + np.sqrt(2.0), 3.0]
    assert parsed.problem.linear_constraints is False
    report = tmp_path / "report.json"
    assert main(["solve", path, "--report", str(report)]) == 0
    found = json.loads(report.read_text())
    assert found["f"] == pytest.approx(-1.0, abs=1e-6)
    assert found["x"][0] == pytest.approx(3.0, abs=1e-6)
    assert abs(found["x"][1] - 3.0) == pytest.approx(np.sqrt(2.0), abs=1e-6)
    assert main(["solve", path, "--no-curvature", "--report", str(report)]) == 2
    assert json.loads(report.read_text())["f"] == pytest.approx(1.0, abs=1e-12)
    capsys.readouterr()
    assert main(["solve", path, "--check-derivatives"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_evaluation_blowup_maps_to_exit_four(capsys):
    # unbounded quartic: iterates grow geometrically until the objective
    # overflows and the evaluator rejects the non-finite value
    assert main(["solve", str(DATA / "runaway.json")]) == 4
    assert "non-finite" in capsys.readouterr().err


def test_breakdown_writes_its_log_and_report(tmp_path, capsys):
    # -1e9 x^3 on x = 3 grows the Hessian past the pivot threshold until
    # no dual pivot is admissible, three iterations in
    doc = {
        "format_version": 1,
        "name": "steep-cubic",
        "n": 1,
        "objective": [[-1e9, [3]]],
        "constraints": [[[1.0, [1]], [-3.0, [0]]]],
        "start": {"x": [1.0], "y": [0.0]},
    }
    log, report = tmp_path / "log.csv", tmp_path / "report.json"
    argv = ["solve", _write(tmp_path, doc), "--log", str(log), "--report", str(report)]
    assert main(argv) == 4
    message = "dual rows left unpivoted at the stage-1 stopping point"
    assert message in capsys.readouterr().err
    rows = log.read_text().splitlines()[2:]
    assert [int(row.split(",")[0]) for row in rows] == [0, 1, 2]
    doc = json.loads(report.read_text())
    assert doc["status"] == "factorization-breakdown"
    assert doc["exit_code"] == 4
    assert doc["iterations"] == 3
    assert doc["message"] == message
    assert doc["eta"] is None


def test_qp_failure_writes_its_log_and_report(tmp_path, monkeypatch, capsys):
    real, calls = driver.solve_qp, []

    def solve_qp(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise QpFailure("active set cycled")
        return real(*args, **kwargs)

    monkeypatch.setattr(driver, "solve_qp", solve_qp)
    log, report = tmp_path / "log.csv", tmp_path / "report.json"
    argv = ["solve", "saddle-line", "--log", str(log), "--report", str(report)]
    assert main(argv) == 4
    assert "active set cycled" in capsys.readouterr().err
    rows = log.read_text().splitlines()[2:]
    assert [int(row.split(",")[0]) for row in rows] == [0, 1]
    doc = json.loads(report.read_text())
    assert doc["status"] == "qp-failure"
    assert doc["exit_code"] == 4
    assert doc["message"] == "active set cycled"


def test_failing_start_point_still_writes_a_strict_json_report(tmp_path, capsys):
    # the objective overflows at the start point, so nothing is measured
    doc = {
        "format_version": 1,
        "name": "overflow",
        "n": 1,
        "objective": [[1e308, [2]]],
        "start": {"x": [10.0]},
    }
    report = tmp_path / "report.json"
    assert main(["solve", _write(tmp_path, doc), "--report", str(report)]) == 4
    assert "non-finite" in capsys.readouterr().err

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(report.read_text(), parse_constant=reject)
    assert doc["status"] == "evaluation-error"
    assert doc["iterations"] == 0
    for key in ("f", "eta", "omega", "omega_first", "curv_ratio"):
        assert doc[key] is None


def test_log_is_deterministic_and_well_formed(tmp_path):
    log1, log2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["solve", "convex-qp", "--log", log1]) == 0
    assert main(["solve", "convex-qp", "--log", log2]) == 0
    text1 = Path(log1).read_text()
    assert text1 == Path(log2).read_text()
    lines = text1.splitlines()
    assert lines[0] == LOG_HEADER_COMMENT
    assert lines[1] == ",".join(CSV_FIELDS)
    assert len(CSV_FIELDS) == 15
    for row in lines[2:]:
        assert len(row.split(",")) == 15
    # one data row per iteration record, k strictly increasing from 0
    ks = [int(row.split(",")[0]) for row in lines[2:]]
    assert ks == list(range(len(ks)))


@pytest.mark.parametrize("name", ["convex-qp", "cosine-saddle", "saddle-line"])
def test_log_matches_the_golden_file(tmp_path, name):
    # the committed logs pin every record of the built-in runs: a change
    # meant to keep behaviour must keep them byte for byte
    log = tmp_path / "log.csv"
    assert main(["solve", name, "--log", str(log)]) == 0
    golden = Path(__file__).parent / "golden" / f"{name}.csv"
    assert log.read_bytes() == golden.read_bytes()


def test_report_document(tmp_path):
    report = tmp_path / "report.json"
    log = tmp_path / "log.csv"
    assert main(["solve", "convex-qp", "--report", str(report), "--log", str(log)]) == 0
    doc = json.loads(report.read_text())
    assert doc["format_version"] == 1
    assert doc["problem"] == "convex-qp"
    assert doc["status"] == "second-order-optimal"
    assert doc["exit_code"] == 0
    assert len(doc["x"]) == 2
    np.testing.assert_allclose(doc["x"], [7.0 / 6.0, 5.0 / 6.0], atol=1e-6)
    assert set(doc["class_counts"]) == {"S", "L", "M", "F"}
    rows = log.read_text().splitlines()[2:]
    assert doc["iterations"] == len(rows)
    assert doc["wall_time_s"] >= 0.0
    # the run's line-search totals, summed over the records
    history = driver.solve(get_problem("convex-qp")).history
    assert doc["trials"] == sum(rec.trials for rec in history) > 0
    assert doc["bound_rejections"] == sum(rec.bound_rejections for rec in history)


def test_reports_agree_across_runs_except_wall_time(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["solve", "saddle-line", "--report", str(r1)])
    main(["solve", "saddle-line", "--report", str(r2)])
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert d1 == d2


def test_parsed_polynomial_matches_handwritten_problem():
    # the bilinear file is the same problem as the saddle-line builtin
    parsed = parse_problem_file(json.dumps(BILINEAR))
    builtin = get_problem("saddle-line")
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(0.0, 3.0, size=2)
        y = rng.normal(size=1)
        it = make_iterate(x, y)
        ev_a = evaluate(parsed.problem, it)
        ev_b = evaluate(builtin, it)
        assert ev_a.f == pytest.approx(ev_b.f, rel=1e-14)
        np.testing.assert_allclose(ev_a.g, ev_b.g, rtol=1e-14)
        np.testing.assert_allclose(ev_a.c, ev_b.c, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(ev_a.J, ev_b.J, rtol=1e-14)
        np.testing.assert_allclose(ev_a.H, ev_b.H, rtol=1e-14)


def test_parsed_derivatives_are_exact():
    doc = {
        "format_version": 1,
        "name": "mixed-quartic",
        "n": 3,
        "objective": [[0.7, [2, 1, 0]], [-1.3, [0, 0, 4]], [2.0, [1, 1, 1]]],
        "constraints": [[[1.0, [2, 0, 0]], [1.0, [0, 1, 0]], [-1.0, [0, 0, 0]]]],
        "start": {"x": [0.5, 0.5, 0.5], "y": [0.0]},
    }
    parsed = parse_problem_file(json.dumps(doc))
    report = check_derivatives(parsed.problem, parsed.x0, parsed.y0)
    assert report.max_error <= 1e-6


def test_parsed_constraint_hessians_are_exact():
    # at y = 0 the constraint Hessians drop out of the Lagrangian; here
    # three constraints with squares, cubes and mixed terms carry weight
    rng = np.random.default_rng(5)
    n, m = 4, 3

    def terms(count):
        return [
            [float(rng.standard_normal()), [int(e) for e in rng.integers(0, 4, n)]]
            for _ in range(count)
        ]

    for _ in range(5):
        doc = {
            "format_version": 1,
            "name": "random-constraints",
            "n": n,
            "objective": terms(4),
            "constraints": [terms(5) for _ in range(m)],
            "start": {"x": rng.uniform(0.5, 1.5, n).tolist(), "y": [0.0] * m},
        }
        parsed = parse_problem_file(json.dumps(doc))
        y = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
        report = check_derivatives(parsed.problem, parsed.x0, y)
        assert report.max_error <= 1e-6


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown top-level"),
        (lambda d: d.update(format_version=2), "format_version"),
        (lambda d: d.__delitem__("objective"), "missing required"),
        (lambda d: d.update(objective=[[1.0, [1, 1, 1]]]), "length n=2"),
        (lambda d: d.update(objective=[[1.0, [1, -1]]]), "nonnegative integer"),
        (lambda d: d.update(objective=[[1.0, [2**70, 1]]]), "below 2\\*\\*63"),
        (lambda d: d.update(objective=[[1.0, [2**63, 1]]]), "below 2\\*\\*63"),
        (lambda d: d.update(objective=[[True, [1, 1]]]), "expected a number"),
        (lambda d: d.update(objective=[[1e999, [1, 1]]]), "finite"),
        (lambda d: d.update(objective=[[10**400, [1, 1]]]), "coefficient: value must be finite"),
        (lambda d: d["start"].update(x=[10**400, 1.0]), "x\\[0\\]: value must be finite"),
        (lambda d: d.update(config={"mu0": 10**400}), "mu0 must be finite"),
        (lambda d: d["start"].update(x=[1.0]), "length n=2"),
        (lambda d: d["start"].update(x=[-1.0, 1.0]), "nonnegative"),
        (lambda d: d["start"].update(z=[0.0]), "unknown start"),
        (lambda d: d.update(config={"mystery": 1.0}), "unknown config"),
        (lambda d: d.update(config={"j_max": True}), "integer"),
        (lambda d: d.update(config={"enable_curvature": 1}), "boolean"),
        (lambda d: d.update(n=0), "positive integer"),
        (lambda d: d.update(name=""), "non-empty string"),
        (lambda d: d.update(objective=[]), "objective: expected a non-empty list"),
        (lambda d: d.update(constraints=[1.0]), "constraint 0: expected a non-empty list"),
        (lambda d: d.update(objective=[[1.0]]), "objective, term 0: expected \\[coefficient"),
        (lambda d: [d], "top level must be a JSON object"),
        (lambda d: d.update(constraints={}), "'constraints' must be a list"),
        (lambda d: d.update(start=[1.0, 1.0]), "'start' must be an object"),
        (lambda d: d.update(start={"y": [1.0]}), "'start' needs an 'x' entry"),
        (lambda d: d["start"].update(y=[1.0, 1.0]), "start.y must be a list of length m=1"),
        (lambda d: d.update(config=[]), "'config' must be an object"),
    ],
)
def test_schema_violations_are_rejected(mutate, fragment):
    # a mutation returns None, or a document that replaces the whole file
    doc = json.loads(json.dumps(BILINEAR))
    replaced = mutate(doc)
    with pytest.raises(ProblemFormatError, match=fragment):
        parse_problem_file(json.dumps(doc if replaced is None else replaced))


def test_an_unknown_problem_name_lists_the_available_ones():
    with pytest.raises(KeyError, match="unknown problem 'no-such'; available: ") as info:
        get_problem("no-such")
    for name in list_problems():
        assert name in str(info.value)


def test_a_parsed_problem_solves_from_its_own_start_point():
    parsed = parse_problem_file(json.dumps(BILINEAR))
    assert parsed.problem.x0 is parsed.x0 and parsed.problem.y0 is parsed.y0
    given = solve(parsed.problem, make_iterate(parsed.x0, parsed.y0))
    assert solve(parsed.problem).history == given.history


@pytest.mark.parametrize("config", [{"mu0": -1}, {"j_max": -1}, {"eta_S": 1.0}])
def test_a_bad_config_value_fails_at_parse(config):
    doc = dict(BILINEAR, config=config)
    with pytest.raises(ProblemFormatError, match="bad config value"):
        parse_problem_file(json.dumps(doc))


def test_a_huge_integer_config_value_gives_a_short_message():
    doc = dict(BILINEAR, config={"mu0": 10**400})
    with pytest.raises(ProblemFormatError) as info:
        parse_problem_file(json.dumps(doc))
    message = str(info.value)
    assert message.startswith("bad config value: mu0 must be finite")
    assert len(message) < 120


def test_parsed_config_holds_the_values_solver_config_stores():
    doc = dict(BILINEAR, config={"mu0": 1, "max_iterations": 7})
    config = parse_problem_file(json.dumps(doc)).config
    assert config == {"mu0": 1.0, "max_iterations": 7}
    assert type(config["mu0"]) is float


# (flag arguments, the SolverConfig field, a file value, the flag's value)
_FLAGS = [
    (["--mu0", "0.5"], "mu0", 0.25, 0.5),
    (["--nu", "2.0"], "nu", 3.0, 2.0),
    (["--tol1", "1e-5"], "tol_first", 1e-4, 1e-5),
    (["--tol2", "1e-3"], "tol_second", 1e-2, 1e-3),
    (["--tolc", "1e-7"], "tol_constraint", 1e-6, 1e-7),
    (["--max-iter", "7"], "max_iterations", 9, 7),
    (["--no-curvature"], "enable_curvature", True, False),
]


@pytest.mark.parametrize(
    "argv, field, file_value, flag_value", _FLAGS, ids=[argv[0] for argv, *_ in _FLAGS]
)
def test_each_flag_overrides_its_file_setting(argv, field, file_value, flag_value):
    parser = cli._build_parser()
    given = parser.parse_args(["solve", "saddle-line", *argv])
    assert getattr(cli._resolve_config({field: file_value}, given), field) == flag_value
    # without the flag, the file's value stays, whichever it is
    absent = parser.parse_args(["solve", "saddle-line"])
    for value in (file_value, flag_value):
        assert getattr(cli._resolve_config({field: value}, absent), field) == value


def test_schema_violation_through_the_cli(tmp_path, capsys):
    doc = json.loads(json.dumps(BILINEAR))
    doc["config"] = {"mystery": 1.0}
    assert main(["solve", _write(tmp_path, doc)]) == 1
    assert "unknown config" in capsys.readouterr().err


def test_huge_exponent_is_a_format_error_through_the_cli(tmp_path, capsys):
    doc = json.loads(json.dumps(BILINEAR))
    doc["objective"] = [[1.0, [2**70, 1]]]
    assert main(["solve", _write(tmp_path, doc)]) == 1
    assert "exponent 0 must be a nonnegative integer below 2**63" in capsys.readouterr().err


def test_file_config_is_used_and_flags_win(tmp_path):
    doc = json.loads(json.dumps(BILINEAR))
    doc["config"] = {"max_iterations": 1}
    path = _write(tmp_path, doc)
    assert main(["solve", path]) == 3
    assert main(["solve", path, "--max-iter", "200"]) == 0


def test_file_config_takes_every_solver_setting(tmp_path):
    doc = json.loads(json.dumps(BILINEAR))
    doc["config"] = {"qp_tol": 1e-9}
    assert main(["solve", _write(tmp_path, doc)]) == 0
    doc["config"] = dataclasses.asdict(SolverConfig())
    parsed = parse_problem_file(json.dumps(doc))
    assert SolverConfig(**parsed.config) == SolverConfig()


@pytest.mark.parametrize(
    "flags",
    [["--mu0", "0"], ["--mu0", "nan"], ["--nu", "-1"], ["--tol1", "inf"], ["--max-iter", "-1"]],
)
def test_out_of_range_flag_is_a_format_error(flags, capsys):
    assert main(["solve", "saddle-line", *flags]) == 1
    assert "bad config value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"mu0": 0},
        {"eta_S": 1.0},
        {"alpha_min": 1.5},
        {"j_max": -1},
        {"margin": -0.5},
        {"margin": 0},
        {"qp_tol": 0},
    ],
)
def test_out_of_range_file_config_is_a_format_error(tmp_path, capsys, config):
    doc = json.loads(json.dumps(BILINEAR))
    doc["config"] = config
    assert main(["solve", _write(tmp_path, doc)]) == 1
    assert "bad config value" in capsys.readouterr().err


def test_derivative_check_overflow_is_an_evaluation_error(tmp_path, capsys):
    # f = 1.797693e308 x overflows one difference step from x = 1; the
    # check reports the evaluation error instead of printing Infinity
    doc = {
        "format_version": 1,
        "name": "huge-slope",
        "n": 1,
        "objective": [[1.797693e308, [1]]],
        "start": {"x": [1.0]},
    }
    assert main(["solve", _write(tmp_path, doc), "--check-derivatives"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("curvsqp: ") and err.endswith("non-finite evaluator output\n")
    assert err.count("\n") == 1


def test_nan_derivative_error_fails_the_check_as_strict_json(capsys):
    problem = nan_difference_problem()
    with np.errstate(over="ignore", invalid="ignore"):
        assert _run_derivative_check(problem) == 4

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert doc["pass"] is False
    assert doc["hessian_error"] is None
    assert doc["gradient_error"] == 0.0 and doc["jacobian_error"] == 0.0


def test_nan_derivative_check_prints_no_numpy_warning(monkeypatch, capsys):
    # inf - inf in the symmetrized differences is a NaN error, which
    # the report fails; numpy must not warn about it on stderr as well
    problem = nan_difference_problem()
    monkeypatch.setattr(cli, "_load_problem", lambda selector: (problem, {}))
    assert main(["solve", "nan-differences", "--check-derivatives"]) == 4
    out, err = capsys.readouterr()
    assert json.loads(out)["hessian_error"] is None
    assert err == ""


def test_check_derivatives_command(capsys):
    assert main(["solve", "convex-qp", "--check-derivatives"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    for key in ("gradient_error", "jacobian_error", "hessian_error"):
        assert doc[key] <= 1e-6
