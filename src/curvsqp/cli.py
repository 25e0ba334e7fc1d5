"""Batch command line front end.

    curvsqp --list-problems
    curvsqp solve <builtin-name-or-file.json> [options]

solve picks a built-in problem by name first, then falls back to
reading the argument as a problem file. Exit codes: 0 second-order
optimal (or informational commands), 2 first-order only, 3 iteration
limit, 4 solver failure or failed derivative check, 1 usage and format
errors.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .driver import CSV_FIELDS, SolveStatus, SolverConfig, solve
from .errors import CurvSqpError, ProblemFormatError
from .model import check_derivatives, make_iterate
from .problemfile import parse_problem_file
from .problems import get_problem, list_problems

REPORT_FORMAT_VERSION = 1
LOG_HEADER_COMMENT = "# curvsqp-iteration-log format_version=1"

_FLAG_TO_CONFIG = {
    "mu0": "mu0",
    "nu": "nu",
    "tol1": "tol_first",
    "tol2": "tol_second",
    "tolc": "tol_constraint",
    "max_iter": "max_iterations",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="curvsqp", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list-problems", action="store_true", help="print built-in problem names"
    )
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("solve", help="solve a built-in or file problem")
    run.add_argument("problem", help="built-in name or problem-file path")
    run.add_argument("--mu0", type=float, help="initial penalty parameter")
    run.add_argument("--nu", type=float, help="dual weighting of the merit function")
    run.add_argument("--tol1", type=float, help="first-order tolerance")
    run.add_argument("--tol2", type=float, help="curvature tolerance")
    run.add_argument("--tolc", type=float, help="constraint violation tolerance")
    run.add_argument("--max-iter", type=int, dest="max_iter", help="iteration cap")
    run.add_argument(
        "--no-curvature",
        action="store_true",
        help="disable curvature steps (first-order method)",
    )
    run.add_argument("--log", metavar="PATH", help="write the iteration log CSV here")
    run.add_argument("--report", metavar="PATH", help="write the JSON run report here")
    run.add_argument(
        "--check-derivatives",
        action="store_true",
        help="check the problem derivatives at the start point instead of solving",
    )
    return parser


def _load_problem(selector):
    if selector in list_problems():
        problem = get_problem(selector)
        return problem, problem.x0, problem.y0, {}
    if os.path.exists(selector):
        try:
            with open(selector, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ProblemFormatError(f"cannot read '{selector}': {exc}") from exc
        parsed = parse_problem_file(text)
        return parsed.problem, parsed.x0, parsed.y0, parsed.config
    raise ProblemFormatError(
        f"'{selector}' is neither a built-in problem nor an existing file"
    )


def _resolve_config(file_config, args):
    values = dict(file_config)
    for flag, key in _FLAG_TO_CONFIG.items():
        flag_value = getattr(args, flag)
        if flag_value is not None:
            values[key] = flag_value
    if args.no_curvature:
        values["enable_curvature"] = False
    try:
        return SolverConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"bad config value: {exc}") from exc


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_log(path, history):
    lines = [LOG_HEADER_COMMENT, ",".join(CSV_FIELDS)]
    for record in history:
        lines.append(",".join(_format_cell(v) for v in record.csv_values()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_number(value):
    """value as a float, or None where JSON has no number (NaN, infinity)."""
    value = float(value)
    return value if math.isfinite(value) else None


def _write_report(path, problem, result):
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "problem": problem.name,
        "status": result.status.value,
        "exit_code": result.status.exit_code,
        "x": [float(v) for v in result.iterate.x],
        "y": [float(v) for v in result.iterate.y],
        "f": _json_number(result.f),
        "eta": _json_number(result.eta),
        "omega": _json_number(result.omega),
        "omega_first": _json_number(result.omega_first),
        "curv_ratio": _json_number(result.curv_ratio),
        "iterations": result.iterations,
        "class_counts": result.class_counts,
        "trials": sum(rec.trials for rec in result.history),
        "bound_rejections": sum(rec.bound_rejections for rec in result.history),
        "wall_time_s": result.wall_time_s,
        "message": result.message,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _run_derivative_check(problem, x0, y0):
    report = check_derivatives(problem, x0, y0)
    passed = report.max_error <= 1e-6
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "problem": problem.name,
        "x": [float(v) for v in x0],
        **{name: _json_number(value) for name, value in report._asdict().items()},
        "pass": passed,
    }
    print(json.dumps(doc, indent=2))
    return 0 if passed else 4


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_problems:
        for name in list_problems():
            print(name)
        return 0
    if args.command != "solve":
        parser.error("a command is required (try 'solve' or --list-problems)")

    try:
        problem, x0, y0, file_config = _load_problem(args.problem)
        config = _resolve_config(file_config, args)
        # an overflow ends in a defined status and message, so numpy's
        # warning about it would only print ahead of them
        with np.errstate(over="ignore"):
            if args.check_derivatives:
                return _run_derivative_check(problem, x0, y0)
            v0 = make_iterate(x0, y0 if y0 is not None else [])
            result = solve(problem, v0, config)
    except ProblemFormatError as exc:
        print(f"curvsqp: {exc}", file=sys.stderr)
        return 1
    except CurvSqpError as exc:
        print(f"curvsqp: {exc}", file=sys.stderr)
        return 4

    path = None
    try:
        if args.log:
            path = args.log
            write_log(path, result.history)
        if args.report:
            path = args.report
            _write_report(path, problem, result)
    except OSError as exc:
        print(f"curvsqp: cannot write '{path}': {exc}", file=sys.stderr)
        return 1
    if result.status.exit_code == 4:
        print(f"curvsqp: {result.message}", file=sys.stderr)

    print(
        f"{problem.name}: status={result.status.value} f={result.f:.9g} "
        f"eta={result.eta:.3e} omega={result.omega:.3e} "
        f"curv_ratio={result.curv_ratio:.3e} iterations={result.iterations}"
    )
    return result.status.exit_code


if __name__ == "__main__":
    sys.exit(main())
