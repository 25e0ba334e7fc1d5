"""Bit-identity digest of the benchmark pools.

    python3 tools/pool_digest.py --out digest.json
    python3 tools/pool_digest.py --src ../other/src --out other.json
    python3 tools/pool_digest.py --compare digest.json other.json

Solves every instance of the three benchmark pools (perfbench/families.py,
drawn from perfbench/run.py's POOL_SEED, in generation order) and writes
one SHA-256 per instance over the status, message, iteration count,
final x, y and f, and every field of every IterationRecord, with the
status, iteration count and number of hessian callback calls beside it
in plain text; the Hessian count is not digested. Floats are hashed
through repr, which round-trips exactly, so two digests agree only when
the solves agree bit for bit. --omit leaves named record fields out, for
comparing against a version that lacks them or whose work counters are
meant to change; the record fields digested are listed in the output.
curvsqp is imported from --src (default: this checkout's src);
perfbench is only imported, never changed.

--compare first names the record fields only one side digested (when
both list theirs), then prints every instance whose digest differs,
with its status and iteration count on both sides, then the number of
instances that end second-order-optimal in A and not in B: a change of
behaviour should keep that number at 0. When both sides count Hessians
and some instance's count moved, it prints those instances and how many
there are; a count alone never makes an instance differ. It exits with
status 1 when any digest, status or iteration count differs.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
OPTIMAL = "second-order-optimal"
# the outcome entries compare judges; "hessians" is only reported
JUDGED = ("digest", "status", "iterations")


def _canonical(value):
    """Text that determines value bit for bit (floats through repr)."""
    if hasattr(value, "tolist"):
        return repr((str(value.dtype), value.shape, value.tolist()))
    if hasattr(value, "value"):  # an Enum
        return repr(value.value)
    return repr(value)


def record_fields(record_type, omit=()):
    """The names of the record fields a digest covers, in field order."""
    return [f.name for f in dataclasses.fields(record_type) if f.name not in omit]


def digest(result, omit=()):
    """SHA-256 of one SolveResult, leaving the record fields in omit out."""
    h = hashlib.sha256()
    for part in (result.status, result.message, result.iterations,
                 result.iterate.x, result.iterate.y, result.f):
        h.update(_canonical(part).encode())
        h.update(b"\0")
    for rec in result.history:
        for name in record_fields(rec, omit):
            h.update(f"{name}={_canonical(getattr(rec, name))}\0".encode())
    return h.hexdigest()


def outcome(result, omit=(), hessians=None):
    """The digest of one SolveResult, with its status and iteration count.

    hessians, when given, is the number of hessian callback calls the
    solve made, kept beside the digest.
    """
    entry = {
        "digest": digest(result, omit),
        "status": result.status.value,
        "iterations": result.iterations,
    }
    if hessians is not None:
        entry["hessians"] = hessians
    return entry


def counting_hessian(problem):
    """problem with its hessian callback counted, and the list counting it."""
    calls = []
    hessian = problem.hessian

    def counted(x, y):
        calls.append(None)
        return hessian(x, y)

    return dataclasses.replace(problem, hessian=counted), calls


def pool_digests(src, omit=()):
    """The digested record fields, and {"workload/index": outcome} over the three pools."""
    # the benchmark's settings: one BLAS thread, set before numpy loads
    import run

    sys.path.insert(0, src)
    import curvsqp
    import families
    import numpy as np

    out = {}
    for workload, (gen_name, count) in run.WORKLOADS.items():
        rng = np.random.default_rng(run.POOL_SEED)
        gen = getattr(families, gen_name)
        for i in range(count):
            inst = gen(rng)
            if workload == "poly-file":
                inst = families.parse_instance(inst)
            problem, calls = counting_hessian(inst.problem)
            result = curvsqp.solve(problem, inst.v0, inst.config)
            out[f"{workload}/{i:02d}"] = outcome(result, omit, len(calls))
    return record_fields(curvsqp.IterationRecord, omit), out


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def field_changes(a, b):
    """Lines naming the record fields only one digest file covers.

    Empty when either file does not list its fields.
    """
    if "fields" not in a or "fields" not in b:
        return []
    lines = []
    for side, mine, other in (("A", a, b), ("B", b, a)):
        only = [name for name in mine["fields"] if name not in other["fields"]]
        if only:
            lines.append(f"record fields only in {side}: {', '.join(only)}")
    return lines


def compare(a, b):
    """Keys whose digest, status or iteration count differ, or that only one side has."""

    def judged(entry):
        return None if entry is None else [entry.get(key) for key in JUDGED]

    return sorted(k for k in set(a) | set(b) if judged(a.get(k)) != judged(b.get(k)))


def hessian_changes(a, b):
    """Keys whose Hessian count both sides report and that count differs."""
    return sorted(
        k for k in set(a) & set(b)
        if "hessians" in a[k] and "hessians" in b[k] and a[k]["hessians"] != b[k]["hessians"]
    )


def left_optimal(a, b):
    """Keys that end second-order-optimal in a and not in b."""
    return sorted(
        k for k, entry in a.items()
        if entry["status"] == OPTIMAL and b.get(k, {}).get("status") != OPTIMAL
    )


def _side(entry):
    if entry is None:
        return "absent"
    return f"{entry['status']} in {entry['iterations']} iterations"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", help="write the digests here (default: stdout)")
    parser.add_argument("--omit", action="append", default=[], metavar="FIELD",
                        help="leave this IterationRecord field out (repeatable)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (_load(path) for path in args.compare)
        if a["omit"] != b["omit"]:
            parser.error(f"the digests omit different fields: {a['omit']} and {b['omit']}")
        for line in field_changes(a, b):
            print(line)
        a, b = a["instances"], b["instances"]
        differ = compare(a, b)
        for key in differ:
            print(f"{key}: {_side(a.get(key))} -> {_side(b.get(key))}")
        print(f"{len(differ)} of {len(set(a) | set(b))} instances differ")
        print(f"{len(left_optimal(a, b))} instances leave {OPTIMAL}")
        moved = hessian_changes(a, b)
        for key in moved:
            print(f"{key}: {a[key]['hessians']} -> {b[key]['hessians']} Hessian calls")
        if moved:
            print(f"{len(moved)} of {len(set(a) | set(b))} instances change their Hessian count")
        return 1 if differ else 0

    sys.path.insert(0, PERFBENCH)
    # the diverging poly-file solves overflow on their way to a status
    warnings.simplefilter("ignore", RuntimeWarning)
    fields, instances = pool_digests(os.path.abspath(args.src), set(args.omit))
    doc = {"omit": sorted(args.omit), "fields": fields, "instances": instances}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
