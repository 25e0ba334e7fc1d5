"""Bit-identity digest of the benchmark pools.

    python3 tools/pool_digest.py --out digest.json
    python3 tools/pool_digest.py --src ../other/src --out other.json
    python3 tools/pool_digest.py --compare digest.json other.json

Solves every instance of the three benchmark pools (perfbench/families.py,
drawn from perfbench/run.py's POOL_SEED, in generation order) and writes
one SHA-256 per instance over the status, message, iteration count,
final x, y and f, and every field of every IterationRecord, with the
status and iteration count beside it in plain text. Floats are hashed
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
behaviour should keep that number at 0. It exits with status 1 when any
digest differs.
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


def outcome(result, omit=()):
    """The digest of one SolveResult, with its status and iteration count."""
    return {
        "digest": digest(result, omit),
        "status": result.status.value,
        "iterations": result.iterations,
    }


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
            result = curvsqp.solve(inst.problem, inst.v0, inst.config)
            out[f"{workload}/{i:02d}"] = outcome(result, omit)
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
    """Keys whose outcomes differ or that only one side has."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


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
