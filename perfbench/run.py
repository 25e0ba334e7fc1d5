"""Solve benchmark for curvsqp.

    python3 perfbench/run.py --workload simplex-qp --seed 1 --seconds 30 --trace 0

Run from the repository root; curvsqp is imported from ./src. The
workload's instances (families.py) are a fixed pool of problems, put
in an order drawn from --seed. They are solved one after another in
this single process, with BLAS pinned to one thread. Set-up (import,
generation, problem-file parsing, a warm-up solve) is timed on its own.
The first pass then solves every instance, and each final point goes
through an independent second-order check (verify.py) outside the timed
region. While --seconds allows, the solves near the median and the tail
are timed again; every repeat must reproduce the first solve exactly.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.
--trace 1 solves the first half of the instances untraced and traced
(spans.py), one right after the other, prints the per-layer metrics and writes the
spans to perfbench/out/. Both print a readable report first and the
JSON result as the last line of standard output. layers.json says which
end-to-end metric each layer should move; baseline.json holds the first
recorded figures.
"""

import argparse
import dataclasses
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import NamedTuple

# pinned before numpy is first imported (in _import_solver) so the
# solver's dense algebra runs on one thread
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> (generator, instances per run). A first pass takes about 16
# (simplex-qp), 12 (cosine-lift) and 13 (poly-file) reference seconds,
# so a 30 s run re-times the solves near the median and the tail of the
# last two several times, and simplex-qp, whose solves are the least
# noisy, when the host is fast
WORKLOADS = {
    "simplex-qp": ("simplex_qp", 22),
    "cosine-lift": ("cosine_lift", 80),
    "poly-file": ("poly_file_text", 50),
}
# set-up is repeated at least SETUP_REPEATS[0] and at most [1] times,
# until SETUP_MIN_S seconds have gone into it; the import is timed
# IMPORT_REPEATS times
SETUP_REPEATS = (3, 15)
SETUP_MIN_S = 3.0
IMPORT_REPEATS = 9
# Every seed solves the same problems, drawn once from POOL_SEED, in an
# order drawn from --seed. Drawing the problems from --seed made the
# tail and the per-solve counts vary by 15-35 % between seeds, and even
# a 1e-9 perturbation of the start changes the path of ~10 % of these
# nonconvex solves; that is the sampling spread of the family and the
# solver's sensitivity to rounding, not a change in its speed.
POOL_SEED = 1
RETIME_SPAN = 2.0
WARMUP_SEED = 0
SOLVED = "second-order-optimal"

# The machines this runs on change speed by up to 2x from one tenth of a
# second to the next (a shared host). Timings are therefore reported in
# reference seconds: measured seconds times REFERENCE_SAMPLE_S over the
# median time of a short fixed piece of work sampled while they ran.
# REFERENCE_SAMPLE_S is that sample's time on a shared 2-core x86 VM
# without numba when the host is quiet; it fixes the unit and nothing
# else.
REFERENCE_SAMPLE_S = 0.00026
SAMPLE_EVERY_S = 0.01


class SpeedClock:
    """Times one thing at a time and converts it to reference seconds.

    The clock samples the machine's speed just before start(), just
    after stop(), and on every tick() in between that comes at least
    SAMPLE_EVERY_S after the last sample. A solve ticks from its problem
    callbacks, so the speed is sampled all through it, at a cost of 2 to 5 %
    of its time, and the time the samples took is left out of what it
    measured.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        B = rng.standard_normal((16, 16))
        self._matrix = B @ B.T + 16.0 * np.eye(16)
        self.log = []  # every sample taken, for the report
        self._samples, self._spent, self._t0, self._last = [], 0.0, 0.0, 0.0

    def _sample(self):
        """Seconds a few hundred scalar eliminations take, as the
        solver's interpreted kernels do them."""
        A = self._matrix.copy()
        t0 = time.perf_counter()
        for k in range(15):
            inv = 1.0 / A[k, k]
            for i in range(k + 1, 16):
                ci = A[i, k]
                for j in range(k + 1, min(16, k + 5)):
                    A[i, j] -= (ci * A[j, k]) * inv
        seconds = time.perf_counter() - t0
        self.log.append(seconds)
        return seconds

    def start(self):
        self._samples = [self._sample()]
        self._spent = 0.0
        self._t0 = self._last = time.perf_counter()

    def tick(self):
        now = time.perf_counter()
        if now - self._last >= SAMPLE_EVERY_S:
            self._samples.append(self._sample())
            self._last = time.perf_counter()
            self._spent += self._last - now

    def stop(self):
        """(measured seconds since start(), reference seconds per
        measured second)."""
        wall = time.perf_counter() - self._t0 - self._spent
        self._samples.append(self._sample())
        return wall, REFERENCE_SAMPLE_S / statistics.median(self._samples)


class Solve(NamedTuple):
    seconds: float  # reference seconds
    outcome: str  # SolveStatus value, or the class of the exception raised
    x: object  # final primal point, None after an exception
    fevals: int
    hevals: int
    wall: float  # measured seconds


def _import_solver():
    """Import curvsqp from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import curvsqp
    except ImportError as exc:
        sys.exit(f"cannot import curvsqp from {SRC}: {exc}")
    if not os.path.abspath(curvsqp.__file__).startswith(SRC + os.sep):
        sys.exit(f"curvsqp was imported from {curvsqp.__file__}, not {SRC}")
    return curvsqp


def _generate(families, workload, seed, count=None, pool_seed=POOL_SEED):
    """The workload's instances and the seconds spent parsing files.

    The problems are drawn from pool_seed and put in an order drawn
    from seed.
    """
    import numpy as np

    gen_name, default_count = WORKLOADS[workload]
    count = count or default_count
    gen = getattr(families, gen_name)
    rng = np.random.default_rng(pool_seed)
    pool = [gen(rng) for _ in range(count)]
    pool = [pool[i] for i in np.random.default_rng(seed).permutation(count)]
    if workload != "poly-file":
        return pool, 0.0
    texts = pool
    t0 = time.perf_counter()
    instances = [families.parse_instance(text) for text in texts]
    return instances, time.perf_counter() - t0


def _counted(problem, counts, tick=None):
    """Problem whose objective and Hessian callbacks bump counts[0], [1]
    and call tick first, if given."""
    objective, hessian = problem.objective, problem.hessian
    tick = tick or (lambda: None)

    def f(x):
        tick()
        counts[0] += 1
        return objective(x)

    def h(x, y):
        tick()
        counts[1] += 1
        return hessian(x, y)

    return dataclasses.replace(problem, objective=f, hessian=h)


def _solve_one(solve, inst, clock, sample_inside=True):
    counts = [0, 0]
    problem = _counted(inst.problem, counts, clock.tick if sample_inside else None)
    # every solve starts from an empty collector, so the collections that
    # fall inside it depend on the solve alone, not on what ran before
    gc.collect()
    clock.start()
    try:
        result = solve(problem, inst.v0, inst.config)
    except Exception as exc:  # every failure is recorded by its class
        wall, scale = clock.stop()
        return Solve(wall * scale, type(exc).__name__, None, *counts, wall)
    wall, scale = clock.stop()
    return Solve(wall * scale, result.status.value, result.iterate.x, *counts, wall)


def _import_seconds(clock):
    """Median reference seconds that importing curvsqp's own modules
    takes, numpy being loaded already.

    Each repeat drops the package's modules from sys.modules and imports
    it afresh; the modules the benchmark uses are put back afterwards.
    Timing a fresh interpreter instead measured mostly numpy's import
    and the host's file cache, and spread by 30 % between runs.
    """

    def own(name):
        return name == "curvsqp" or name.startswith("curvsqp.")

    loaded = {name: module for name, module in sys.modules.items() if own(name)}
    seconds = []
    try:
        for _ in range(IMPORT_REPEATS):
            for name in [name for name in sys.modules if own(name)]:
                del sys.modules[name]
            clock.start()
            importlib.import_module("curvsqp")
            wall, scale = clock.stop()
            seconds.append(wall * scale)
    finally:
        for name in [name for name in sys.modules if own(name)]:
            del sys.modules[name]
        sys.modules.update(loaded)
    return statistics.median(seconds)


def _setup(curvsqp, families, workload, seed, clock):
    """Median reference seconds over repeats of generation, parsing and a
    warm-up solve, plus the parse seconds and the instances.

    The warm-up solves one instance of the family drawn from WARMUP_SEED
    alone, so set-up time does not depend on --seed.
    """
    totals, parses = [], []
    t_start = time.perf_counter()
    while len(totals) < SETUP_REPEATS[0] or (
        len(totals) < SETUP_REPEATS[1] and time.perf_counter() - t_start < SETUP_MIN_S
    ):
        clock.start()
        instances, parse_s = _generate(families, workload, seed)
        warmup, _ = _generate(
            families, workload, WARMUP_SEED, count=1, pool_seed=WARMUP_SEED
        )
        problem = _counted(warmup[0].problem, [0, 0], clock.tick)
        try:
            curvsqp.solve(problem, warmup[0].v0, warmup[0].config)
        except Exception:  # the warm-up's outcome is not measured
            pass
        wall, scale = clock.stop()
        totals.append(wall * scale)
        parses.append(parse_s * scale)
    return statistics.median(totals), statistics.median(parses), instances


def _run_pass(solve, instances, clock, sample_inside=True):
    """Solve every instance once; times come in reference seconds."""
    return [_solve_one(solve, inst, clock, sample_inside) for inst in instances]


def _retime(solve, instances, first, ok, clock, deadline):
    """Solve again, until the deadline (a perf_counter time), the
    instances that can decide the median and the tail.

    A single solve's time still moves by 10 to 15 % with the host, so
    each instance is timed by its median over passes. Those that took
    over RETIME_SPAN times the first pass's tail are timed once: they
    are the stalls and the few very long solves, too far above both
    figures for that noise to move them across. Returns each instance's
    solves, first pass included, and the indices solved again.
    """
    cutoff = RETIME_SPAN * _tail([s.seconds for s, good in zip(first, ok) if good] or [0.0])[0]
    again = [i for i, s in enumerate(first) if s.seconds <= cutoff]
    samples = [[s] for s in first]
    pass_s = sum(first[i].wall for i in again)
    while again and time.perf_counter() + pass_s < deadline:
        t0 = time.perf_counter()
        for i, s in zip(again, _run_pass(solve, [instances[i] for i in again], clock)):
            samples[i].append(s)
        pass_s = time.perf_counter() - t0
    return samples, again


def _same(a, b):
    """Two solves of one instance ended identically."""
    import numpy as np

    if (a.outcome, a.fevals, a.hevals) != (b.outcome, b.fevals, b.hevals):
        return False
    if a.x is None or b.x is None:
        return a.x is b.x
    return np.array_equal(a.x, b.x)


def _tail(times):
    """(value, percentile) of the highest percentile with ten samples beyond."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _end_to_end(first, times, ok, setup_s):
    """End-to-end metrics. first is the first pass, times[i] instance
    i's median time over its untraced solves, ok[i] its verdict.

    Times are in reference seconds. The tail is taken over verified
    solves only, because the slow failures (stalls,
    evaluation errors) would otherwise put it on a cliff that moves with
    the failure count; failures are counted in verified_frac instead.
    """
    n = len(first)
    claimed = [s.outcome == SOLVED for s in first]
    verified = sum(ok)
    false_optimal = sum(1 for c, good in zip(claimed, ok) if c and not good)
    ok_times = [t for t, good in zip(times, ok) if good] or times
    tail, tail_pct = _tail(ok_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s_p50": (statistics.median(times), "s"),
        "solve_s_tail": (tail, "s"),
        "solve_s_tail.percentile": (tail_pct, "%"),
        "solve_s_tail.samples": (len(ok_times), "count"),
        "solved_per_s": (verified / sum(times), "1/s"),
        "verified_frac": (verified / n, "1"),
        "failed_frac": ((n - verified) / n, "1"),
        "false_optimal_frac": (false_optimal / max(sum(claimed), 1), "1"),
        "fevals_per_solve": (statistics.median(s.fevals for s in first), "count"),
        "hevals_per_solve": (statistics.median(s.hevals for s in first), "count"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    return metrics, verified, false_optimal


def _report(title, metrics):
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def _traced_pairs(curvsqp, families, spans, instances, clock):
    """Solve each instance plainly and then under the tracer, back to
    back, so that trace.overhead_frac does not see the host change speed
    between them. Neither samples the speed from inside the solve: in the
    traced one the samples would land in the spans.

    Returns (plain solves, traced solves, tracer).
    """
    tracer = spans.Tracer()
    plain, traced = [], []
    for inst in instances:
        plain.append(_solve_one(curvsqp.solve, inst, clock, sample_inside=False))
        inst = families.Instance(tracer.traced_problem(inst.problem), inst.v0, inst.config)
        restore = tracer.install()
        try:
            traced.append(
                _solve_one(
                    lambda *a: tracer.solve(curvsqp.solve, *a), inst, clock,
                    sample_inside=False,
                )
            )
        finally:
            restore()
    return plain, traced, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    curvsqp = _import_solver()
    import families
    import spans
    import verify

    clock = SpeedClock()
    setup_s, parse_s, instances = _setup(
        curvsqp, families, args.workload, args.seed, clock
    )
    setup_s += _import_seconds(clock)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    t_start = time.perf_counter()
    if args.trace:
        # half the instances, each solved plain and traced, so the traced
        # run lasts about as long as a plain one
        instances = instances[: max(len(instances) // 2, 1)]
        first, traced_solves, tracer = _traced_pairs(
            curvsqp, families, spans, instances, clock
        )
    else:
        first = _run_pass(curvsqp.solve, instances, clock)
    verdicts = [
        verify.check_point(inst.problem, s.x) if s.x is not None else None
        for inst, s in zip(instances, first)
    ]
    # a solve succeeds when it ends second-order-optimal at a point that
    # passes the check; a stall at the iteration limit fails even there
    ok = [s.outcome == SOLVED and v is not None and v.ok for s, v in zip(first, verdicts)]
    if args.trace:
        samples, again = [[s] for s in first], []
        pairs = list(zip(first, traced_solves))
    else:
        samples, again = _retime(
            curvsqp.solve, instances, first, ok, clock, t_start + args.seconds
        )
        pairs = [(sample[0], s) for sample in samples for s in sample[1:]]
    repeats = max(len(sample) for sample in samples) - 1
    deterministic = all(_same(a, b) for a, b in pairs)
    times = [statistics.median(s.seconds for s in sample) for sample in samples]
    e2e, verified, false_optimal = _end_to_end(first, times, ok, setup_s)
    e2e["solve_s_p50.measured"] = (
        statistics.median(statistics.median(s.wall for s in sample) for sample in samples),
        "s",
    )
    outcomes = dict(sorted(Counter(s.outcome for s in first).items()))
    weak = sum(1 for v, good in zip(verdicts, ok) if good and v.weak_bound_saddle)
    false_claims = Counter(
        v.reason for s, v in zip(first, verdicts) if s.outcome == SOLVED and not v.ok
    )
    print(
        f"workload {args.workload}  seed {args.seed}  instances {len(instances)}"
        f"  repeat passes {repeats} over {len(again)} instances  BLAS threads pinned to 1 via"
        f" {','.join(BLAS_THREAD_VARS)}"
    )
    print(f"outcomes {json.dumps(outcomes)}  deterministic {deterministic}")
    print(f"verify: claimed optimal but failed the check {json.dumps(dict(false_claims))}")
    print(
        f"speed samples: {len(clock.log)},"
        f" median {statistics.median(clock.log):.6g} s,"
        f" reference {REFERENCE_SAMPLE_S} s (times below are reference seconds)"
    )
    print(f"verify.weak_bound_saddles {weak}  problemfile.parse_s {parse_s:.6g} (set-up)")
    _report("end to end (untraced)", e2e)

    if args.trace:
        traced_s = sum(s.seconds for s in traced_solves)
        layer, self_by_span = spans.summarize(tracer.spans, len(instances), traced_s)
        layer["trace.overhead_frac"] = (
            traced_s / sum(s.seconds for s in first) - 1.0
        )
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        _report(
            "per layer (traced, reference seconds per solve)",
            {k: (v, units.get(k, "")) for k, v in layer.items()},
        )
        print("== self-time share of traced solve time")
        total = sum(self_by_span.values())
        for name, value in sorted(self_by_span.items(), key=lambda kv: -kv[1]):
            print(f"  {name:34s} {100.0 * value / total:6.1f} %")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(
            os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        )
        values, declared_metrics = layer, declared["per_layer"]
    else:
        values = {name: value for name, (value, _) in e2e.items()}
        declared_metrics = declared["end_to_end"]
    print(json.dumps({
        "correct": false_optimal == 0 and deterministic,
        "attempted": len(instances),
        "failed": len(instances) - verified,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared_metrics
        },
    }))


if __name__ == "__main__":
    main()
