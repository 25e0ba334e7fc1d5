"""Span tracing of a solve from outside the solver.

The tracer swaps the names that curvsqp.driver and curvsqp.merit
imported, plus numpy.linalg.cholesky and the problem callbacks, for
wrappers that record one span per call: (name, start, end, parent span,
solve, info). info is a counter read from the call's return value or
the exception class it raised. Spans stay in memory; summarize() turns
them into per-layer figures and write_jsonl() saves them at the end.
"""

import dataclasses
import json
import time
from collections import defaultdict

import numpy as np

import curvsqp.driver as driver_mod
import curvsqp.merit as merit_mod

_perf = time.perf_counter


def _stage1_info(factor):
    """Pivot counts, dimensions and computed flops of one factorization.

    Flops follow the plain elimination kernel: a 1x1 pivot with r rows
    left below it costs r divisions and 3 r^2 for the Schur update, a
    2x2 pivot 8 r for its multipliers and 4 r^2 for the update.
    """
    dim = factor.perm.shape[0]
    flops = 0
    for blk in factor.blocks:
        size = blk.values.shape[0]
        r = dim - blk.offset - size
        flops += 3 * r * r + r if size == 1 else 4 * r * r + 8 * r
    return (dim, factor.S.shape[0], factor.counts["H+"], factor.counts["D-"],
            factor.counts["HD"], flops)


# name in the solver module -> (span name, reader of the return value)
_DRIVER_NAMES = {
    "evaluate": ("model.evaluate", None),
    "estimate": ("workset.estimate", lambda ws: ws.free.size),
    "build_kkt": ("factor.build_kkt", None),
    "stage1_factorize": ("factor.stage1", _stage1_info),
    "convexify": ("factor.convexify", lambda conv: conv.delta > 0.0),
    "extract_direction": ("curvature.extract", lambda d: d.exists),
    "refresh_direction": ("curvature.refresh", lambda d: d.exists),
    "orient": ("curvature.orient", None),
    "scale": ("curvature.scale", lambda step: step.beta > 0.0),
    "solve_qp": ("qpstep.solve_qp", lambda qp: qp.iterations),
    "curvilinear_search": (
        "merit.search",
        lambda ls: (ls.n_trials, ls.bound_rejections, ls.j),
    ),
    "penalty_update": ("merit.penalty_update", None),
    "measures": ("classify.measures", None),
    "classify_iterate": ("classify.classify", lambda label: label),
    "update_state": ("classify.update_state", None),
}
_CALLBACKS = ("objective", "gradient", "constraints", "jacobian", "hessian")


class Tracer:
    """Records nested spans; install() patches the solver while active."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1

    def wrap(self, name, fn, read=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, _perf(), 0.0, stack[-1] if stack else -1, self.solve_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = _perf()
                stack.pop()
            if read is not None:
                span[5] = read(out)
            return out

        return traced

    def traced_problem(self, problem):
        return dataclasses.replace(
            problem,
            **{cb: self.wrap("callbacks", getattr(problem, cb)) for cb in _CALLBACKS},
        )

    def solve(self, solve_fn, *args):
        """Run one solve under a root span named driver.solve."""
        self.solve_id += 1
        return self.wrap("driver.solve", solve_fn)(*args)

    def install(self):
        """Patch the solver modules; returns a function that undoes it."""
        saved = []
        for name, (span, read) in _DRIVER_NAMES.items():
            saved.append((driver_mod, name, getattr(driver_mod, name)))
            setattr(driver_mod, name, self.wrap(span, getattr(driver_mod, name), read))
        saved.append((merit_mod, "evaluate", merit_mod.evaluate))
        merit_mod.evaluate = self.wrap("model.evaluate", merit_mod.evaluate)
        saved.append((np.linalg, "cholesky", np.linalg.cholesky))
        np.linalg.cholesky = self.wrap("driver.certify.cholesky", np.linalg.cholesky)

        def restore():
            for module, name, original in reversed(saved):
                setattr(module, name, original)

        return restore

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=_plain) + "\n")


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def summarize(spans, n_solves, reference_s):
    """Per-layer figures from a finished span list.

    Times are self time per solve (duration minus the time covered by
    child spans), rescaled so that the root spans add up to reference_s,
    the traced solves' total in reference seconds. Ratios state their
    base in the name.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    evals_by_parent = defaultdict(int)
    for idx, (name, t0, t1, parent, _, info) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[idx]
        calls[name] += 1
        if info is not None:
            infos[name].append(info)
        if name == "model.evaluate" and parent >= 0:
            evals_by_parent[spans[parent][0]] += 1

    measured = sum((t1 - t0) for name, t0, t1, *_ in spans if name == "driver.solve")
    scale = reference_s / measured if measured > 0.0 else 1.0
    for name in self_s:
        self_s[name] *= scale

    def per_solve(value):
        return value / n_solves

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def frac(values):
        values = [v for v in values if isinstance(v, (bool, np.bool_))]
        return float(np.mean(values)) if values else 0.0

    stage1 = [i for i in infos["factor.stage1"] if isinstance(i, tuple)]
    searches = [i for i in infos["merit.search"] if isinstance(i, tuple)]
    labels = infos["classify.classify"]
    refreshed = calls["curvature.refresh"]
    out = {
        "driver.iterations_per_solve": per_solve(calls["workset.estimate"]),
        "driver.self_s": per_solve(self_s["driver.solve"]),
        "driver.certify.cholesky_calls": per_solve(calls["driver.certify.cholesky"]),
        "driver.certify.cholesky_s": per_solve(self_s["driver.certify.cholesky"]),
        "model.evaluate.calls": per_solve(calls["model.evaluate"]),
        "model.evaluate.self_s": per_solve(self_s["model.evaluate"]),
        "callbacks.self_s": per_solve(self_s["callbacks"]),
        "workset.estimate.self_s": per_solve(self_s["workset.estimate"]),
        "workset.free_mean": mean(infos["workset.estimate"]),
        "factor.build_kkt.self_s": per_solve(self_s["factor.build_kkt"]),
        "factor.stage1.calls": per_solve(calls["factor.stage1"]),
        "factor.stage1.self_s": per_solve(self_s["factor.stage1"]),
        "factor.stage1.dim_mean": mean([i[0] for i in stage1]),
        "factor.stage1.schur_dim_mean": mean([i[1] for i in stage1]),
        "factor.stage1.pivots_h": mean([i[2] for i in stage1]),
        "factor.stage1.pivots_d": mean([i[3] for i in stage1]),
        "factor.stage1.pivots_hd": mean([i[4] for i in stage1]),
        "factor.stage1.mflops": (
            sum(i[5] for i in stage1) / self_s["factor.stage1"] / 1e6
            if self_s["factor.stage1"] > 0.0 else 0.0
        ),
        "factor.convexify.shift_frac": frac(infos["factor.convexify"]),
        "curvature.extract.self_s": per_solve(self_s["curvature.extract"]),
        "curvature.found_frac": frac(infos["curvature.extract"]),
        "curvature.refresh.dropped": per_solve(
            refreshed - sum(1 for i in infos["curvature.refresh"] if i is True)
        ),
        "curvature.step_frac": frac(infos["curvature.scale"]),
        "qpstep.solve_qp.self_s": per_solve(self_s["qpstep.solve_qp"]),
        "qpstep.iterations_per_call": mean(
            [i for i in infos["qpstep.solve_qp"] if not isinstance(i, str)]
        ),
        "merit.search.self_s": per_solve(self_s["merit.search"]),
        "merit.search.trials_per_call": mean([i[0] for i in searches]),
        "merit.search.accept_frac": (
            len(searches) / calls["merit.search"] if calls["merit.search"] else 0.0
        ),
        "merit.search.bound_rejections": per_solve(sum(i[1] for i in searches)),
        "merit.search.failures": per_solve(
            sum(1 for i in infos["merit.search"] if isinstance(i, str))
        ),
        "merit.search.evals": per_solve(evals_by_parent["merit.search"]),
        "merit.penalty_update.evals": per_solve(evals_by_parent["merit.penalty_update"]),
        "classify.self_s": per_solve(
            self_s["classify.measures"]
            + self_s["classify.classify"]
            + self_s["classify.update_state"]
        ),
    }
    for label in "SLMF":
        out[f"classify.count_{label}"] = per_solve(labels.count(label))
    return out, {name: per_solve(value) for name, value in self_s.items()}
