"""Per-layer tracing installed from outside the program.

``install`` replaces the module attributes and class methods that callers
look up with wrappers; nothing under ``src/`` changes.  Each wrapper records
a span (id, parent id, job id, name, start, end) kept in memory; a span's
self time is its duration minus the time its child spans cover.  The hottest
functions (``HOT``) keep no spans: they add their calls and time to a
counter, and since they open no span their time also stays inside their
caller's self time.  Time the tracer spends measuring a matrix is recorded
on the span it falls in and left out of that span's self time.

Times are taken with the clock given to ``Tracer``, the one the job times use.

Two kinds of call are folded into the caller's span instead of opening their
own: direct self-recursion (``d`` calling ``d``), and calls inside the linear
algebra layer (``nullspace`` calling ``rref``, ``det`` recursing), so
``linalg.*.calls`` counts entries into the layer from outside.
"""

from __future__ import annotations

import functools
import json
import time

HOT = frozenset({"endos.apply_endo", "diffusion.pq_p"})

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = (
    ("cli.main.self_ms", "ms"),
    ("dsl.parse.self_ms", "ms"),
    ("scalars.field_from_name.self_ms", "ms"),
    ("smoothness.decide.self_ms", "ms"),
    ("smoothness.assemble_constant_checks.self_ms", "ms"),
    ("smoothness.solve_diagonal_unknowns.self_ms", "ms"),
    ("smoothness.classify_3d.self_ms", "ms"),
    ("endos.respects_relations.self_ms", "ms"),
    ("endos.apply_endo.calls", "count"),
    ("endos.apply_endo.self_ms", "ms"),
    ("algebra.normal_form.calls", "count"),
    ("algebra.normal_form.self_ms", "ms"),
    ("algebra.multiply.calls", "count"),
    ("algebra.multiply.self_ms", "ms"),
    ("algebra.check_pbw_overlaps.self_ms", "ms"),
    ("linalg.calls", "count"),
    ("linalg.self_ms", "ms"),
    ("linalg.nullspace.cells", "count"),
    ("linalg.nullspace.nnz", "count"),
    ("linalg.solve_affine.calls", "count"),
    ("linalg.det.calls", "count"),
    ("calculus.kernel_of_d_bounded.calls", "count"),
    ("calculus.kernel_of_d_bounded.self_ms", "ms"),
    ("calculus.d.calls", "count"),
    ("calculus.d.self_ms", "ms"),
    ("calculus.wedge.self_ms", "ms"),
    ("calculus.left_act.self_ms", "ms"),
    ("calculus.integral_form_coefficients.self_ms", "ms"),
    ("calculus.verify_integrability.self_ms", "ms"),
    ("diffusion.verify_pq_recurrences.self_ms", "ms"),
    ("diffusion.pq_p.calls", "count"),
    ("diffusion.verify_right_commutation.self_ms", "ms"),
    ("diffusion.verify_left_commutation.self_ms", "ms"),
    ("diffusion.verify_determinant_identities.self_ms", "ms"),
    ("diffusion.classify_diffusion_3.self_ms", "ms"),
)


def _targets():
    """(span name, function name, the objects whose attribute callers read)."""
    from skewsmooth import (algebra, calculus, cli, diffusion, dsl, endos, linalg,
                            scalars, smoothness)
    return [
        ("cli.main", "main", [cli]),
        ("dsl.parse", "parse", [dsl]),
        ("scalars.field_from_name", "field_from_name", [scalars, dsl]),
        ("smoothness.decide", "decide", [smoothness, cli]),
        ("smoothness.assemble_constant_checks", "assemble_constant_checks", [smoothness]),
        ("smoothness.solve_diagonal_unknowns", "solve_diagonal_unknowns", [smoothness]),
        ("smoothness.classify_3d", "classify_3d", [smoothness, cli]),
        ("endos.respects_relations", "respects_relations", [endos, smoothness]),
        ("endos.apply_endo", "apply_endo", [endos, calculus]),
        ("algebra.normal_form", "normal_form", [algebra.Presentation]),
        ("algebra.multiply", "multiply", [algebra.Presentation]),
        ("algebra.check_pbw_overlaps", "check_pbw_overlaps", [algebra.Presentation]),
        ("linalg.rref", "rref", [linalg]),
        ("linalg.rank", "rank", [linalg]),
        ("linalg.nullspace", "nullspace", [linalg]),
        ("linalg.solve_affine", "solve_affine", [linalg]),
        ("linalg.det", "det", [linalg]),
        ("calculus.kernel_of_d_bounded", "kernel_of_d_bounded", [calculus]),
        ("calculus.d", "d", [calculus.CalculusContext]),
        ("calculus.wedge", "wedge", [calculus.CalculusContext]),
        ("calculus.left_act", "left_act", [calculus.CalculusContext]),
        ("calculus.integral_form_coefficients", "integral_form_coefficients", [calculus]),
        ("calculus.verify_integrability", "verify_integrability", [calculus]),
        ("diffusion.verify_pq_recurrences", "verify_pq_recurrences", [diffusion]),
        ("diffusion.pq_p", "pq_p", [diffusion]),
        ("diffusion.verify_right_commutation", "verify_right_commutation", [diffusion]),
        ("diffusion.verify_left_commutation", "verify_left_commutation", [diffusion]),
        ("diffusion.verify_determinant_identities", "verify_determinant_identities",
         [diffusion]),
        ("diffusion.classify_diffusion_3", "classify_diffusion_3", [diffusion]),
    ]


def _matrix_size(tracer, args, kwargs):
    """linalg.nullspace(field, rows, ncols): count cells and nonzero cells."""
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tracer.counts["linalg.nullspace.cells"] += sum(len(r) for r in rows)
    tracer.counts["linalg.nullspace.nnz"] += sum(1 for r in rows for v in r if v)


_ON_CALL = {"linalg.nullspace": _matrix_size}


class _Frame:
    __slots__ = ("sid", "name", "layer", "overhead")

    def __init__(self, sid, name, layer):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.overhead = 0.0


class Tracer:
    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.job = -1
        self.spans: list = []          # (id, parent, job, name, start, end, overhead)
        self.hot: dict = {name: [0, 0.0] for name in HOT}   # calls, seconds
        self.counts: dict = {"linalg.nullspace.cells": 0, "linalg.nullspace.nnz": 0}
        self._stack: list = []
        self._next = 0

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hot = name in HOT
        on_call = _ON_CALL.get(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and (parent.name == name or
                                       (layer == "linalg" and parent.layer == "linalg")):
                return fn(*args, **kwargs)
            if on_call is not None:
                t = clock()
                on_call(self, args, kwargs)
                if parent is not None:
                    parent.overhead += clock() - t
            self._next += 1
            frame = _Frame(self._next, name, layer)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if hot:
                    entry = self.hot[name]
                    entry[0] += 1
                    entry[1] += end - start
                else:
                    self.spans.append((frame.sid, parent.sid if parent else 0, self.job,
                                       name, start, end, frame.overhead))
        return wrapper

    def install(self) -> None:
        for name, attr, owners in _targets():
            original = getattr(owners[0], attr)
            wrapped = self.wrap(name, original)
            for owner in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner!r}.{attr} is not the function it imports")
                setattr(owner, attr, wrapped)

    def self_seconds(self) -> dict:
        """Self time per span name: duration minus child spans' time.  Counted
        (hot) functions report their whole time."""
        child = {}
        for sid, parent, _job, _name, start, end, _overhead in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        out: dict = {}
        for sid, _parent, _job, name, start, end, overhead in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0) - overhead
        for name, (_calls, seconds) in self.hot.items():
            out[name] = seconds
        return out

    def calls(self) -> dict:
        out: dict = {}
        for span in self.spans:
            out[span[3]] = out.get(span[3], 0) + 1
        for name, (n, _seconds) in self.hot.items():
            out[name] = n
        return out

    def metrics(self, jobs: int) -> dict:
        """Every per-layer metric, per attempted job."""
        selfs, calls = self.self_seconds(), self.calls()
        layer_self = sum(s for n, s in selfs.items() if n.startswith("linalg."))
        layer_calls = sum(c for n, c in calls.items() if n.startswith("linalg."))
        out = {}
        for metric, unit in METRICS:
            if metric == "linalg.self_ms":
                value = layer_self * 1000
            elif metric == "linalg.calls":
                value = layer_calls
            elif metric in self.counts:
                value = self.counts[metric]
            elif metric.endswith(".self_ms"):
                value = selfs.get(metric[:-len(".self_ms")], 0.0) * 1000
            else:
                value = calls.get(metric[:-len(".calls")], 0)
            out[metric] = {"value": value / jobs, "unit": unit}
        return out

    def layer_self_ms(self, jobs: int) -> dict:
        """Self time per layer (module), per attempted job, from spans only
        (a counted function's time is already inside its caller's)."""
        out: dict = {}
        for name, seconds in self.self_seconds().items():
            if name in HOT:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds * 1000 / jobs
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, overhead in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end,
                                     "tracer_overhead_s": overhead}) + "\n")
            for name, (n, seconds) in sorted(self.hot.items()):
                fh.write(json.dumps({"counter": name, "calls": n, "seconds": seconds}) + "\n")
