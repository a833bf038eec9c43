"""Span tracing of specdet's layers from outside the library.

``instrument(tracer)`` rebinds public functions where the calling module
looks them up (``specdet.cli.lattice_determinant``,
``specdet.lattice.plemelj_det``, ...) to wrappers that record a span per
call, and restores the original bindings on exit.  Trace-power sources
returned by the source factories get their ``trace_power`` callable
wrapped too, so time inside trace powers is charged to the layer that
built the source.  Three counts are exact: calls to a toroidal symbol's
``eval`` callback, ``mat_mul`` calls from invariant/bundles/oracle, and
series orders used by ``plemelj_det``.

Spans are kept in memory as ``[name, parent, start, end, request]`` and
written out once, after the run.  A span's self time is its duration
minus the durations of its direct children; with one thread they never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

#: (module, attribute as bound there, span name); spans that feed no
#: metric of their own keep library time out of cli.self_s
SPANS = [
    ("cli", "parse_spec", "specfile.parse_spec"),
    ("cli", "lattice_determinant", "lattice.lattice_determinant"),
    ("toroidal", "lattice_determinant", "lattice.lattice_determinant"),
    ("cli", "lattice_trace", "lattice.lattice_trace"),
    ("lattice", "nuclear_norm_estimate", "lattice.nuclear_norm_estimate"),
    ("toroidal", "nuclear_norm_estimate", "lattice.nuclear_norm_estimate"),
    ("cli", "toroidal_determinant", "toroidal.toroidal_determinant"),
    ("cli", "toroidal_matrix", "toroidal.toroidal_matrix"),
    ("toroidal", "toroidal_matrix", "toroidal.toroidal_matrix"),
    ("cli", "norm_growth_profile", "toroidal.norm_growth_profile"),
    ("cli", "poincare_norm", "toroidal.poincare_norm"),
    ("cli", "growth_verdict", "toroidal.growth_verdict"),
    ("cli", "invariant_determinant", "invariant.invariant_determinant"),
    ("cli", "manifold_determinant", "invariant.manifold_determinant"),
    ("cli", "block_trace", "invariant.block_trace"),
    ("cli", "bundle_determinant", "bundles.bundle_determinant"),
    ("cli", "bundle_trace", "bundles.bundle_trace"),
    ("cli", "flatten_symbol", "bundles.flatten_symbol"),
    ("cli", "mat_trace", "linalg.mat_trace"),
    ("oracle", "lu_determinant", "linalg.lu_determinant"),
    ("cli", "assemble_truncation", "oracle.assemble_truncation"),
    ("cli", "direct_determinant", "oracle.direct_determinant"),
    ("cli", "block_determinant_product", "oracle.block_determinant_product"),
    ("cli", "spectral_determinant_product", "oracle.spectral_determinant_product"),
    ("cli", "bundle_determinant_product", "oracle.bundle_determinant_product"),
    ("cli", "radius_estimate", "plemelj.radius_estimate"),
]

#: trace-power source factories: (module, attribute, layer of the source)
SOURCES = [
    ("cli", "truncation_trace_source", "lattice"),
    ("lattice", "truncation_trace_source", "lattice"),
    ("cli", "block_trace_source", "invariant"),
    ("invariant", "block_trace_source", "invariant"),
    ("cli", "spectral_trace_source", "invariant"),
    ("invariant", "spectral_trace_source", "invariant"),
    ("cli", "bundle_trace_source", "bundles"),
    ("bundles", "bundle_trace_source", "bundles"),
]

PLEMELJ_CALLERS = ("lattice", "invariant", "bundles")
MAT_MUL_CALLERS = ("invariant", "bundles", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, perf_counter(), None, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def source_factory(self, layer: str, attr: str, fn):
        build = self.wrap(f"{layer}.{attr}", fn)

        def factory(*args, **kwargs):
            src = build(*args, **kwargs)
            src.trace_power = self.wrap(f"{layer}.trace_power", src.trace_power)
            return src

        return factory

    def plemelj(self, fn):
        run = self.wrap("plemelj.plemelj_det", fn)
        sig = inspect.signature(fn)

        def plemelj_det(*args, **kwargs):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            result = run(*args, **kwargs)
            self.counts["plemelj.orders_used"] += result.order_used
            self.counts["plemelj.orders_requested"] += call.arguments["order"]
            return result

        return plemelj_det

    def builder(self, fn):
        build = self.wrap("specfile.build_operator", fn)
        sig = inspect.signature(fn)

        def build_operator(*args, **kwargs):
            op = build(*args, **kwargs)
            spec = next(iter(sig.bind(*args, **kwargs).arguments.values()))
            if spec.kind == "toroidal_symbol":
                op.eval = self.counted("toroidal.symbol_evals", op.eval)
            return op

        return build_operator

    # ------------------------------------------------------------------
    def totals(self):
        """Inclusive time of outermost spans and self time, per span name."""
        child = [0.0] * len(self.spans)
        names = [s[0] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[3] - s[2]
        incl, self_t = Counter(), Counter()
        for i, (name, parent, t0, t1, _) in enumerate(self.spans):
            self_t[name] += (t1 - t0) - child[i]
            p = parent
            while p is not None and names[p] != name:
                p = self.spans[p][1]
            if p is None:
                incl[name] += t1 - t0
        return incl, self_t

    def layer_metrics(self) -> dict:
        incl, self_t = self.totals()
        c = self.counts
        requested = c["plemelj.orders_requested"]
        return {
            "cli.self_s": (self_t["cli.run_command"], "s"),
            "specfile.parse_s": (incl["specfile.parse_spec"], "s"),
            "specfile.build_s": (incl["specfile.build_operator"], "s"),
            "toroidal.matrix_s": (self_t["toroidal.toroidal_matrix"], "s"),
            "toroidal.symbol_evals": (c["toroidal.symbol_evals"], "count"),
            "lattice.norm_s": (incl["lattice.nuclear_norm_estimate"], "s"),
            "lattice.source_s": (incl["lattice.truncation_trace_source"], "s"),
            "lattice.powers_s": (incl["lattice.trace_power"], "s"),
            "plemelj.self_s": (self_t["plemelj.plemelj_det"]
                               + self_t["plemelj.radius_estimate"], "s"),
            "plemelj.orders_used": (c["plemelj.orders_used"], "count"),
            "plemelj.order_ratio": (c["plemelj.orders_used"] / requested
                                    if requested else 0.0, "ratio"),
            "invariant.powers_s": (incl["invariant.trace_power"], "s"),
            "bundles.powers_s": (incl["bundles.trace_power"], "s"),
            "linalg.mat_mul_calls": (c["linalg.mat_mul_calls"], "count"),
            "linalg.lu_s": (incl["linalg.lu_determinant"], "s"),
            "oracle.assemble_s": (incl["oracle.assemble_truncation"], "s"),
            "oracle.det_s": (sum(incl[n] for n in (
                "oracle.direct_determinant", "oracle.block_determinant_product",
                "oracle.spectral_determinant_product",
                "oracle.bundle_determinant_product")), "s"),
            "bench.traced_s": (incl["cli.run_command"], "s"),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the traced names for the duration of the block."""
    mod = {name: importlib.import_module(f"specdet.{name}")
           for name in ("cli", "lattice", "toroidal", "invariant", "bundles", "oracle")}
    patches = [(mod[m], attr, tracer.wrap(span, getattr(mod[m], attr)))
               for m, attr, span in SPANS]
    patches += [(mod[m], attr, tracer.source_factory(layer, attr, getattr(mod[m], attr)))
                for m, attr, layer in SOURCES]
    patches += [(mod[m], "plemelj_det", tracer.plemelj(mod[m].plemelj_det))
                for m in PLEMELJ_CALLERS]
    patches += [(mod[m], "mat_mul", tracer.counted("linalg.mat_mul_calls", mod[m].mat_mul))
                for m in MAT_MUL_CALLERS]
    patches.append((mod["cli"], "build_operator", tracer.builder(mod["cli"].build_operator)))
    saved = [(target, attr, getattr(target, attr)) for target, attr, _ in patches]
    try:
        for target, attr, fn in patches:
            setattr(target, attr, fn)
        yield tracer
    finally:
        for target, attr, fn in saved:
            setattr(target, attr, fn)
