"""Span tracing of the legknots layers from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the name in every legknots module that holds it, so calls between
modules and within one module both pass through the wrapper.  A span is
(id, parent id, function, start, end, request, failed); spans stay in
memory until ``write``.  A generator function gets one span per resume, so
the work of producing each item is charged to the generator's layer.

Self time is span time minus the time of direct child spans; a layer's self
time is the sum over its spans.  Cache statistics are read from the
unwrapped ``lru_cache`` objects.
"""

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter

LAYERS = ("cf", "diagram", "linalg", "invariants", "classify", "floer", "lens", "cli", "checks")

# Polynomial arithmetic called once per matrix entry inside the Smith normal
# form and the d^2 check: millions of calls, and no layer boundary, so its
# time stays in its caller's span.
_INNER_LOOP = {"floer.poly_mul", "floer.poly_divmod"}

# Entry points of an invariant evaluation (one of them called from outside
# the invariants layer counts as one evaluation).
_EVALS = {
    "invariants.classical_invariants",
    "invariants.compute_tb",
    "invariants.compute_rot",
    "invariants.compute_d3",
    "invariants.d3_surgered",
}


def _cells(mat) -> int:
    return len(mat) * (len(mat[0]) if mat else 0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.request = -1
        self.originals: dict = {}
        self.knots: set = set()  # distinct (p, q) given to complementary_expansions
        self.snf_cells = 0
        self.yields: Counter = Counter()
        self._stack = [-1]
        self._ids = itertools.count()

    # ---- installation

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"legknots.{layer}") for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
                if name.startswith("_") or not inspect.isfunction(target):
                    continue
                if target.__module__ != module.__name__ or f"{layer}.{name}" in _INNER_LOOP:
                    continue
                self.originals[f"{layer}.{name}"] = obj
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                replacements[id(obj)] = self._wrap(fid, f"{layer}.{name}", obj, target)
        for module in (sys.modules["legknots"], *modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, name, replacements[id(obj)])

    def span(self, name: str, fn):
        """``fn`` recording a span under ``name``, for work outside legknots
        (a name outside ``LAYERS`` adds to no layer's time)."""
        fid = len(self.names)
        self.names.append(name)
        return self._wrap(fid, name, fn, fn)

    def _probe(self, name: str):
        if name == "cf.complementary_expansions":
            return lambda params: self.knots.add((params.p, params.q))
        if name == "floer.smith_invariant_factors":

            def add_cells(mat):
                self.snf_cells += _cells(mat)

            return add_cells
        return None

    def _wrap(self, fid: int, name: str, fn, target):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(target):
            yields = self.yields

            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    sid = next(ids)
                    parent = stack[-1]
                    stack.append(sid)
                    failed = True
                    start = clock()
                    try:
                        item = next(items)
                        failed = False
                    except StopIteration:
                        failed = False
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans.append((sid, parent, fid, start, end, tracer.request, failed))
                    yields[fid] += 1
                    yield item

            return functools.update_wrapper(traced_generator, fn)

        probe = self._probe(name)

        def traced(*args, **kwargs):
            if probe is not None:
                probe(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, fid, start, end, tracer.request, failed))

        return functools.update_wrapper(traced, fn)

    # ---- results

    def cache_ratio(self, name: str) -> float:
        info = self.originals[name].cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def summary(self) -> dict:
        """Per-layer self time, calls and errors, plus per-function calls."""
        count = len(self.spans)
        fid_of = [0] * count
        child = [0.0] * count
        for sid, parent, fid, start, end, _, _ in self.spans:
            fid_of[sid] = fid
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        errors = Counter()
        evals = 0
        for sid, parent, fid, start, end, _, failed in self.spans:
            name = self.names[fid]
            layer = name.split(".", 1)[0]
            self_s[layer] += end - start - child[sid]
            calls[name] += 1
            errors[layer] += failed
            if name in _EVALS and (parent < 0 or not self.names[fid_of[parent]].startswith("invariants.")):
                evals += 1
        layer_calls = Counter()
        for name, n in calls.items():
            layer_calls[name.split(".", 1)[0]] += n
        return {
            "spans": count,
            "self_s": {layer: self_s[layer] for layer in LAYERS},
            "calls": {layer: layer_calls[layer] for layer in LAYERS},
            "errors": {layer: errors[layer] for layer in LAYERS},
            "function_calls": dict(calls),
            "yields": {self.names[fid]: n for fid, n in self.yields.items()},
            "invariant_evals": evals,
            "distinct_knots": len(self.knots),
            "snf_cells": self.snf_cells,
            "level_cache_hit_ratio": self.cache_ratio("classify.classify_level"),
            "hfk_cache_hit_ratio": self.cache_ratio("floer.hfk_minus"),
        }

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, function, start, end, request, failed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tfunction\tstart\tend\trequest\tfailed\n")
            names = self.names
            for sid, parent, fid, start, end, req, failed in self.spans:
                out.write(f"{sid}\t{parent}\t{names[fid]}\t{start:.9f}\t{end:.9f}\t{req}\t{int(failed)}\n")
