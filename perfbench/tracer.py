"""Spans around the library's layers, recorded from outside the library.

Tracer.install() replaces each timed function with a wrapper in every
loaded brauerblocks namespace that binds it (oracle imports Echelon and
is_balanced, cells imports concat, the package re-exports most names), and
each timed method on its class.  A wrapper opens a span on a stack; when
the span closes, its duration, its self time (duration minus the time its
child spans cover) and its caller are folded into per-(caller, name)
totals kept in memory, so the nesting survives while memory stays bounded.

The remaining public functions of cells, specht, linalg and oracle get a
wrapper that only counts calls, so a workload that must bypass one of
those modules can show zero calls into it.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# Timed spans: (span name, module, attribute); "Class.attr" wraps the
# method or property on the class.
SPANS = (
    ("partitions.mn_character", "partitions", "mn_character"),
    ("partitions.lr_coefficient", "partitions", "lr_coefficient"),
    ("specht.build_specht", "specht", "build_specht"),
    ("specht.perm_matrix", "specht", "SpechtModule.perm_matrix"),
    ("cells.build_cell", "cells", "build_cell"),
    ("cells.act_diagram", "cells", "CellModule.act_diagram"),
    ("cells.gen_actions", "cells", "CellModule.gen_actions"),
    ("diagrams.concat", "diagrams", "concat"),
    ("linalg.mat_vec", "linalg", "mat_vec"),
    ("linalg.Echelon.add", "linalg", "Echelon.add"),
    ("blocks.is_balanced", "blocks", "is_balanced"),
    ("blocks.block_partition", "blocks", "block_partition"),
    ("blocks.minimal_weight", "blocks", "minimal_weight"),
    ("blocks.is_minimal", "blocks", "is_minimal"),
    ("blocks.maximal_balanced_sub", "blocks", "maximal_balanced_sub"),
    ("blocks.hat_steps", "blocks", "hat_steps"),
    ("oracle.hom_dim", "oracle", "hom_dim"),
)
COUNTED_MODULES = ("cells", "specht", "linalg", "oracle")
ROUTES = ("scalar", "specht", "compressed", "generic")

# (metric, unit) for every per-layer number the traced run reports.
LAYER_METRICS = (
    [(f"{span}.{stat}", unit) for span, _, _ in SPANS
     for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))]
    + [("linalg.Echelon.add.grew_ratio", "ratio"),
       ("oracle.generic.unknowns_max", "count"),
       *[(f"oracle.hom_dim.calls.{r}", "count") for r in ROUTES],
       *[(f"oracle.hom_dim.{r}.total_s", "s") for r in ROUTES],
       ("oracle.hom_dim.nonzero_ratio", "ratio"),
       ("cells.build_cell.hit_ratio", "ratio"),
       ("cells.dim_built", "count"),
       ("partitions.mn_cache.hit_ratio", "ratio"),
       ("blocks.balanced_cache.hit_ratio", "ratio"),
       ("blocks.balanced_cache.size", "count"),
       *[(f"{mod}.calls", "count") for mod in COUNTED_MODULES]]
)


def route_of(oracle, q) -> str:
    """The route hom_dim takes for a query, read from its public dispatch
    predicate rather than from its private helpers."""
    value = oracle.central_scalar_value
    if value(q.n, q.delta, q.source) != value(q.n, q.delta, q.target):
        return "scalar"
    if q.source.size == q.n and q.target.size == q.n:
        return "specht"
    if q.delta != 0 or q.source.size == q.n:
        return "compressed"
    return "generic"


def _hit_ratio(cached) -> float:
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    if info is None or not info.hits + info.misses:
        return 0.0
    return info.hits / (info.hits + info.misses)


class Tracer:
    def __init__(self):
        self.paused = False
        self._stack: list[list] = []  # [name, start, time covered by children]
        # (caller, name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counted: dict[str, int] = defaultdict(int)
        self.route_calls = dict.fromkeys(ROUTES, 0)
        self.route_s = dict.fromkeys(ROUTES, 0.0)
        self.nonzero = 0
        self.unknowns_max = 0
        self.grew = 0
        self.dim_built = 0
        self._last_misses = 0
        self._originals: dict[str, object] = {}

    # -------------------------------------------------------------- wrappers

    def _span(self, name: str, fn, observe=None):
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][2] += dur
                agg = self.spans[(parent, name)]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
            if observe is not None:
                observe(args, result, dur)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.counted

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe_hom_dim(self, args, result, dur):
        q = args[0]
        oracle = sys.modules["brauerblocks.oracle"]
        self.paused = True  # the library calls made here are not the workload's
        try:
            route = route_of(oracle, q)
            if route == "generic":
                unknowns = oracle.cell_dim(q.n, q.source) * oracle.cell_dim(q.n, q.target)
                self.unknowns_max = max(self.unknowns_max, unknowns)
        finally:
            self.paused = False
        self.route_calls[route] += 1
        self.route_s[route] += dur
        self.nonzero += bool(result)

    def _observe_add(self, args, result, dur):
        self.grew += bool(result)

    def _observe_build_cell(self, args, result, dur):
        misses = self._originals["cells.build_cell"].cache_info().misses
        if misses != self._last_misses:
            self.dim_built += result.dim
            self._last_misses = misses

    # --------------------------------------------------------------- install

    def install(self) -> "Tracer":
        """Wrap the timed names; call after the library is imported."""
        observers = {"oracle.hom_dim": self._observe_hom_dim,
                     "linalg.Echelon.add": self._observe_add,
                     "cells.build_cell": self._observe_build_cell}
        replace: dict[int, object] = {}
        for span, mod, attr in SPANS:
            module = sys.modules[f"brauerblocks.{mod}"]
            if "." in attr:
                self._wrap_member(module, attr, span, observers.get(span))
                continue
            fn = getattr(module, attr, None)
            if fn is not None:
                self._originals[span] = fn
                replace[id(fn)] = self._span(span, fn, observers.get(span))
        for mod in COUNTED_MODULES:
            module = sys.modules[f"brauerblocks.{mod}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and callable(fn) and not inspect.isclass(fn)
                        and getattr(fn, "__module__", None) == module.__name__
                        and id(fn) not in replace):
                    replace[id(fn)] = self._counter(f"{mod}.{attr}", fn)
        build_cell = self._originals.get("cells.build_cell")
        if hasattr(build_cell, "cache_info"):
            self._last_misses = build_cell.cache_info().misses
        for name, module in list(sys.modules.items()):
            if name == "brauerblocks" or name.startswith("brauerblocks."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace:
                        setattr(module, attr, replace[id(value)])
        return self

    def _wrap_member(self, module, attr: str, full: str, observe) -> None:
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name, None)
        raw = cls.__dict__.get(member) if cls is not None else None
        if isinstance(raw, property):
            setattr(cls, member, property(self._span(full, raw.fget, observe)))
        elif raw is not None:
            setattr(cls, member, self._span(full, raw, observe))

    # --------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """A value for every metric of LAYER_METRICS."""
        per_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), agg in self.spans.items():
            per_name[name] = [a + b for a, b in zip(per_name[name], agg)]
        out: dict[str, float] = {}
        for span, _, _ in SPANS:
            out[f"{span}.calls"], out[f"{span}.total_s"], out[f"{span}.self_s"] = per_name[span]
        adds = out["linalg.Echelon.add.calls"]
        out["linalg.Echelon.add.grew_ratio"] = self.grew / adds if adds else 0.0
        out["oracle.generic.unknowns_max"] = self.unknowns_max
        for r in ROUTES:
            out[f"oracle.hom_dim.calls.{r}"] = self.route_calls[r]
            out[f"oracle.hom_dim.{r}.total_s"] = self.route_s[r]
        homs = sum(self.route_calls.values())
        out["oracle.hom_dim.nonzero_ratio"] = self.nonzero / homs if homs else 0.0
        out["cells.build_cell.hit_ratio"] = _hit_ratio(self._originals.get("cells.build_cell"))
        out["cells.dim_built"] = self.dim_built
        out["partitions.mn_cache.hit_ratio"] = _hit_ratio(
            getattr(sys.modules["brauerblocks.partitions"], "_mn", None))
        balanced = getattr(sys.modules["brauerblocks.blocks"], "_balanced_cached", None)
        out["blocks.balanced_cache.hit_ratio"] = _hit_ratio(balanced)
        out["blocks.balanced_cache.size"] = (balanced.cache_info().currsize
                                             if hasattr(balanced, "cache_info") else 0)
        calls = {**self.counted, **{name: c for name, (c, _, _) in per_name.items()}}
        for mod in COUNTED_MODULES:
            out[f"{mod}.calls"] = sum(v for k, v in calls.items() if k.startswith(f"{mod}."))
        return out

    def span_records(self) -> list[dict]:
        return [{"parent": parent, "name": name, "calls": c,
                 "total_s": total, "self_s": own}
                for (parent, name), (c, total, own) in sorted(self.spans.items())]
