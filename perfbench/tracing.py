"""Span recording around the package's public callables, from outside it.

:func:`install` imports ``moonshine.cli`` and replaces, at every import site
inside the package, each callable listed in a layer module's ``__all__``
with a wrapper that records a span.  It also wraps the public methods and
the arithmetic operators (aliases such as ``__rmul__`` included) and the
constructors of ``UniSeries`` and ``BiSeries``.  Classes listed in
``__all__`` are left alone: replacing them would break ``isinstance``, and
their construction is counted in the caller's span.  A span's layer is the
module that defines the callable, whichever module calls it.

A span is ``[name, layer, start, end, parent]`` (parent is an index into
the span list, -1 for a root).  Spans stay in memory until
:meth:`Recorder.dump` writes them out with the command id when the command
ends.  :func:`summarize` turns one dump into per-layer figures; self time
is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "moonshine"
LAYERS = ("series", "modular", "classes", "recursion", "lattice", "cli")
SERIES_CLASSES = ("UniSeries", "BiSeries")
OPERATORS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__eq__",
}
# Time spent inspecting a result after its span closed; a child of the
# caller's span, so it is kept out of every layer's self time.
OBSERVE = "trace"


def _coeff_bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Recorder:
    """In-memory span list plus counters read off return values."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.relation_rhs: dict[tuple[int, int], int] = {}
        self.cache_info = None

    def wrap(self, fn, name: str, layer: str, observe=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
                spans.append([OBSERVE, OBSERVE, span[3], clock(), parent])
            return result

        return wrapper

    # -- observers: counters taken from return values ------------------

    def _series_result(self, result) -> None:
        terms = getattr(result, "_c", None)
        if type(result).__name__ not in SERIES_CLASSES or terms is None:
            return
        self.counters["series.terms_out"] += len(terms)
        if terms:
            bits = max(map(_coeff_bits, terms.values()))
            if bits > self.counters["series.max_coeff_bits"]:
                self.counters["series.max_coeff_bits"] = bits

    # The observers read attributes with defaults, so that a refactored
    # result type loses a counter instead of breaking the traced command.
    def _solve_result(self, result) -> None:
        self.counters["recursion.solve.passes"] += getattr(result, "passes", 0)
        self.counters["recursion.solve.derived"] += len(getattr(result, "provenance", ()))

    def _audit_result(self, result) -> None:
        self.counters["recursion.audit.symbols"] += len(getattr(result, "introduced", ()))

    def _relation_result(self, result) -> None:
        target = getattr(result, "target", None)
        self.relation_rhs[target] = len(getattr(result, "rhs", ()))

    def dump(self, path: str, command_id: str) -> None:
        counters = dict(self.counters)
        counters["recursion.relation_rhs_terms"] = sum(self.relation_rhs.values())
        if self.cache_info is not None:
            info = self.cache_info()
            counters["recursion.coefficient_relation.hits"] = info.hits
            counters["recursion.coefficient_relation.misses"] = info.misses
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"command": command_id, "spans": self.spans, "counters": counters}, handle)


def install(recorder: Recorder):
    """Wrap the package's public callables; returns the ``moonshine.cli`` module."""
    __import__(f"{PACKAGE}.cli")
    observers = {
        "recursion.solve_from_seeds": recorder._solve_result,
        "recursion.determinacy_audit": recorder._audit_result,
        "recursion.coefficient_relation": recorder._relation_result,
    }
    replacements = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr in module.__all__:
            obj = getattr(module, attr)
            if isinstance(obj, type) or not callable(obj):
                continue
            name = f"{layer}.{attr}"
            replacements[id(obj)] = (obj, recorder.wrap(obj, name, layer, observers.get(name)))
            if name == "recursion.coefficient_relation":
                recorder.cache_info = getattr(obj, "cache_info", None)
    for module_name, module in list(sys.modules.items()):
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    series = sys.modules[f"{PACKAGE}.series"]
    for class_name in SERIES_CLASSES:
        cls = getattr(series, class_name)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"series.{class_name}.{attr}"
            if isinstance(value, classmethod):
                wrapped = recorder.wrap(value.__func__, name, "series", recorder._series_result)
                setattr(cls, attr, classmethod(wrapped))
            elif callable(value):
                observe = None if attr == "__init__" else recorder._series_result
                setattr(cls, attr, recorder.wrap(value, name, "series", observe))
    return sys.modules[f"{PACKAGE}.cli"]


# ---------------------------------------------------------------------------
# turning spans into figures


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[4] >= 0:
            children[span[4]].append((span[2], span[3]))
    out = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, not counting a span inside one of the same name."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span[4]
        nested = False
        while parent >= 0:
            if spans[parent][0] == span[0]:
                nested = True
                break
            parent = spans[parent][4]
        if not nested:
            totals[span[0]] += span[3] - span[2]
    return totals


# Per-layer metric -> span names whose self time or call count it sums.
SELF_GROUPS = {
    "series.uni_mul": ("series.UniSeries.__mul__", "series.UniSeries.__rmul__"),
    "series.uni_pow": ("series.UniSeries.__pow__",),
    "series.uni_inverse": ("series.UniSeries.inverse",),
    "series.bi_mul": ("series.BiSeries.__mul__", "series.BiSeries.__rmul__"),
    "series.bi_log1m": ("series.BiSeries.log1m",),
    "series.bi_exp": ("series.BiSeries.exp",),
    "series.bi_substitute_power": ("series.BiSeries.substitute_power",),
}
CALL_GROUPS = {
    "series.uni_mul.calls": SELF_GROUPS["series.uni_mul"],
    "series.bi_mul.calls": SELF_GROUPS["series.bi_mul"],
    "modular.j_series.calls": ("modular.j_series",),
}
INCLUSIVE = (
    "modular.j_series",
    "modular.expand_recipe",
    "classes.load_family",
    "classes.euler_poincare_report",
    "recursion.solve_from_seeds",
    "recursion.coefficient_relation",
    "recursion.determinacy_audit",
    "lattice.denominator_identity_report",
    "lattice.witt_dims",
    "lattice.dimension_product",
)
COUNTERS = (
    "series.terms_out",
    "series.max_coeff_bits",
    "recursion.solve.passes",
    "recursion.solve.derived",
    "recursion.coefficient_relation.misses",
    "recursion.relation_rhs_terms",
    "recursion.audit.symbols",
)


def summarize(dump: dict) -> dict[str, float]:
    """Per-layer figures for one traced command (times in seconds)."""
    spans = dump["spans"]
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for span, own in zip(spans, selfs):
        name, layer = span[0], span[1]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += own
        out[f"_self:{name}"] += own
        out[f"_calls:{name}"] += 1
    for metric, names in SELF_GROUPS.items():
        out[f"{metric}.self_s"] = sum(out.pop(f"_self:{n}", 0.0) for n in names)
    for metric, names in CALL_GROUPS.items():
        out[metric] = sum(out.get(f"_calls:{n}", 0) for n in names)
    inclusive = inclusive_times(spans)
    for name in INCLUSIVE:
        out[f"{name}.s"] = inclusive.get(name, 0.0)
    counters = dump["counters"]
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    out["recursion.coefficient_relation.hits"] = counters.get(
        "recursion.coefficient_relation.hits", 0
    )
    return {k: v for k, v in out.items() if not k.startswith("_")}
