"""Per-layer spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side only: each public name that one
szlenk module calls in another is replaced, in the caller's namespace, by a
wrapper that records (name, start, end, parent, op id).  The package source is
not edited, and ``Tracer.uninstall`` puts every original back.  For recursive
names (``count_apexes``, ``diam_q``) only the outermost call is a span.

A span's self time is its duration minus the durations of its direct
children; ``layer_metrics`` turns self times and counters into the per-layer
metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter

SUITES = (
    "unionlemma1", "unionlemma2", "techlem1", "techlem2", "techlema",
    "tvl", "postdoc2", "lecondsast", "punibound_finite",
)


def _cover_tuples(c, args):
    return {"products.cover_tuples": len(c.tuples)}


def _cluster(cmap, args):
    p = len(cmap)
    return {
        "pointmodel.cluster_pairs": p * p,
        "pointmodel.cluster_members": sum(len(v) for v in cmap.values()),
    }


def _terms(pu, args):
    return {"products.terms": len(pu.terms)}


# (caller module, attribute, span name, counter of the result or None)
PATCHES = [
    ("cli", "loads", "documents.parse", lambda r, a: {"documents.bytes_in": len(a[0])}),
    ("cli", "fanset_from_doc", "documents.parse", None),
    ("cli", "space_from_doc", "documents.parse", None),
    ("cli", "dumps_canonical", "documents.serialize", lambda r, a: {"documents.bytes_out": len(r)}),
    ("cli", "trace_to_doc", "documents.serialize", None),
    ("cli", "fan_node_to_doc", "documents.serialize", None),
    ("cli", "space_index_to_doc", "documents.serialize", None),
    ("cli", "direct_sum_index", "calculus", None),
    ("cli", "sigma", "calculus", None),
    ("cli", "frount_M", "calculus", None),
    ("checks", "sigma_qpow", "calculus", None),
    ("checks", "frount_M_qpow", "calculus", None),
    ("products", "frount_M_qpow", "calculus", None),
    ("cli", "derive_steps", "fansets.derive_steps", None),
    ("fansets", "derive", "fansets.derive", None),
    ("checks", "derive", "fansets.derive", None),
    ("products", "derive", "fansets.derive", None),
    ("fansets", "count_apexes", "fansets.count_apexes", lambda r, a: {"fansets.apexes": r}),
    ("fansets", "diam_q", "fansets.diam_q", None),
    ("checks", "diam_q", "fansets.diam_q", None),
    ("products", "diam_q", "fansets.diam_q", None),
    ("pointmodel", "materialize", "pointmodel.materialize", lambda r, a: {"pointmodel.points": len(r)}),
    ("pointmodel", "cluster_map", "pointmodel.cluster_map", _cluster),
    ("checks", "cluster_map", "pointmodel.cluster_map", _cluster),
    ("pointmodel", "derive_set", "pointmodel.derive", None),
    ("pointmodel", "derive_product_set", "pointmodel.derive", None),
    ("checks", "derive_set", "pointmodel.derive", None),
    ("products", "derive_product_set", "products.certify", None),
    ("cli", "derive_product_step", "products.staircase", _terms),
    ("cli", "product_union_derive", "products.staircase", _terms),
    ("checks", "derive_product_step", "products.staircase", _terms),
    ("cli", "bq_cover", "products.bq_cover", _cover_tuples),
    ("checks", "bq_cover", "products.bq_cover", _cover_tuples),
    ("checks", "bq_member", "products.bq_member", None),
    ("checks", "a_eps_grid", "products.a_eps_grid", lambda r, a: {"products.grid_size": len(r)}),
    ("cli", "run_suite", "checks.run_suite", None),
    ("cli", "pow_bounds", "exactmath.pow_bounds", None),
    ("checks", "pow_bounds", "exactmath.pow_bounds", None),
    ("products", "pow_bounds", "exactmath.pow_bounds", None),
    ("calculus", "pow_bounds", "exactmath.pow_bounds", None),
] + [
    ("checks", name, "generators", None)
    for name in ("case_rng", "rand_fan", "rand_fan_set", "rand_factors", "rand_frac", "rand_q")
]

# Spans of recursive functions: (module, global the recursion calls through).
# While the outermost call runs, that global is the unwrapped function, so
# only the outermost call is a span and inner calls cost nothing extra.
RECURSIVE = {
    "fansets.count_apexes": ("fansets", "count_apexes"),
    "fansets.diam_q": ("fansets", "diam_q"),
}

# Ordinal functions called through a module reference (``ordinal.parse``).
ORDINAL_VIA_MODULE = {
    "cli": ("parse", "to_json", "to_text", "from_json"),
    "documents": ("to_json", "from_json", "to_text"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None, recursive=None):
        """``fn`` recording one span per call; with ``recursive`` = (module,
        attribute, original), that global is unwrapped during the call."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            if recursive is not None:
                mod, attr, original = recursive
                saved = getattr(mod, attr)
                setattr(mod, attr, original)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
                if recursive is not None:
                    setattr(mod, attr, saved)
            counts[name + ".calls"] += 1
            if counter is not None:
                for k, v in counter(result, args).items():
                    counts[k] += v
            return result

        return traced

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self, szlenk) -> None:
        """Wrap the cross-module calls of an imported ``szlenk`` package."""
        mods = {n: getattr(szlenk, n) for n in
                ("cli", "documents", "calculus", "checks", "fansets", "pointmodel", "products", "ordinal")}
        # taken before any patch, so that no wrapper is put back as "original"
        originals = {name: getattr(mods[home], attr) for name, (home, attr) in RECURSIVE.items()}
        for mod, attr, name, counter in PATCHES:
            recursive = None
            if name in RECURSIVE:
                home, fn_name = RECURSIVE[name]
                recursive = (mods[home], fn_name, originals[name])
            self._set(mods[mod], attr, self.wrap(name, getattr(mods[mod], attr), counter, recursive))
        suites = mods["checks"].SUITES
        for suite in SUITES:
            self._set(suites, suite, self.wrap(f"checks.{suite}", suites[suite]))
        ordmod = mods["ordinal"]
        for mod, names in ORDINAL_VIA_MODULE.items():
            proxy = types.ModuleType(ordmod.__name__)
            proxy.__dict__.update(ordmod.__dict__)
            for n in names:
                setattr(proxy, n, self.wrap("ordinal", getattr(ordmod, n)))
            self._set(mods[mod], "ordinal", proxy)
        calc = mods["calculus"]
        for n, v in list(vars(calc).items()):
            if isinstance(v, types.FunctionType) and v.__module__ == ordmod.__name__:
                self._set(calc, n, self.wrap("ordinal", v))

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def durations(self, scale) -> list[float]:
        """Each span's duration, times scale(midpoint)."""
        return [(end - start) * scale((start + end) / 2) for _, start, end, _, _ in self.spans]

    def self_times(self, scale) -> dict[str, float]:
        dur = self.durations(scale)
        child = [0.0] * len(dur)
        for d, (_, _, _, parent, _) in zip(dur, self.spans):
            if parent >= 0:
                child[parent] += d
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _, _) in enumerate(self.spans):
            out[name] += dur[i] - child[i]
        return out

    def total_times(self, scale) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for d, (name, _, _, _, _) in zip(self.durations(scale), self.spans):
            out[name] += d
        return out


LAYER_METRICS = [
    # (metric, source): source is ("self", span names...) | ("total", span)
    # | ("count", counter) | ("ratio", numerator counter, denominator counter)
    ("cli.self_s", ("self", "cli.main")),
    ("documents.parse_s", ("self", "documents.parse")),
    ("documents.serialize_s", ("self", "documents.serialize")),
    ("documents.bytes_in", ("count", "documents.bytes_in")),
    ("documents.bytes_out", ("count", "documents.bytes_out")),
    ("ordinal.s", ("self", "ordinal")),
    ("calculus.s", ("self", "calculus")),
    ("fansets.derive_s", ("self", "fansets.derive", "fansets.derive_steps")),
    ("fansets.count_apexes_s", ("self", "fansets.count_apexes")),
    ("fansets.diam_q_s", ("self", "fansets.diam_q")),
    ("fansets.derive_calls", ("count", "fansets.derive.calls")),
    ("fansets.apexes", ("count", "fansets.apexes")),
    ("pointmodel.materialize_s", ("self", "pointmodel.materialize")),
    ("pointmodel.cluster_map_s", ("self", "pointmodel.cluster_map")),
    ("pointmodel.derive_s", ("self", "pointmodel.derive")),
    ("pointmodel.points", ("count", "pointmodel.points")),
    ("pointmodel.cluster_pairs", ("count", "pointmodel.cluster_pairs")),
    ("pointmodel.cluster_useful_ratio", ("ratio", "pointmodel.cluster_members", "pointmodel.cluster_pairs")),
    ("products.staircase_s", ("self", "products.staircase")),
    ("products.certify_s", ("self", "products.certify")),
    ("products.terms", ("count", "products.terms")),
    ("products.bq_cover_s", ("self", "products.bq_cover")),
    ("products.cover_tuples", ("count", "products.cover_tuples")),
    ("products.bq_member_s", ("self", "products.bq_member")),
    ("products.bq_member_calls", ("count", "products.bq_member.calls")),
    ("products.a_eps_grid_s", ("self", "products.a_eps_grid")),
    ("products.grid_size", ("count", "products.grid_size")),
    ("checks.self_s", ("self", "checks.run_suite", *(f"checks.{s}" for s in SUITES))),
    *((f"checks.{s}_s", ("total", f"checks.{s}")) for s in SUITES),
    ("generators.s", ("self", "generators")),
    ("exactmath.pow_bounds_s", ("self", "exactmath.pow_bounds")),
    ("exactmath.pow_bounds_calls", ("count", "exactmath.pow_bounds.calls")),
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s/pass"
    if metric.endswith("_ratio"):
        return "1"
    if metric.startswith("documents.bytes"):
        return "B/pass"
    return "count/pass"


def layer_metrics(tracer: Tracer, passes: int, scale) -> dict[str, float]:
    """Per-layer totals over the traced passes, divided by the pass count;
    times are multiplied by scale(t), the clock's nominal rate at time t."""
    selfs, totals, counts = tracer.self_times(scale), tracer.total_times(scale), tracer.counts
    out: dict[str, float] = {}
    for metric, (how, *names) in LAYER_METRICS:
        if how == "self":
            value = sum(selfs.get(n, 0.0) for n in names) / passes
        elif how == "total":
            value = totals.get(names[0], 0.0) / passes
        elif how == "count":
            value = counts.get(names[0], 0) / passes
        else:
            den = counts.get(names[1], 0)
            value = counts.get(names[0], 0) / den if den else 0.0
        out[metric] = value
    return out
