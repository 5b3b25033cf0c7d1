"""Per-layer tracing for the benchmark's traced run.

A wrapper goes around each public function of an rslab layer at every
module that binds it: ``from .canon import canonical_graph`` makes a second
binding in ``rslab.oracle``, which patching ``rslab.canon`` alone would miss.
Methods are wrapped once, on their class.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time its child frames cover.  Calls made once per search
node or per labelled graph ("hot") are only aggregated, as a count plus
total and self time; every other call also leaves a span (name, start, end,
parent span) in memory, written out when the run ends.

Hooks whose target a later version of rslab has renamed or removed are
skipped with a warning, and the metrics they feed read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

HOT, SPAN, GENERATOR = "hot", "span", "generator"

# (module, function or Class.method, metric prefix, kind)
HOOKS = (
    ("rslab.canon", "canonical_graph", "canon.label", HOT),
    ("rslab.canon", "non_edge_orbit_representatives", "canon.orbits", SPAN),
    ("rslab.oracle", "enumerate_graphs_by_edges", "oracle.enumerate", GENERATOR),
    ("rslab.oracle", "prsat_number", "oracle.census", SPAN),
    ("rslab.oracle", "sat_number", "oracle.census", SPAN),
    ("rslab.oracle", "load_cached_record", "oracle.cache.load", SPAN),
    ("rslab.oracle", "store_record", "oracle.cache.store", SPAN),
    ("rslab.oracle", "CensusRecord.verify", "oracle.cache.verify", SPAN),
    ("rslab.engine", "is_properly_rainbow_saturated", "engine.prsat", SPAN),
    ("rslab.engine", "is_saturated", "engine.sat", SPAN),
    ("rslab.engine", "forces_rainbow", "engine.prsat_step", SPAN),
    ("rslab.engine", "search_rainbow_free_colouring", "engine.search", SPAN),
    ("rslab.engine", "find_rainbow_copy", "engine.rainbow_copy", SPAN),
    ("rslab.engine", "contains_copy", "engine.copy", HOT),
    ("rslab.engine", "_Matcher.exists_through", "engine.matcher", HOT),
    ("rslab.graphs", "Graph.__post_init__", "graphs.build", HOT),
    ("rslab.graphs", "to_graph6", "graphs.graph6", HOT),
    ("rslab.graphs", "from_graph6", "graphs.graph6", HOT),
    ("rslab.constructions", "caterpillar_construction", "constructions.build", SPAN),
    ("rslab.constructions", "caterpillar_bundle", "constructions.build", SPAN),
    ("rslab.constructions", "folded_cube", "constructions.build", SPAN),
    ("rslab.constructions", "FoldedCube.graph", "constructions.build", SPAN),
    ("rslab.constructions", "broom_gadget", "constructions.build", SPAN),
    ("rslab.constructions", "broom_saturated", "constructions.build", SPAN),
    ("rslab.constructions", "star_forest", "constructions.build", SPAN),
    ("rslab.constructions", "verify_bundle", "constructions.verify", SPAN),
)

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
METRICS = {
    "canon.label.calls": ("count", "lower"),
    "canon.label.self_s": ("s", "lower"),
    "canon.orbits.calls": ("count", "lower"),
    "canon.orbits.self_s": ("s", "lower"),
    "canon.cache.hit_ratio": ("ratio", "higher"),
    "canon.cache.misses": ("count", "lower"),
    "oracle.enumerate.self_s": ("s", "lower"),
    "oracle.classes": ("count", "lower"),
    "oracle.enumerate.labels_per_class": ("labels/class", "lower"),
    "oracle.census.self_s": ("s", "lower"),
    "oracle.cache.load_s": ("s", "lower"),
    "oracle.cache.store_s": ("s", "lower"),
    "oracle.cache.verify_s": ("s", "lower"),
    "oracle.cache.hit_ratio": ("ratio", "higher"),
    "engine.searches": ("count", "lower"),
    "engine.search.self_s": ("s", "lower"),
    "engine.nodes": ("count", "lower"),
    "engine.nodes_per_s": ("nodes/s", "higher"),
    "engine.matcher.calls": ("count", "lower"),
    "engine.matcher.calls_per_node": ("calls/node", "lower"),
    "engine.matcher.us_per_call": ("us", "lower"),
    "engine.matcher.hit_ratio": ("ratio", "higher"),
    "engine.copy.calls": ("count", "lower"),
    "engine.copy.self_s": ("s", "lower"),
    "engine.prsat_step.calls": ("count", "lower"),
    "engine.prsat_step.distinct": ("count", "lower"),
    "graphs.build.calls": ("count", "lower"),
    "graphs.build.self_s": ("s", "lower"),
    "graphs.graph6.calls": ("count", "lower"),
    "graphs.graph6.self_s": ("s", "lower"),
    "constructions.build_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    """Frames, aggregates and spans of one traced phase of a run."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stack = [[None, 0.0, -1]]  # frame: name, child seconds, span id
        # name -> [calls, total_s, self_s, calls that returned a true value]
        self.agg: dict[str, list] = {}
        self.pairs: Counter = Counter()  # (parent name, child name) -> calls
        self.spans: list = []  # id -> (name, start_s, end_s, parent id)
        self.counts: Counter = Counter()
        self.step_args: list = []  # (graph, pattern) of each forces_rainbow call
        self.missing: list[str] = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, kind, on_result):
        stack, spans, pairs, origin = self.stack, self.spans, self.pairs, self.origin
        perf = time.perf_counter
        a = self.agg.setdefault(name, [0, 0.0, 0.0, 0])

        if kind == HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                parent = stack[-1]
                frame = [name, 0.0, parent[2]]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    parent[1] += dur
                    a[0] += 1
                    a[1] += dur
                    a[2] += dur - frame[1]
                    pairs[(parent[0], name)] += 1
                if result:
                    a[3] += 1
                return result
            return hot

        def timed(call):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                return call()
            finally:
                t1 = perf()
                stack.pop()
                parent[1] += t1 - t0
                a[0] += 1
                a[1] += t1 - t0
                a[2] += t1 - t0 - frame[1]
                pairs[(parent[0], name)] += 1
                spans[sid] = (name, t0 - origin, t1 - origin, parent[2])

        if kind == GENERATOR:
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                done = object()
                while True:
                    item = timed(lambda: next(gen, done))
                    if item is done:
                        return
                    if on_result is not None:
                        on_result(args, item)
                    yield item
            return generator

        @functools.wraps(fn)
        def span(*args, **kwargs):
            result = timed(lambda: fn(*args, **kwargs))
            if on_result is not None:
                on_result(args, result)
            return result
        return span

    def _on_result(self, name):
        counts = self.counts
        if name == "engine.search":
            return lambda args, r: counts.update({"engine.nodes": r.nodes_explored})
        if name == "oracle.cache.load":
            def load(args, rec):
                if rec is not None:
                    counts["oracle.cache.hits"] += 1
            return load
        if name == "oracle.enumerate":
            return lambda args, level: counts.update({"oracle.classes": len(level)})
        if name == "engine.prsat_step":
            return lambda args, r: self.step_args.append(args[:2])
        return None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, target, name, kind in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{target}")
                continue
            wrapper = self._wrap(name, original, kind, self._on_result(name))
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for mname, mod in list(sys.modules.items()):
                if (mname == "rslab" or mname.startswith("rslab.")) and \
                        getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)
        if self.missing:
            print(f"perfbench: not traced, their metrics read 0: {', '.join(self.missing)}",
                  file=sys.stderr)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def total(self, name: str, i: int) -> float:
        """Aggregate field i: 0 calls, 1 total seconds, 2 self seconds,
        3 calls that returned a true value (counted for hot calls only)."""
        return self.agg.get(name, (0, 0.0, 0.0, 0))[i]

    def outermost_s(self, name: str) -> float:
        """Seconds covered by spans of `name` not nested in another of `name`."""
        spans = self.spans
        return sum(end - start for n, start, end, parent in spans
                   if n == name and (parent < 0 or spans[parent][0] != name))

    def dump(self) -> dict:
        return {
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "true": v[3]}
                           for k, v in sorted(self.agg.items())},
            "calls_by_parent": sorted([p or "", c, k] for (p, c), k in self.pairs.items()),
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
            "missing_hooks": self.missing,
        }


def layer_metrics(tr: Tracer, setup: Tracer, canon_cache) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s and
    engine.prsat_step.distinct, which the caller adds after the run."""
    t, c = tr.total, tr.counts
    nodes = c["engine.nodes"]
    matcher_calls = t("engine.matcher", 0)
    classes = c["oracle.classes"]
    loads = t("oracle.cache.load", 0)
    hits, misses = (canon_cache.hits, canon_cache.misses) if canon_cache else (0, 0)
    return {
        "canon.label.calls": t("canon.label", 0),
        "canon.label.self_s": t("canon.label", 2),
        "canon.orbits.calls": t("canon.orbits", 0),
        "canon.orbits.self_s": t("canon.orbits", 2),
        "canon.cache.hit_ratio": _ratio(hits, hits + misses),
        "canon.cache.misses": misses,
        "oracle.enumerate.self_s": t("oracle.enumerate", 2),
        "oracle.classes": classes,
        "oracle.enumerate.labels_per_class":
            _ratio(tr.pairs[("oracle.enumerate", "canon.label")], classes),
        "oracle.census.self_s": t("oracle.census", 2),
        "oracle.cache.load_s": t("oracle.cache.load", 1),
        "oracle.cache.store_s": t("oracle.cache.store", 1),
        "oracle.cache.verify_s": t("oracle.cache.verify", 1),
        "oracle.cache.hit_ratio": _ratio(c["oracle.cache.hits"], loads),
        "engine.searches": t("engine.search", 0),
        "engine.search.self_s": t("engine.search", 2),
        "engine.nodes": nodes,
        "engine.nodes_per_s": _ratio(nodes, t("engine.search", 1)),
        "engine.matcher.calls": matcher_calls,
        "engine.matcher.calls_per_node": _ratio(matcher_calls, nodes),
        "engine.matcher.us_per_call": _ratio(t("engine.matcher", 1) * 1e6, matcher_calls),
        "engine.matcher.hit_ratio": _ratio(t("engine.matcher", 3), matcher_calls),
        "engine.copy.calls": t("engine.copy", 0),
        "engine.copy.self_s": t("engine.copy", 2),
        "engine.prsat_step.calls": t("engine.prsat_step", 0),
        "graphs.build.calls": t("graphs.build", 0),
        "graphs.build.self_s": t("graphs.build", 2),
        "graphs.graph6.calls": t("graphs.graph6", 0),
        "graphs.graph6.self_s": t("graphs.graph6", 2),
        "constructions.build_s": setup.outermost_s("constructions.build"),
    }


def write_trace(path, header: dict, setup: Tracer, unit: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**header, "setup": setup.dump(), "unit": unit.dump()}, f)
