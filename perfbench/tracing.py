"""Layer spans recorded from outside the package.

``traced(tracer)`` wraps heightlab's layer-boundary functions in place and
puts the originals back on exit; no file of the package changes.  Each call
of a wrapped function is a span (name, start, end, parent).  Spans of the
coarse layers (trial, exponent estimate, record sweep, prefilter, fast_best
and its parts) are kept one by one.  Hot leaf layers, called up to millions
of times, are aggregated in memory per (enclosing kept span, immediate parent
name, name) as a call count and a total duration.

The spans are written out as JSON when the run ends; ``self_times`` derives a
layer's self time from that file as its spans' durations minus the durations
of their direct children, and ``layer_metrics`` turns it into the per-layer
metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "numerics.enclosure.calls": "count",
    "numerics.enclosure.raw_calls": "count",
    "numerics.enclosure.max_bits": "bits",
    "numerics.enclosure.self_s": "s",
    "numerics.ln_enclosure.calls": "count",
    "numerics.ln_enclosure.self_s": "s",
    "cf_engine.advance.calls": "count",
    "cf_engine.advance.self_s": "s",
    "approx_search.best_table.entries": "count",
    "approx_search.best_table.extend_to.self_s": "s",
    "approx_search.cmp_atoms.calls": "count",
    "approx_search.cmp_atoms.same_target_calls": "count",
    "approx_search.cmp_atoms.self_s": "s",
    "approx_search.atom_interval.calls": "count",
    "approx_search.atom_interval.self_s": "s",
    "exponents.omega_estimate.self_s": "s",
    "experiments.trial.self_s": "s",
    "approx_search.records.tuples_enumerated": "count",
    "approx_search.records.chain_len": "count",
    "approx_search.records.exact_evals": "count",
    "approx_search.records.useful_ratio": "ratio",
    "approx_search.records.self_s": "s",
    "approx_search.tuple_best.calls": "count",
    "approx_search.tuple_best.self_s": "s",
    "heights.height_value.calls": "count",
    "heights.height_value.self_s": "s",
    "approx_search.filter_bounds.rows": "count",
    "approx_search.filter_bounds.self_s": "s",
    "approx_search.filter_bounds.records.self_s": "s",
    "approx_search.filter_bounds.fast_best.self_s": "s",
    "approx_search.fast_best.self_s": "s",
    "approx_search.fast_ties.self_s": "s",
    "approx_search.lcm_opt.self_s": "s",
    "trace.overhead_share": "ratio",
}

_ROOT = ("", 0)  # (name, kept span id) of the frame outside every span


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Dict] = []
        self.hot: Dict[tuple, List] = {}
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[tuple] = []
        self._ids = 0

    def span(self, fn: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording each call as a kept span.

        ``note(args, result)`` may return attributes stored on the span.
        """
        stack, clock, spans = self._stack, self.clock, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else _ROOT
            self._ids += 1
            record = {"id": self._ids, "name": name, "parent": parent[1]}
            stack.append((name, self._ids))
            record["start"] = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    record.update(note(args, result))
                return result
            finally:
                record["end"] = clock()
                stack.pop()
                spans.append(record)

        return wrapper

    def hot_span(self, fn: Callable, name: str) -> Callable:
        """``fn`` with its calls aggregated under the enclosing kept span."""
        stack, clock, hot = self._stack, self.clock, self.hot

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else _ROOT
            stack.append((name, parent[1]))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (parent[1], parent[0], name)
                row = hot.get(key)
                if row is None:
                    hot[key] = [1, elapsed]
                else:
                    row[0] += 1
                    row[1] += elapsed

        return wrapper

    def dump(self) -> Dict:
        """The trace as JSON-ready data."""
        return {
            "spans": self.spans,
            "hot": [[a, p, n, c, t] for (a, p, n), (c, t) in self.hot.items()],
            "counters": dict(self.counters),
        }


def self_times(trace: Dict) -> Dict[str, float]:
    """Self seconds per span name: durations minus direct children's.

    A hot row (anchor, parent name, name, count, total) is a direct child of
    its anchor span when its parent name is the anchor's name, and otherwise
    a direct child of the hot rows called ``parent name`` under that anchor.
    """
    names = {s["id"]: s["name"] for s in trace["spans"]}
    out: Dict[str, float] = defaultdict(float)
    children: Dict[int, float] = defaultdict(float)
    for s in trace["spans"]:
        out[s["name"]] += s["end"] - s["start"]
        children[s["parent"]] += s["end"] - s["start"]
    for anchor, parent, name, _count, total in trace["hot"]:
        out[name] += total
        if parent == names.get(anchor, ""):
            children[anchor] += total
        else:
            out[parent] -= total
    for s in trace["spans"]:
        out[s["name"]] -= children[s["id"]]
    return dict(out)


def layer_metrics(trace: Dict, overhead_share: float) -> Dict[str, float]:
    """Every per-layer metric from a written trace (0 where a layer is idle)."""
    selfs = self_times(trace)
    calls: Dict[str, int] = defaultdict(int)
    for _anchor, _parent, name, count, _total in trace["hot"]:
        calls[name] += count
    spans = {s["id"]: s for s in trace["spans"]}
    rows = 0
    split: Dict[str, float] = defaultdict(float)
    tuples: Dict[int, int] = defaultdict(int)
    for s in trace["spans"]:
        if s["name"] == "approx_search.filter_bounds":
            dur = s["end"] - s["start"]
            rows += s["rows"]
            owner = _ancestor(spans, s, ("approx_search.records", "approx_search.fast_best"))
            if owner is not None:
                split[owner["name"]] += dur
                if owner["name"] == "approx_search.records":
                    # every coordinate's prefilter call sees all tuples
                    tuples[owner["id"]] = max(tuples[owner["id"]], s["rows"])
    record_spans = [s for s in trace["spans"] if s["name"] == "approx_search.records"]
    record_ids = {s["id"] for s in record_spans}
    exact_evals = sum(
        count for anchor, _p, name, count, _t in trace["hot"]
        if name == "approx_search.tuple_best" and anchor in record_ids
    )
    chain_len = sum(s["chain_len"] for s in record_spans)
    n_tuples = sum(tuples.values())
    counters = trace["counters"]
    m = {
        "numerics.enclosure.raw_calls": counters.get("raw_calls", 0),
        "numerics.enclosure.max_bits": counters.get("max_bits", 0),
        "approx_search.best_table.entries": counters.get("table_entries", 0),
        "approx_search.cmp_atoms.same_target_calls": counters.get("same_target_calls", 0),
        "approx_search.records.tuples_enumerated": n_tuples,
        "approx_search.records.chain_len": chain_len,
        "approx_search.records.exact_evals": exact_evals,
        # share of enumerated tuples that reach the exact phase (seed 42005:
        # 346 / 2 511 053, for a chain of 92 records)
        "approx_search.records.useful_ratio": exact_evals / n_tuples if n_tuples else 0.0,
        "approx_search.filter_bounds.rows": rows,
        "approx_search.filter_bounds.records.self_s": split["approx_search.records"],
        "approx_search.filter_bounds.fast_best.self_s": split["approx_search.fast_best"],
        "trace.overhead_share": overhead_share,
    }
    for metric in LAYER_METRICS:
        if metric in m:
            continue
        base, _, field = metric.rpartition(".")
        if field == "calls":
            m[metric] = calls[base]
        elif field == "self_s":
            m[metric] = selfs.get(base, 0.0)
    return {k: m[k] for k in LAYER_METRICS}


def _ancestor(spans: Dict[int, Dict], span: Dict, names) -> Optional[Dict]:
    parent = spans.get(span["parent"])
    while parent is not None and parent["name"] not in names:
        parent = spans.get(parent["parent"])
    return parent


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap heightlab's layer boundaries with ``tracer`` for the block."""
    import heightlab
    from heightlab import approx_search as A
    from heightlab import cf_engine as C
    from heightlab import experiments as X
    from heightlab import exponents as E
    from heightlab import heights as H
    from heightlab import numerics as N

    counters = tracer.counters
    saved = []

    def patch(owners, attr, wrapper):
        for owner in owners:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    try:
        enclosure = N.RealTarget.enclosure

        def counted_enclosure(self, bits):
            if bits > counters["max_bits"]:
                counters["max_bits"] = bits
            return enclosure(self, bits)

        patch([N.RealTarget], "enclosure", tracer.hot_span(counted_enclosure, "numerics.enclosure"))
        for cls in N.RealTarget.__subclasses__():
            if "_raw_enclosure" in cls.__dict__:
                patch([cls], "_raw_enclosure", _counting(cls.__dict__["_raw_enclosure"], counters, "raw_calls"))
        patch([N, H, E], "ln_enclosure", tracer.hot_span(N.ln_enclosure, "numerics.ln_enclosure"))
        patch([C.ConvergentCursor], "advance", tracer.hot_span(C.ConvergentCursor.advance, "cf_engine.advance"))

        extend_to = A._BestTable.extend_to

        def counted_extend_to(self, den_cap):
            before = len(self.entries)
            try:
                return extend_to(self, den_cap)
            finally:
                counters["table_entries"] += len(self.entries) - before

        patch([A._BestTable], "extend_to", tracer.hot_span(counted_extend_to, "approx_search.best_table.extend_to"))

        cmp_atoms = A._cmp_atoms

        def counted_cmp_atoms(u, v):
            if u.exact is None and v.exact is None and u.target.key == v.target.key:
                counters["same_target_calls"] += 1
            return cmp_atoms(u, v)

        patch([A], "_cmp_atoms", tracer.hot_span(counted_cmp_atoms, "approx_search.cmp_atoms"))
        patch([A._Atom], "interval", tracer.hot_span(A._Atom.interval, "approx_search.atom_interval"))
        patch([A], "_tuple_best", tracer.hot_span(A._tuple_best, "approx_search.tuple_best"))
        patch([H.HeightValue], "__post_init__",
              tracer.hot_span(H.HeightValue.__post_init__, "heights.height_value"))

        patch([E, X], "omega_estimate", tracer.span(E.omega_estimate, "exponents.omega_estimate"))
        patch([X], "_omega_trial", tracer.span(X._omega_trial, "experiments.trial"))
        patch([A, E], "records", tracer.span(
            A.records, "approx_search.records", lambda args, out: {"chain_len": len(out)}))
        patch([A], "_filter_bounds", tracer.span(
            A._filter_bounds, "approx_search.filter_bounds", lambda args, out: {"rows": len(args[0])}))
        patch([A, heightlab], "fast_best", tracer.span(A.fast_best, "approx_search.fast_best"))
        patch([A], "_fast_ties", tracer.span(A._fast_ties, "approx_search.fast_ties"))
        patch([A], "_lcm_opt", tracer.span(A._lcm_opt, "approx_search.lcm_opt"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _counting(fn: Callable, counters: Dict[str, int], key: str) -> Callable:
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper
