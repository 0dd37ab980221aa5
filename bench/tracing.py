"""Per-layer spans recorded from outside the package.

A :class:`Tracer` replaces the module attributes that callers look up (for
example ``sylvester.apery_general`` or ``polys.eval_sparse``) with wrappers
that open and close spans, and wraps ``RingElement.__mul__`` / ``inverse``
with counters.  No file of the package is changed, and :meth:`Tracer.remove`
puts every original back.

Spans carry a name, start, end, parent id and the id of the query that
caused them; they stay in memory until the run writes them out.  With
``memory=True`` each span also records its ``tracemalloc`` peak above the
allocation level it started at.
"""
from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Iterable

__all__ = ["UNITS", "Span", "Tracer", "layer_metrics", "self_times"]

_LAYERS = ("apery", "sylvester", "arithprog", "polys", "oracle", "cli")

# name -> (unit, which direction is better), in the order they are reported
UNITS = {
    "apery.build_s": ("s/query", "lower"),
    "apery.entries": ("count/query", "lower"),
    "apery.builds_per_query": ("count/query", "lower"),
    "sylvester.moment_s": ("s/query", "lower"),
    "sylvester.derivative_route_s": ("s/query", "lower"),
    "sylvester.recombine_s": ("s/query", "lower"),
    "sylvester.unity_a_s": ("s/query", "lower"),
    "sylvester.moment_reuse": ("ratio", "higher"),
    "sylvester.power_sum_s": ("s/query", "lower"),
    "polys.eval_sparse_s": ("s/query", "lower"),
    "polys.derivative_s": ("s/query", "lower"),
    "polys.dense_slots": ("count/query", "lower"),
    "polys.density": ("ratio", "higher"),
    "numberfield.mul_count": ("count/query", "lower"),
    "numberfield.mul_s": ("s/query", "lower"),
    "numberfield.inverse_count": ("count/query", "lower"),
    "numberfield.max_coeff_bits": ("bits", "lower"),
    "arithprog.power_sum_s": ("s/query", "lower"),
    "arithprog.weighted_sum_s.general": ("s/query", "lower"),
    "arithprog.weighted_sum_s.unity-d": ("s/query", "lower"),
    "arithprog.weighted_sum_s.unity-a": ("s/query", "lower"),
    "arithprog.alloc_peak_mb": ("MB", "lower"),
    "oracle.sieve_s": ("s/query", "lower"),
    "oracle.sum_s": ("s/query", "lower"),
    "oracle.sieve_use": ("ratio", "higher"),
    "oracle.alloc_peak_mb": ("MB", "lower"),
    "cli.self_s": ("s/query", "lower"),
    "trace.wall_s": ("s/query", "lower"),
    **{f"share.{layer}": ("ratio", "lower") for layer in _LAYERS},
    "exact.cache_misses": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Span:
    __slots__ = ("id", "parent", "query", "name", "start", "end", "base", "seen", "peak", "tag")

    def __init__(self, id: int, parent: int | None, query: int, name: str, start: float = 0.0, end: float = 0.0):
        self.id = id
        self.parent = parent
        self.query = query
        self.name = name
        self.start = start
        self.end = end
        self.base = self.seen = self.peak = 0
        self.tag = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "query": self.query,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "alloc_peak": self.peak,
            "tag": self.tag,
        }


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.query = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.moment_keys: dict[int, set] = defaultdict(set)
        self._originals: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), self.stack[-1].id if self.stack else None, self.query, name)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1].seen = max(self.stack[-1].seen, peak)
            tracemalloc.reset_peak()
            span.base = span.seen = current
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.memory:
            top = max(span.seen, tracemalloc.get_traced_memory()[1])
            span.peak = top - span.base
            if self.stack:
                self.stack[-1].seen = max(self.stack[-1].seen, top)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")

    # --- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, after: Callable | None = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``;
        ``after(span, args, result)`` may add counts or a tag."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        from gapsums import arithprog, cli, oracle, polys, sylvester
        from gapsums.numberfield import RingElement

        counts = self.counts

        def built(span, args, table):
            counts["apery.builds"] += 1
            counts["apery.entries"] += table.modulus

        def dense(span, args, result):
            coeffs = args[0]
            counts["polys.slots"] += len(coeffs)
            counts["polys.terms"] += len(coeffs) - coeffs.count(0)

        def moment(span, args, result):
            table, nu, lam = args[:3]
            counts["sylvester.moment_calls"] += 1
            self.moment_keys[self.query].add((hash(table), nu, hash(lam)))

        def tagged(span, args, result):
            span.tag = result.branch

        def sieved(span, args, gapset):
            gens = args[0]
            counts["oracle.reached"] += gapset.bound + 1
            counts["oracle.allocated"] += gens.modulus * gens.largest + gens.modulus + 1

        for owner in (sylvester, cli):
            self.wrap(owner, "apery_general", "apery.apery_general", built)
        self.wrap(cli, "apery_arith", "apery.apery_arith")
        self.wrap(sylvester, "apery_polynomial", "apery.apery_polynomial")
        for attr in ("frobenius", "genus", "power_sum", "weighted_sum", "weighted_sum_general",
                     "weighted_sum_unity_a", "weighted_sum_from_moments"):
            self.wrap(sylvester, attr, f"sylvester.{attr}")
        self.wrap(sylvester, "weighted_moment", "sylvester.weighted_moment", moment)
        self.wrap(sylvester, "moment_from_polynomial", "sylvester.moment_from_polynomial", dense)
        for attr in ("frobenius_ap", "genus_ap", "power_sum_ap", "weighted_moment_ap",
                     "weighted_moment_unity_d", "weighted_sum_from_moments"):
            self.wrap(arithprog, attr, f"arithprog.{attr}")
        self.wrap(arithprog, "weighted_sum_ap", "arithprog.weighted_sum_ap", tagged)
        self.wrap(arithprog, "moment_from_polynomial", "arithprog.moment_from_polynomial", dense)
        for attr in ("eval_sparse", "derivative"):
            self.wrap(polys, attr, f"polys.{attr}")
        self.wrap(oracle, "gap_set", "oracle.gap_set", sieved)
        for attr in ("power_sum", "weighted_sum"):
            self.wrap(oracle, attr, f"oracle.{attr}")
        self.wrap(cli, "main", "cli.main")
        self._count_ring_ops(RingElement)

    def _count_ring_ops(self, ring_element) -> None:
        counts = self.counts
        mul, inverse = ring_element.__mul__, ring_element.inverse
        clock = time.perf_counter

        def counted_mul(x, y):
            start = clock()
            result = mul(x, y)
            counts["numberfield.mul_s"] += clock() - start
            if result is NotImplemented:
                return result
            counts["numberfield.muls"] += 1
            bits = counts["numberfield.max_bits"]
            for c in result.coeffs:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
            counts["numberfield.max_bits"] = bits
            return result

        def counted_inverse(x):
            counts["numberfield.inverses"] += 1
            return inverse(x)

        self._replace(ring_element, "__mul__", counted_mul)
        self._replace(ring_element, "__rmul__", counted_mul)
        self._replace(ring_element, "inverse", counted_inverse)

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, memory_spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from a traced pass, per timed query where a mean
    makes sense; allocation peaks come from a separate pass under
    ``tracemalloc``.  ``trace.overhead_ratio`` and ``exact.cache_misses`` are
    measured by the caller."""
    spans = tracer.spans
    queries = [s for s in spans if s.name == "query"]
    n = max(len(queries), 1)
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    alone: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        alone[s.name] += own[s.id]
        if s.name == "arithprog.weighted_sum_ap":
            total[f"arithprog.weighted_sum_ap/{s.tag}"] += s.duration

    def peak_mb(layer: str) -> float:
        peaks = (s.peak for s in memory_spans if s.name.startswith(layer + "."))
        return max(peaks, default=0) / 2**20

    c = tracer.counts
    calls = c["sylvester.moment_calls"]
    distinct = sum(len(keys) for keys in tracer.moment_keys.values())
    out = {
        "apery.build_s": total["apery.apery_general"] / n,
        "apery.entries": c["apery.entries"] / n,
        "apery.builds_per_query": c["apery.builds"] / n,
        "sylvester.moment_s": total["sylvester.weighted_moment"] / n,
        "sylvester.derivative_route_s": total["sylvester.moment_from_polynomial"] / n,
        "sylvester.recombine_s": alone["sylvester.weighted_sum_from_moments"] / n,
        "sylvester.unity_a_s": alone["sylvester.weighted_sum_unity_a"] / n,
        "sylvester.moment_reuse": distinct / calls if calls else 0.0,
        "sylvester.power_sum_s": total["sylvester.power_sum"] / n,
        "polys.eval_sparse_s": total["polys.eval_sparse"] / n,
        "polys.derivative_s": total["polys.derivative"] / n,
        "polys.dense_slots": c["polys.slots"] / n,
        "polys.density": c["polys.terms"] / c["polys.slots"] if c["polys.slots"] else 0.0,
        "numberfield.mul_count": c["numberfield.muls"] / n,
        "numberfield.mul_s": c["numberfield.mul_s"] / n,
        "numberfield.inverse_count": c["numberfield.inverses"] / n,
        "numberfield.max_coeff_bits": c["numberfield.max_bits"],
        "arithprog.power_sum_s": total["arithprog.power_sum_ap"] / n,
        "arithprog.weighted_sum_s.general": total["arithprog.weighted_sum_ap/general"] / n,
        "arithprog.weighted_sum_s.unity-d": total["arithprog.weighted_sum_ap/unity-d"] / n,
        "arithprog.weighted_sum_s.unity-a": total["arithprog.weighted_sum_ap/unity-a"] / n,
        "arithprog.alloc_peak_mb": peak_mb("arithprog"),
        "oracle.sieve_s": total["oracle.gap_set"] / n,
        "oracle.sum_s": (total["oracle.power_sum"] + total["oracle.weighted_sum"]) / n,
        "oracle.sieve_use": c["oracle.reached"] / c["oracle.allocated"] if c["oracle.allocated"] else 0.0,
        "oracle.alloc_peak_mb": peak_mb("oracle"),
        "cli.self_s": alone["cli.main"] / n,
        "trace.wall_s": total["query"] / n,
    }
    for layer in _LAYERS:
        layer_self = sum(v for name, v in alone.items() if name.startswith(layer + "."))
        out[f"share.{layer}"] = layer_self / total["query"] if total["query"] else 0.0
    return out
