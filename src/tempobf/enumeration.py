"""Instance enumeration for the six temporal butterfly types.

Both engines walk the same wedges as their counting counterparts but hand
every surviving pair to a sink as a concrete ButterflyInstance instead of
bumping a counter.  Emission order is an engine detail; compare multisets.
enumerate_baseline pairs the wedges of every end bucket directly, and
enumerate_optimized those of small buckets only, sweeping the rest.

An end bucket's start and end vertices, sorted, are the corner pair of
their layer.  Wedges keep their two timestamps ordered by that pair, so a
pair of wedges becomes an instance by one comparison of their middles.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .count import (
    _SMALL_BUCKET,
    CountVector,
    _end_buckets,
    _pairs,
    _split,
    _sweep,
    classify_type,
)
from .graph import TemporalBipartiteGraph, VertexPriority

__all__ = ["ButterflyInstance", "enumerate_baseline", "enumerate_optimized", "null_sink"]

Sink = Callable[["ButterflyInstance"], None]


class ButterflyInstance(NamedTuple):
    """One temporal butterfly in canonical corner order.

    upper and lower hold the internal corner ids of their layer, ascending.
    For upper (u, w) and lower (v, x), stamps holds the timestamps of edges
    (u,v), (w,v), (u,x), (w,x) in that order.  An instance is a tuple: it
    unpacks as (type_index, upper, lower, stamps) and equals the plain
    4-tuple of those values.
    """

    type_index: int
    upper: tuple[int, int]
    lower: tuple[int, int]
    stamps: tuple[int, int, int, int]

    def check(self, g: TemporalBipartiteGraph, delta: int) -> None:
        """Assert the instance is a real butterfly of g; raises on violation."""
        u, w = self.upper
        v, x = self.lower
        if u >= w or v >= x:
            raise AssertionError(f"corners not in canonical order: {self}")
        if len(set(self.stamps)) != 4:
            raise AssertionError(f"timestamps not distinct: {self}")
        if max(self.stamps) - min(self.stamps) > delta:
            raise AssertionError(f"span exceeds {delta}: {self}")
        for (up, low), t in zip(((u, v), (w, v), (u, x), (w, x)), self.stamps):
            if not any(nbr == low and et == t for nbr, et, _ in g.upper_adj[up]):
                raise AssertionError(f"edge ({up}, {low}, {t}) not in graph: {self}")
        recomputed = classify_type(
            (self.stamps[0], self.stamps[1]), (self.stamps[2], self.stamps[3]), True
        )
        if recomputed != self.type_index:
            raise AssertionError(f"type mismatch, classifier says {recomputed}: {self}")

    def format_line(self, g: TemporalBipartiteGraph) -> str:
        """`type u w v x t_uv t_vw t_ux t_xw`, tab separated, original tokens."""
        u, w = self.upper
        v, x = self.lower
        fields = (
            self.type_index,
            g.upper_tokens[u],
            g.upper_tokens[w],
            g.lower_tokens[v],
            g.lower_tokens[x],
            *self.stamps,
        )
        return "\t".join(str(f) for f in fields)


def null_sink(_inst: ButterflyInstance) -> None:
    """Discard instances; tallies are still returned by the engines."""


# the named tuple's own __new__ is a Python function; this skips it
_new = tuple.__new__


def _instance(type_index, in_upper, fixed, mid, c0, c1, omid, o0, o1) -> ButterflyInstance:
    """Canonical instance of two distinct-middle wedges of one end bucket.

    fixed is the bucket's sorted (start, end) pair; (c0, c1) are the stamps
    of (fixed[0], mid) and (fixed[1], mid), and (o0, o1) those of omid.
    """
    if omid < mid:
        mid, c0, c1, omid, o0, o1 = omid, o0, o1, mid, c0, c1
    if in_upper:
        return _new(ButterflyInstance, (type_index, fixed, (mid, omid), (c0, c1, o0, o1)))
    return _new(ButterflyInstance, (type_index, (mid, omid), fixed, (c0, o0, c1, o1)))


def enumerate_baseline(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sink: Sink,
) -> CountVector:
    """Per-end wedge grouping with an exhaustive pair test, emitting instances."""
    return _enumerate(g, priority, delta, sink, float("inf"))


class _TraversalIndex:
    """Start-keyed arrival lists that emit matches by bounded range scans.

    Entries are (arrival, middle, c0, c1), c0 and c1 being the wedge's
    timestamps ordered by the bucket's sorted corner pair: (t_s, t_a) unless
    swap is set.  A probe pairs the probing wedge with buckets starting
    after its arrival whole (non-overlap), and splits earlier buckets by
    scanning backward from the top while arrivals exceed the probe's
    arrival (intersecting) and forward from the bottom while they fall
    short of it (covering), stopping as soon as the constraint fails.  Each
    distinct-middle pair goes to sink as an instance and is tallied in acc.
    """

    __slots__ = ("_buckets", "swap", "in_upper", "fixed", "sink", "acc")

    def __init__(self, swap: bool, in_upper: bool, fixed: tuple[int, int], sink: Sink, acc: list[int]) -> None:
        self._buckets: dict[int, list[tuple[int, int, int, int]]] = {}
        self.swap = swap
        self.in_upper = in_upper
        self.fixed = fixed
        self.sink = sink
        self.acc = acc

    def insert(self, wedge: tuple) -> None:
        ts, ta, mid = wedge
        entry = (ta, mid, ta, ts) if self.swap else (ta, mid, ts, ta)
        self._buckets.setdefault(ts, []).append(entry)

    def delete_above(self, bound: int) -> None:
        dead = []
        for ts, arrivals in self._buckets.items():
            while arrivals and arrivals[-1][0] > bound:
                arrivals.pop()
            if not arrivals:
                dead.append(ts)
        for ts in dead:
            del self._buckets[ts]

    def query_pairs(self, pivot: int, offsets: tuple[int, int, int], mid: int, c0: int, c1: int) -> None:
        """Emit wedge (pivot, mid, c0, c1) paired with every matching entry."""
        o_non, o_int, o_cov = offsets
        in_upper, fixed, sink, acc = self.in_upper, self.fixed, self.sink, self.acc
        for ts, arrivals in self._buckets.items():
            if ts > pivot:
                for _, omid, o0, o1 in arrivals:
                    if omid != mid:
                        sink(_instance(o_non, in_upper, fixed, mid, c0, c1, omid, o0, o1))
                        acc[o_non] += 1
            elif ts < pivot:
                i = len(arrivals) - 1
                while i >= 0 and arrivals[i][0] > pivot:
                    _, omid, o0, o1 = arrivals[i]
                    if omid != mid:
                        sink(_instance(o_int, in_upper, fixed, mid, c0, c1, omid, o0, o1))
                        acc[o_int] += 1
                    i -= 1
                for ta, omid, o0, o1 in arrivals:
                    if ta >= pivot:
                        break
                    if omid != mid:
                        sink(_instance(o_cov, in_upper, fixed, mid, c0, c1, omid, o0, o1))
                        acc[o_cov] += 1


def _emitting_visit(layer: int):
    off_same = (0 ^ layer, 1 ^ layer, 2 ^ layer)
    off_diff = (3 ^ layer, 4 ^ layer, 5 ^ layer)

    def visit(wedge, same_idx, diff_idx):
        ts, ta, mid = wedge
        c0, c1 = (ta, ts) if same_idx.swap else (ts, ta)
        same_idx.query_pairs(ta, off_same, mid, c0, c1)
        diff_idx.query_pairs(ta, off_diff, mid, c0, c1)

    return visit


def enumerate_optimized(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sink: Sink,
) -> CountVector:
    """Pairing of small end buckets, the counting sweep with range-scan probes for the rest.

    The sweep drops same-middle pairs, which come from parallel edges, as
    they are reported instead of counting and subtracting them.
    """
    return _enumerate(g, priority, delta, sink, _SMALL_BUCKET)


def _enumerate(g, priority, delta, sink, largest_paired) -> CountVector:
    """Pair each end bucket of at most largest_paired wedges, sweep the rest.

    Wedges are first put in corner order: (c0, c1, middle), stamping the
    edges to the smaller and the larger corner.
    """
    acc = [0] * 6
    visits = (_emitting_visit(0), _emitting_visit(1))
    for layer, s, end, wedges in _end_buckets(g, priority, delta):
        in_upper = layer == 0
        if s > end:
            fixed = (end, s)
            wedges = [(t2, t1, mid) for t1, t2, mid in wedges]
        else:
            fixed = (s, end)
        if len(wedges) <= largest_paired:
            for type_index, (c0, c1, mid), (o0, o1, omid) in _pairs(wedges, delta, in_upper):
                sink(_instance(type_index, in_upper, fixed, mid, c0, c1, omid, o0, o1))
                acc[type_index] += 1
            continue
        # a forward wedge normalizes to (c0, c1), a backward one to (c1, c0)
        fwd_idx = _TraversalIndex(False, in_upper, fixed, sink, acc)
        bwd_idx = _TraversalIndex(True, in_upper, fixed, sink, acc)
        _sweep(*_split(wedges), delta, fwd_idx, bwd_idx, visits[layer])
    return CountVector(acc)
