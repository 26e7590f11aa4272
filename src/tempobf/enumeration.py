"""Instance enumeration for the six temporal butterfly types.

Both engines walk the same wedges as their counting counterparts but hand
every surviving pair to a sink as a concrete ButterflyInstance instead of
bumping a counter.  Emission order is an engine detail; compare multisets.
enumerate_baseline pairs the wedges of every end bucket directly, and
enumerate_optimized those of small buckets only, sweeping the rest.  The
sweep keeps its wedges in one arrival-sorted list per direction, as
count_extreme's arrival side does: a probe bisects its arrival, takes the
match types from the slices on either side, and builds each instance in
the slice loop.

An end bucket's start and end vertices, sorted, are the corner pair of
their layer.  Wedges keep their two timestamps ordered by that pair, so a
pair of wedges becomes an instance by one comparison of their middles.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
        type_index, (u, w), (v, x), (t0, t1, t2, t3) = self
        up, low = g.upper_tokens, g.lower_tokens
        return f"{type_index}\t{up[u]}\t{up[w]}\t{low[v]}\t{low[x]}\t{t0}\t{t1}\t{t2}\t{t3}"


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
    """One arrival-sorted list of wedges that emits matches from two bisects.

    Entries are (t_a, t_s, middle, c0, c1), c0 and c1 being the wedge's
    timestamps ordered by the bucket's sorted corner pair: (t_s, t_a)
    unless swap is set.  Every indexed wedge starts after the probing
    wedge (pivot being its arrival), so bisecting the pivot splits the
    list: entries arriving before it are all covered by the probe, and of
    those arriving after it, one starting after the pivot is non-overlap,
    one starting before it intersecting; a stamp equal to the pivot is
    shared and never a butterfly.  Each distinct-middle match is built in
    the slice loop, in _instance's canonical corner order, and handed to
    sink; the three tallies go to acc once per probe.
    """

    __slots__ = ("_entries", "swap", "in_upper", "fixed", "sink", "acc")

    def __init__(self, swap: bool, in_upper: bool, fixed: tuple[int, int], sink: Sink, acc: list[int]) -> None:
        self._entries: list[tuple[int, int, int, int, int]] = []
        self.swap = swap
        self.in_upper = in_upper
        self.fixed = fixed
        self.sink = sink
        self.acc = acc

    def insert(self, wedge: tuple) -> None:
        ts, ta, mid = wedge
        insort(self._entries, (ta, ts, mid, ta, ts) if self.swap else (ta, ts, mid, ts, ta))

    def delete_above(self, bound: int) -> None:
        entries = self._entries
        while entries and entries[-1][0] > bound:
            entries.pop()

    def query_pairs(self, pivot: int, offsets: tuple[int, int, int], mid: int, c0: int, c1: int) -> None:
        """Emit wedge (pivot, mid, c0, c1) paired with every matching entry."""
        o_non, o_int, o_cov = offsets
        entries, fixed, sink = self._entries, self.fixed, self.sink
        # stamps are ints, so [lo, hi) holds exactly the entries arriving at the pivot
        lo = bisect_left(entries, (pivot,))
        hi = bisect_left(entries, (pivot + 1,), lo)
        n_cov = lo
        n_non = n_int = 0
        # the layers lay an instance out differently; test the layer once per probe
        if self.in_upper:
            for _, _, omid, o0, o1 in entries[:lo]:
                if mid < omid:
                    sink(_new(ButterflyInstance, (o_cov, fixed, (mid, omid), (c0, c1, o0, o1))))
                elif omid < mid:
                    sink(_new(ButterflyInstance, (o_cov, fixed, (omid, mid), (o0, o1, c0, c1))))
                else:
                    n_cov -= 1
            for _, ts, omid, o0, o1 in entries[hi:]:
                if omid == mid or ts == pivot:
                    continue
                if ts > pivot:
                    t = o_non
                    n_non += 1
                else:
                    t = o_int
                    n_int += 1
                if mid < omid:
                    sink(_new(ButterflyInstance, (t, fixed, (mid, omid), (c0, c1, o0, o1))))
                else:
                    sink(_new(ButterflyInstance, (t, fixed, (omid, mid), (o0, o1, c0, c1))))
        else:
            for _, _, omid, o0, o1 in entries[:lo]:
                if mid < omid:
                    sink(_new(ButterflyInstance, (o_cov, (mid, omid), fixed, (c0, o0, c1, o1))))
                elif omid < mid:
                    sink(_new(ButterflyInstance, (o_cov, (omid, mid), fixed, (o0, c0, o1, c1))))
                else:
                    n_cov -= 1
            for _, ts, omid, o0, o1 in entries[hi:]:
                if omid == mid or ts == pivot:
                    continue
                if ts > pivot:
                    t = o_non
                    n_non += 1
                else:
                    t = o_int
                    n_int += 1
                if mid < omid:
                    sink(_new(ButterflyInstance, (t, (mid, omid), fixed, (c0, o0, c1, o1))))
                else:
                    sink(_new(ButterflyInstance, (t, (omid, mid), fixed, (o0, c0, o1, c1))))
        acc = self.acc
        acc[o_non] += n_non
        acc[o_int] += n_int
        acc[o_cov] += n_cov


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
    """Pairing of small end buckets, the counting sweep with bisected probes for the rest.

    The sweep drops same-middle pairs, which come from parallel edges, as
    they are reported instead of counting and subtracting them.
    """
    return _enumerate(g, priority, delta, sink, _SMALL_BUCKET)


def _enumerate(g, priority, delta, sink, largest_paired) -> CountVector:
    """Pair each end bucket of at most largest_paired wedges, sweep the rest."""
    acc = [0] * 6
    for layer, s, end, wedges in _end_buckets(g, priority, delta):
        _emit_bucket(layer, s, end, wedges, delta, sink, acc, largest_paired)
    return CountVector(acc)


def _emit_bucket(layer, s, end, wedges, delta, sink, acc, largest_paired) -> None:
    """Emit one end bucket's instances to sink and tally them in acc.

    Wedges are first put in corner order: (c0, c1, middle), stamping the
    edges to the smaller and the larger corner.
    """
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
        return
    # a forward wedge normalizes to (c0, c1), a backward one to (c1, c0)
    fwd_idx = _TraversalIndex(False, in_upper, fixed, sink, acc)
    bwd_idx = _TraversalIndex(True, in_upper, fixed, sink, acc)
    _sweep(*_split(wedges), delta, fwd_idx, bwd_idx, _emitting_visit(layer))
