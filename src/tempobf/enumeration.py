"""Instance enumeration for the six temporal butterfly types.

Both engines take their wedges from _end_buckets' delta-windowed walk, the
one count_optimized and count_extreme take (not count_baseline's walk of
whole middle rows), and hand every surviving pair to a sink as a concrete
ButterflyInstance instead of bumping a counter.  They walk on the fork
pool of _pool, which hands the caller every chunk's end buckets in chunk
id order, so the sink runs only in the caller.  Emission order is an
engine detail that depends on the graph alone, the same at any workers.

enumerate_baseline pairs the wedges of every end bucket directly, and
enumerate_optimized those of small buckets only, sweeping the rest in
count's rounds with one fused loop, _emit_swept, over one start-sorted
list of the bucket's wedges with a direction flag.  It keeps a sorted list
of live entries per direction: a probe takes the entries arriving on
either side of its arrival from two bisects, the match types from the
side and each entry's start, and builds each instance in the slice loop
from the wedge the entry carries.

An end bucket's start and end vertices, sorted, are the corner pair of
their layer.  Wedges keep their two timestamps ordered by that pair, so a
pair of wedges becomes an instance by one comparison of their middles.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, NamedTuple

from ._pool import _walk_in_chunk_order
from .count import _SMALL_BUCKET, CountVector, _check_walk, _end_buckets, _pairs, classify_type
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


def enumerate_baseline(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sink: Sink,
    workers: int | None = None,
) -> CountVector:
    """Per-end wedge grouping with an exhaustive pair test, emitting instances.

    workers and the fork pool's rules are count_optimized's; every instance
    is emitted here, in chunk order.  When sink raises, every child is
    killed and reaped before the exception propagates.
    """
    return _enumerate(g, priority, delta, sink, float("inf"), workers)


def enumerate_optimized(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sink: Sink,
    workers: int | None = None,
) -> CountVector:
    """Pairing of small end buckets, the counting sweep with bisected probes for the rest.

    The sweep drops same-middle pairs, which come from parallel edges, as
    they are reported instead of counting and subtracting them.  workers
    and the fork pool are enumerate_baseline's.
    """
    return _enumerate(g, priority, delta, sink, _SMALL_BUCKET, workers)


def _enumerate(g, priority, delta, sink, largest_paired, workers) -> CountVector:
    """Emit each chunk's buckets in chunk id order, as the fork pool hands them on.

    A bucket of at most largest_paired wedges is paired, the rest swept.
    """
    whole = _check_walk(g, priority, delta)
    acc = [0] * 6

    def emit(buckets) -> None:
        for layer, s, end, wedges in buckets:
            _emit_bucket(layer, s, end, wedges, delta, sink, acc, largest_paired)

    _walk_in_chunk_order(g, workers, lambda starts: _end_buckets(g, priority, delta, starts=starts, whole=whole), emit)
    return CountVector(acc)


def _emit_bucket(layer, s, end, wedges, delta, sink, acc, largest_paired) -> None:
    """Emit one end bucket's instances to sink and tally them in acc.

    Wedges are first put in corner order, (c0, c1, middle): c0 and c1 stamp
    the edges to the bucket's smaller and larger corner, which fixed holds.
    """
    in_upper = layer == 0
    if s > end:
        fixed = (end, s)
        wedges = [(t2, t1, mid) for t1, t2, mid in wedges]
    else:
        fixed = (s, end)
    if len(wedges) <= largest_paired:
        for type_index, (c0, c1, mid), (o0, o1, omid) in _pairs(wedges, delta, layer):
            if omid < mid:
                mid, c0, c1, omid, o0, o1 = omid, o0, o1, mid, c0, c1
            if in_upper:
                sink(_new(ButterflyInstance, (type_index, fixed, (mid, omid), (c0, c1, o0, o1))))
            else:
                sink(_new(ButterflyInstance, (type_index, (mid, omid), fixed, (c0, o0, c1, o1))))
            acc[type_index] += 1
        return
    _emit_swept(wedges, delta, layer, fixed, sink, acc)


def _emit_swept(wedges, delta, layer, fixed, sink, acc) -> None:
    """Emit every distinct-middle pair of one end bucket's corner-order wedges by count's sweep.

    The sweep's rounds run over one ascending list of normalized (t_s,
    backward, t_a, middle, c0, c1) wedges, so each round probes its forward
    wedges first, each direction arrivals ascending.  Each direction keeps
    its live wedges in one ascending list of (-arrival, -start, wedge)
    entries, and a wedge's flag picks which it probes as its own.  A probe
    takes the entries arriving after its arrival, the pivot, and those
    arriving before it from two bisects, arrivals descending.  The earlier
    ones are covered; a later one is non-overlap if it starts after the
    pivot, intersecting if before.  Each distinct-middle match goes to sink
    in canonical corner order, the tallies to acc once per probe.
    """
    wedges = sorted(
        [(c0, 0, c1, mid, c0, c1) if c0 < c1 else (c1, 1, c0, mid, c0, c1) for c0, c1, mid in wedges if c0 != c1]
    )
    same = (layer, 1 ^ layer, 2 ^ layer)
    mixed = (3 ^ layer, 4 ^ layer, 5 ^ layer)
    f_live: list[tuple[int, int, tuple]] = []
    b_live: list[tuple[int, int, tuple]] = []
    lives = (f_live, b_live)
    # each wedge probes its own direction's live entries, then the other's, by its backward flag
    probes = (((f_live, same), (b_live, mixed)), ((b_live, same), (f_live, mixed)))
    i = len(wedges)
    while i:
        ts = wedges[i - 1][0]
        # negated, the arrivals beyond ts + delta sit at the head
        cut = -ts - delta
        for live in lives:
            if live and live[0][0] < cut:
                del live[:bisect_left(live, (cut,))]
        a = i - 1
        while a and wedges[a - 1][0] == ts:
            a -= 1
        # forward wedges first, each direction arrivals ascending
        for _, backward, pivot, mid, c0, c1 in wedges[a:i]:
            neg = -pivot
            for live, (o_non, o_int, o_cov) in probes[backward]:
                later = bisect_left(live, (neg,))
                earlier = live[bisect_left(live, (neg + 1,), later):]
                n_cov = len(earlier)
                n_non = n_int = 0
                # the layers lay an instance out differently; test the layer once per probe
                if layer == 0:
                    for _, _, (_, _, _, omid, o0, o1) in earlier:
                        if mid < omid:
                            sink(_new(ButterflyInstance, (o_cov, fixed, (mid, omid), (c0, c1, o0, o1))))
                        elif omid < mid:
                            sink(_new(ButterflyInstance, (o_cov, fixed, (omid, mid), (o0, o1, c0, c1))))
                        else:
                            n_cov -= 1
                    for _, _, (start, _, _, omid, o0, o1) in live[:later]:
                        if omid == mid or start == pivot:
                            continue
                        if start > pivot:
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
                    for _, _, (_, _, _, omid, o0, o1) in earlier:
                        if mid < omid:
                            sink(_new(ButterflyInstance, (o_cov, (mid, omid), fixed, (c0, o0, c1, o1))))
                        elif omid < mid:
                            sink(_new(ButterflyInstance, (o_cov, (omid, mid), fixed, (o0, c0, o1, c1))))
                        else:
                            n_cov -= 1
                    for _, _, (start, _, _, omid, o0, o1) in live[:later]:
                        if omid == mid or start == pivot:
                            continue
                        if start > pivot:
                            t = o_non
                            n_non += 1
                        else:
                            t = o_int
                            n_int += 1
                        if mid < omid:
                            sink(_new(ButterflyInstance, (t, (mid, omid), fixed, (c0, o0, c1, o1))))
                        else:
                            sink(_new(ButterflyInstance, (t, (omid, mid), fixed, (o0, c0, o1, c1))))
                acc[o_non] += n_non
                acc[o_int] += n_int
                acc[o_cov] += n_cov
        neg_ts = -ts
        for wedge in wedges[a:i]:
            insort(lives[wedge[1]], (-wedge[2], neg_ts, wedge))
        i = a
