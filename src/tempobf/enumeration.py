"""Instance enumeration for the six temporal butterfly types.

Both engines walk the same wedges as their counting counterparts but hand
every surviving pair to a sink as a concrete ButterflyInstance instead of
bumping a counter.  Emission order is an engine detail; compare multisets.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from .count import (
    CountVector,
    _end_buckets,
    _layer_passes,
    _require_priority_layout,
    _sorted_union,
    _sweep,
    classify_type,
)
from .graph import TemporalBipartiteGraph, VertexPriority

__all__ = ["ButterflyInstance", "enumerate_baseline", "enumerate_optimized", "null_sink"]

Sink = Callable[["ButterflyInstance"], None]


@dataclass(frozen=True)
class ButterflyInstance:
    """One temporal butterfly in canonical corner order.

    upper and lower hold the internal corner ids of their layer, ascending.
    For upper (u, w) and lower (v, x), stamps holds the timestamps of edges
    (u,v), (w,v), (u,x), (w,x) in that order.
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


def _build_instance(
    type_index: int,
    start_in_upper: bool,
    start: int,
    end: int,
    mid1: int,
    raw1: tuple[int, int],
    mid2: int,
    raw2: tuple[int, int],
) -> ButterflyInstance:
    """Canonicalize a wedge pair; raw wedges are (start-edge t, arrival-edge t)."""
    if start_in_upper:
        stamp_of = {
            (start, mid1): raw1[0],
            (end, mid1): raw1[1],
            (start, mid2): raw2[0],
            (end, mid2): raw2[1],
        }
        uppers = (start, end)
        lowers = (mid1, mid2)
    else:
        stamp_of = {
            (mid1, start): raw1[0],
            (mid1, end): raw1[1],
            (mid2, start): raw2[0],
            (mid2, end): raw2[1],
        }
        uppers = (mid1, mid2)
        lowers = (start, end)
    u, w = sorted(uppers)
    v, x = sorted(lowers)
    stamps = (stamp_of[(u, v)], stamp_of[(w, v)], stamp_of[(u, x)], stamp_of[(w, x)])
    return ButterflyInstance(type_index, (u, w), (v, x), stamps)


def enumerate_baseline(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sink: Sink,
) -> CountVector:
    """Per-end wedge grouping with an exhaustive pair test, emitting instances."""
    _require_priority_layout(g)
    acc = [0] * 6
    for layer, starts, mids, sprio, skeys, mkeys in _layer_passes(g, priority):
        in_upper = layer == 0
        for s in range(len(starts)):
            ps = sprio[s]
            row = starts[s]
            cut = bisect_right(skeys[s], -ps)
            if cut >= len(row):
                continue
            buckets: dict[int, list[tuple[int, int, int]]] = {}
            for mi in range(cut, len(row)):
                v, t1, _ = row[mi]
                mrow = mids[v]
                for wi in range(bisect_right(mkeys[v], -ps), len(mrow)):
                    w, t2, _ = mrow[wi]
                    buckets.setdefault(w, []).append((t1, t2, v))
            for end, wedges in buckets.items():
                n = len(wedges)
                for i in range(n - 1):
                    t1a, t1b, m1 = wedges[i]
                    for j in range(i + 1, n):
                        t2a, t2b, m2 = wedges[j]
                        if m1 == m2:
                            continue
                        stamps = (t1a, t1b, t2a, t2b)
                        if max(stamps) - min(stamps) > delta:
                            continue
                        if len(set(stamps)) != 4:
                            continue
                        type_index = classify_type((t1a, t1b), (t2a, t2b), in_upper)
                        sink(
                            _build_instance(
                                type_index, in_upper, s, end, m1, (t1a, t1b), m2, (t2a, t2b)
                            )
                        )
                        acc[type_index] += 1
    return CountVector(acc)


class _TraversalIndex:
    """Start-keyed arrival lists that report matches by bounded range scans.

    Entries carry their middle vertex.  A probe reports buckets starting
    after its arrival whole (non-overlap), and splits earlier buckets by
    scanning backward from the top while arrivals exceed the probe's arrival
    (intersecting) and forward from the bottom while they fall short of it
    (covering), stopping as soon as the constraint fails.
    """

    __slots__ = ("_buckets", "backward")

    def __init__(self, backward: bool) -> None:
        self._buckets: dict[int, list[tuple[int, int]]] = {}
        self.backward = backward

    def insert(self, wedge: tuple) -> None:
        self._buckets.setdefault(wedge[0], []).append((wedge[1], wedge[2]))

    def delete_above(self, bound: int) -> None:
        dead = []
        for ts, arrivals in self._buckets.items():
            while arrivals and arrivals[-1][0] > bound:
                arrivals.pop()
            if not arrivals:
                dead.append(ts)
        for ts in dead:
            del self._buckets[ts]

    def query_pairs(self, pivot: int, offsets: tuple[int, int, int], report) -> None:
        """report(type_index, other_ts, other_ta, other_mid, other_backward)."""
        o_non, o_int, o_cov = offsets
        backward = self.backward
        for ts, arrivals in self._buckets.items():
            if ts > pivot:
                for ta, mid in arrivals:
                    report(o_non, ts, ta, mid, backward)
            elif ts < pivot:
                i = len(arrivals) - 1
                while i >= 0 and arrivals[i][0] > pivot:
                    ta, mid = arrivals[i]
                    report(o_int, ts, ta, mid, backward)
                    i -= 1
                for ta, mid in arrivals:
                    if ta >= pivot:
                        break
                    report(o_cov, ts, ta, mid, backward)


def enumerate_optimized(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sink: Sink,
) -> CountVector:
    """The counting sweep with range-scan probes, emitting instances.

    Same-middle pairs, which come from parallel edges, are dropped as they
    are reported instead of being counted and subtracted.
    """
    acc = [0] * 6
    for layer, s, end, bucket in _end_buckets(g, priority, delta):
        in_upper = layer == 0
        off_same = (0 ^ layer, 1 ^ layer, 2 ^ layer)
        off_diff = (3 ^ layer, 4 ^ layer, 5 ^ layer)

        def visit(wedge, same_idx, diff_idx, backward):
            ts, ta, mid = wedge
            cur_raw = (ta, ts) if backward else (ts, ta)

            def report(type_index, ots, ota, omid, obackward):
                if omid == mid:
                    return
                other_raw = (ota, ots) if obackward else (ots, ota)
                sink(
                    _build_instance(
                        type_index, in_upper, s, end, mid, cur_raw, omid, other_raw
                    )
                )
                acc[type_index] += 1

            same_idx.query_pairs(ta, off_same, report)
            diff_idx.query_pairs(ta, off_diff, report)

        fwd, bwd = _sorted_union(bucket)
        _sweep(fwd, bwd, delta, _TraversalIndex(False), _TraversalIndex(True), visit)
    return CountVector(acc)
