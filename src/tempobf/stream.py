"""Streaming maintenance of temporal butterfly counts over an edge stream.

Two engines keep a sliding window's six counters current.  The single-edge
engine recomputes, per inserted or deleted edge, the exact counts of the
butterflies containing that edge.  The batch engine exploits that windows
slide chronologically: a deleted edge only ever accounts for butterflies in
which it is the strict minimum timestamp, an inserted edge for those where
it is the strict maximum, so a whole stride of deletions and insertions can
be counted independently per edge against one fixed graph.  Both engines
expand an edge (u, v, t)'s 2-paths u-x-w-v the same way: through whichever
endpoint has fewer edges inside the edge's time range, the degree-priority
idea of vertex-priority butterfly counting, reading every range off per-row
timestamp arrays with plain bisects.  The batch's edges are split into
`workers` deterministic slices that run one after another on the calling
thread: the counting is pure Python, so threads would only contend for the
interpreter lock.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable

from .count import CountVector, classify_type
from .graph import LAYOUT_TIME, TemporalBipartiteGraph, TemporalEdge, sort_adjacency_by_time

__all__ = [
    "StreamOrderError",
    "delta_count_edge",
    "stream_insert",
    "stream_delete",
    "batch_update",
    "SlidingWindow",
    "run_sliding_window",
]

EmissionSink = Callable[[int, int, int, CountVector], None]


class StreamOrderError(ValueError):
    """Raised when a stream edge arrives out of chronological order."""


def _require_time_layout(g: TemporalBipartiteGraph) -> None:
    if g.layout != LAYOUT_TIME:
        raise ValueError("streaming requires time-sorted adjacency; call sort_adjacency_by_time")


def _time_range(times: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Index range of a row's entries with lo <= t <= hi, from its timestamp array."""
    return bisect_left(times, lo), bisect_right(times, hi)


def _expansion(
    g: TemporalBipartiteGraph,
    e: TemporalEdge,
    lo: int,
    hi: int,
    from_upper: bool | None = None,
) -> tuple[dict[int, list[int]], dict[int, list[int]], list, list[list[int]], bool]:
    """How to expand e's 2-paths u-x-w-v whose two legs lie in [lo, hi].

    Each endpoint's in-range neighbours, the other endpoint left out, map to
    the timestamps of their edges to it.  The endpoint with fewer in-range
    edges is walked (u on a tie, the degree-priority idea of vertex-priority
    butterfly counting): the caller bisects each walked neighbour's row and
    looks the far ends up in the other endpoint's dict.  from_upper forces
    the direction (true: through u) so that tests can run both.  Returns the
    dict to walk, the dict to look up, the walked neighbours' adjacency rows
    and timestamp arrays, and from_upper.  The walk comes back empty once
    either endpoint has no in-range neighbour; v is checked first, so u's
    range is skipped when v's is empty.
    """
    u, v, _t, _ = e
    vlo, vhi = _time_range(g.lower_times[v], lo, hi)
    near_v: dict[int, list[int]] = {}
    for w, tw, _uid in g.lower_adj[v][vlo:vhi]:
        if w != u:
            near_v.setdefault(w, []).append(tw)
    if not near_v:
        return {}, {}, [], [], False
    ulo, uhi = _time_range(g.upper_times[u], lo, hi)
    near_u: dict[int, list[int]] = {}
    for x, tx, _uid in g.upper_adj[u][ulo:uhi]:
        if x != v:
            near_u.setdefault(x, []).append(tx)
    if not near_u:
        return {}, {}, [], [], False
    if from_upper is None:
        from_upper = uhi - ulo <= vhi - vlo
    if from_upper:
        return near_u, near_v, g.lower_adj, g.lower_times, True
    return near_v, near_u, g.upper_adj, g.upper_times, False


def delta_count_edge(g: TemporalBipartiteGraph, delta: int, e: TemporalEdge) -> CountVector:
    """Exact per-type counts of the butterflies containing edge e.

    A butterfly through e = (u, v, t) is e, a 2-path u-x-w-v and the edge
    (u, x) or (w, v) that closes it, every timestamp inside
    [t - delta, t + delta].  The 2-paths are expanded through whichever
    endpoint has fewer edges in that range, as the batch engine does, and
    each (closing edge, 2-path) pair is tested directly for four distinct
    timestamps and the span bound.  The pair is two wedges off the endpoint
    not walked, (t, closing edge) through the walked one and the 2-path's
    own, so its type is read from that endpoint's layer.
    """
    _require_time_layout(g)
    if not g.has_edge(e):
        raise ValueError(f"edge {e} is not in the graph")
    t = e.t
    lo, hi = t - delta, t + delta
    walk, look, rows, times, from_upper = _expansion(g, e, lo, hi)
    acc = [0] * 6
    for y, pivots in walk.items():
        a, b = _time_range(times[y], lo, hi)
        for z, ta, _uid in rows[y][a:b]:
            for ts in look.get(z, ()):
                for pivot in pivots:
                    stamps = (t, pivot, ts, ta)
                    if max(stamps) - min(stamps) <= delta and len(set(stamps)) == 4:
                        acc[classify_type((t, pivot), (ts, ta), not from_upper)] += 1
    return CountVector(acc)


def stream_insert(g: TemporalBipartiteGraph, delta: int, u_token: str, v_token: str, t: int, live: CountVector) -> TemporalEdge:
    """Insert one edge and add the butterflies it completes to live."""
    e = g.insert_edge(u_token, v_token, t)
    live.add_(delta_count_edge(g, delta, e))
    return e


def stream_delete(g: TemporalBipartiteGraph, delta: int, e: TemporalEdge, live: CountVector) -> None:
    """Subtract the butterflies containing e from live, then remove e.

    Raises ValueError, leaving graph and live untouched, if live would go
    negative, which means it did not match the graph.
    """
    removed = delta_count_edge(g, delta, e)
    _check_live(live, [0] * 6, removed)
    live.sub_(removed)
    g.remove_edge(e)


def _check_live(live: CountVector, added: list[int], removed: list[int]) -> None:
    after = [c + a - r for c, a, r in zip(live, added, removed)]
    if any(c < 0 for c in after):
        raise ValueError(f"live counts would go negative: {after}; they did not match the graph")


# --- batch path -------------------------------------------------------------


def _count_gt(col: list[int], x: int) -> int:
    return len(col) - bisect_right(col, x)


def _count_ge(col: list[int], x: int) -> int:
    return len(col) - bisect_left(col, x)


def _count_lt(col: list[int], x: int) -> int:
    return bisect_left(col, x)


def _count_edge_extreme(
    g: TemporalBipartiteGraph,
    delta: int,
    e: TemporalEdge,
    as_max: bool,
    from_upper: bool | None = None,
) -> list[int]:
    """Counts of butterflies containing e in which e.t is the strict extreme.

    As the minimum (as_max false) every other timestamp lies in
    (t, t + delta], as the maximum in [t - delta, t), so the span bound
    holds by construction.  The 2-paths over that range come from
    `_expansion`.  Each walked neighbour's 2-paths are ranked against its
    own edges to the walked endpoint, the pivots, which close a wedge
    (t, pivot) that is forward as the minimum and backward as the maximum.
    Walking from u sees the butterflies from v, a lower start vertex, which
    flips the type index's low bit.  from_upper is passed to `_expansion`.
    """
    t = e.t
    lo, hi = (t - delta, t - 1) if as_max else (t + 1, t + delta)
    acc = [0] * 6
    walk, look, rows, times, from_upper = _expansion(g, e, lo, hi, from_upper)
    for y, pivots in walk.items():
        # wedges endpoint-z-y: ts on the looked-up edge, ta on y's; sorted columns per direction
        fs, fa, bs, ba = [], [], [], []
        a, b = _time_range(times[y], lo, hi)
        for z, ta, _uid in rows[y][a:b]:
            starts = look.get(z)
            if starts is not None:
                for ts in starts:
                    if ts < ta:
                        fs.append(ts)
                        fa.append(ta)
                    elif ts > ta:
                        bs.append(ta)
                        ba.append(ts)
        if not fs and not bs:
            continue
        fs.sort()
        fa.sort()
        bs.sort()
        ba.sort()
        for pivot in pivots:
            if as_max:
                # wedge (pivot, t) is backward; backward partners are same direction
                acc[0] += _count_lt(ba, pivot)
                acc[1] += _count_gt(ba, pivot) - _count_ge(bs, pivot)
                acc[2] += _count_gt(bs, pivot)
                acc[3] += _count_lt(fa, pivot)
                acc[4] += _count_gt(fa, pivot) - _count_ge(fs, pivot)
                acc[5] += _count_gt(fs, pivot)
            else:
                # wedge (t, pivot) is forward; forward partners are same direction
                acc[0] += _count_gt(fs, pivot)
                acc[1] += _count_gt(fa, pivot) - _count_ge(fs, pivot)
                acc[2] += _count_lt(fa, pivot)
                acc[3] += _count_gt(bs, pivot)
                acc[4] += _count_gt(ba, pivot) - _count_ge(bs, pivot)
                acc[5] += _count_lt(ba, pivot)
    if from_upper:
        return [acc[k ^ 1] for k in range(6)]
    return acc


def batch_update(
    g: TemporalBipartiteGraph,
    delta: int,
    deletions: list[TemporalEdge],
    insertions: list[tuple[str, str, int]],
    live: CountVector,
    workers: int = 1,
    stats: dict | None = None,
) -> list[TemporalEdge]:
    """Apply one window slide: delete an oldest prefix, insert a newest suffix.

    The deletion batch must be a timestamp prefix of the graph's edges and
    the insertion batch a timestamp suffix of the stream; then every affected
    butterfly has its minimum-timestamp edge among the deletions or its
    maximum-timestamp edge among the insertions, never both counted, so
    per-edge counting cannot double-count.  Insertions go into the graph
    before counting; deletions leave it only after counting is done.  The
    counting phase is read-only on the graph and is split into `workers`
    slices, each with its own accumulator, reduced deterministically at the
    end; the slices run one after another on the calling thread.  Raises
    ValueError if live would go negative, which means it did not match the
    graph; the inserted edges are then removed again, so graph and live are
    left as they were.

    Returns the inserted edge records.
    """
    _require_time_layout(g)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    for batch, what in ((deletions, "deletion"), (insertions, "insertion")):
        ts = [e[2] if what == "insertion" else e.t for e in batch]
        if any(a > b for a, b in zip(ts, ts[1:])):
            raise ValueError(f"{what} batch is not chronologically ordered")
    if deletions:
        if len({e.uid for e in deletions}) != len(deletions):
            raise ValueError("deletion batch names an edge twice")
        for e in deletions:
            if not g.has_edge(e):
                raise ValueError(f"deletion batch edge {e} is not in the graph")
        # with the deletions distinct and in the graph, every edge older than the newest one must be among them
        last = deletions[-1].t
        if sum(map(bisect_left, g.upper_times, repeat(last))) != bisect_left([e.t for e in deletions], last):
            raise ValueError("deletion batch is not an oldest-timestamp prefix of the graph")
    if insertions:
        ceil = max(map(itemgetter(-1), filter(None, g.upper_times)), default=None)
        if ceil is not None and insertions[0][2] < ceil:
            raise ValueError("insertion batch is not a newest-timestamp suffix of the stream")
    inserted = [g.insert_edge(u, v, t) for u, v, t in insertions]

    jobs: list[tuple[TemporalEdge, bool]] = [(e, False) for e in deletions] + [(e, True) for e in inserted]
    removed = [0] * 6
    added = [0] * 6
    for k in range(workers):
        part_removed = [0] * 6
        part_added = [0] * 6
        for e, as_max in jobs[k::workers]:
            part = _count_edge_extreme(g, delta, e, as_max)
            acc = part_added if as_max else part_removed
            for i in range(6):
                acc[i] += part[i]
        for i in range(6):
            removed[i] += part_removed[i]
            added[i] += part_added[i]
    try:
        _check_live(live, added, removed)
    except ValueError:
        for e in reversed(inserted):
            g.remove_edge(e)
        raise
    for e in deletions:
        g.remove_edge(e)
    live.add_(added)
    live.sub_(removed)
    if stats is not None:
        stats["removed"] = CountVector(removed)
        stats["added"] = CountVector(added)
    return inserted


# --- sliding-window driver --------------------------------------------------


class SlidingWindow:
    """Most recent `window` stream edges plus their live butterfly counts."""

    __slots__ = ("graph", "delta", "window", "stride", "buffer", "live")

    def __init__(self, delta: int, window: int, stride: int) -> None:
        if stride < 1:
            raise ValueError(f"stride must be at least 1, got {stride}")
        if window < stride:
            raise ValueError(f"window ({window}) must be at least the stride ({stride})")
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.graph = TemporalBipartiteGraph()
        sort_adjacency_by_time(self.graph)
        self.delta = delta
        self.window = window
        self.stride = stride
        self.buffer: deque[TemporalEdge] = deque()
        self.live = CountVector.zeros()

    def advance_single(self, chunk: list[tuple[str, str, int]]) -> None:
        for u, v, t in chunk:
            self.buffer.append(stream_insert(self.graph, self.delta, u, v, t, self.live))
        while len(self.buffer) > self.window:
            stream_delete(self.graph, self.delta, self.buffer.popleft(), self.live)

    def advance_batch(self, chunk: list[tuple[str, str, int]], workers: int) -> None:
        excess = len(self.buffer) + len(chunk) - self.window
        deletions = [self.buffer[i] for i in range(max(0, excess))]
        inserted = batch_update(self.graph, self.delta, deletions, chunk, self.live, workers)
        for _ in deletions:
            self.buffer.popleft()
        self.buffer.extend(inserted)

    def bounds(self) -> tuple[int, int]:
        return self.buffer[0].t, self.buffer[-1].t


def run_sliding_window(
    source: Iterable[tuple[str, str, int]],
    delta: int,
    window: int,
    stride: int,
    engine: str = "stbc",
    workers: int = 1,
    sink: EmissionSink | None = None,
) -> None:
    """Drive a sliding window over a chronological edge stream.

    The stream is consumed stride edges at a time (the final chunk may be
    short).  Each step inserts its chunk, evicts down to the window capacity,
    and emits (step index, oldest t, newest t, live counts) to the sink; the
    fill phase emits too.  engine picks the per-edge path ("stbc") or the
    batched path ("stbc+"); workers only applies to the latter.  A stream
    that goes backward in time raises StreamOrderError naming the edge.
    """
    if engine not in ("stbc", "stbc+"):
        raise ValueError(f"unknown streaming engine {engine!r}")
    win = SlidingWindow(delta, window, stride)
    step = 0
    last_t: int | None = None
    chunk: list[tuple[str, str, int]] = []

    def flush() -> None:
        nonlocal step, chunk
        if engine == "stbc":
            win.advance_single(chunk)
        else:
            win.advance_batch(chunk, workers)
        if sink is not None:
            start_t, end_t = win.bounds()
            sink(step, start_t, end_t, win.live.copy())
        step += 1
        chunk = []

    for u, v, t in source:
        if last_t is not None and t < last_t:
            raise StreamOrderError(
                f"edge ({u}, {v}, {t}) arrived after an edge with timestamp {last_t}"
            )
        last_t = t
        chunk.append((u, v, t))
        if len(chunk) == stride:
            flush()
    if chunk:
        flush()
