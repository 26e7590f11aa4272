"""Streaming maintenance of temporal butterfly counts over an edge stream.

Two engines keep a sliding window's six counters current.  Both rest on
windows sliding chronologically: a deleted edge only ever accounts for
butterflies in which it is the strict minimum timestamp, an inserted edge
for those where it is the strict maximum.  The single-edge engine counts
each edge that way as it arrives or is evicted; the public `stream_insert`,
`stream_delete` and `delta_count_edge` take arbitrary timestamps and count
every butterfly through the edge.  The batch engine counts a whole stride
of deletions and insertions independently per edge against one fixed
graph.  Every counter expands an edge (u, v, t)'s 2-paths u-x-w-v the same
way: through whichever endpoint has fewer edges inside the edge's time
range, the degree-priority idea of vertex-priority butterfly counting,
reading every range off per-row timestamp arrays with plain bisects.  Both
engines cut a step's insertions and its evictions into runs, stretches
whose stamps lie within delta of the run's first, build a vertex's
neighbour map once per run over the run's span, and read the far ends that
close a 2-path off a C intersection of two maps' keys.  The batch's edges are split into `workers` deterministic
slices, which share the runs' maps and run one after another on the
calling thread: the counting is pure Python, so threads would only contend
for the interpreter lock.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .count import CountVector, classify_type
from .graph import TemporalBipartiteGraph, TemporalEdge

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


def _time_range(times: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Index range of a row's entries with lo <= t <= hi, from its timestamp array."""
    return bisect_left(times, lo), bisect_right(times, hi)


def _row_map(looks: dict, key: tuple[bool, int], row: list, times: list[int], span: tuple[int, int]) -> dict[int, list[int]]:
    """Vertex key = (is upper, id)'s neighbour -> stamps map over span, built in looks on first use."""
    m = looks.get(key)
    if m is None:
        m = looks[key] = {}
        a, b = _time_range(times, *span)
        for w, tw, _uid in row[a:b]:
            m.setdefault(w, []).append(tw)
    return m


def _runs(batch: list[TemporalEdge], delta: int, as_max: bool) -> Iterator[tuple[list[TemporalEdge], dict, tuple[int, int]]]:
    """Each run of a chronological batch with a fresh looks dict and its span.

    A run's stamps lie within delta of its first; its span, [first - delta,
    last - 1] for maxima or [first + 1, last + delta] for minima, holds every
    range in the run and is at most twice as wide as one.
    """
    stamps = [e.t for e in batch]
    i = 0
    while i < len(batch):
        j = bisect_right(stamps, stamps[i] + delta, i)
        span = (stamps[i] - delta, stamps[j - 1] - 1) if as_max else (stamps[i] + 1, stamps[j - 1] + delta)
        yield batch[i:j], {}, span
        i = j


def _expansion(
    g: TemporalBipartiteGraph,
    e: TemporalEdge,
    lo: int,
    hi: int,
    looks: dict[tuple[bool, int], dict[int, list[int]]],
    span: tuple[int, int],
    from_upper: bool | None = None,
) -> tuple[dict[int, list[int]], dict[int, list[int]], list, list[list[int]], bool, int]:
    """How to expand e's 2-paths u-x-w-v whose two legs lie in [lo, hi].

    Both endpoints' rows are bisected for [lo, hi], and the one with fewer
    in-range edges is walked (u on a tie, the degree-priority idea of
    vertex-priority butterfly counting); from_upper forces the direction
    (true: through u) so that tests can run both.  The walked endpoint's
    in-range neighbours, the other endpoint left out, map to the timestamps
    of their edges to it.  The other endpoint's map comes from `_row_map`
    over span, a range holding [lo, hi]; the window engines intersect its
    keys in C with each walked neighbour's map from the same looks, and
    `delta_count_edge` looks up each walked neighbour's in-range row
    entries in it.  The engines share looks and span across a run, so a
    hub pays its in-range degree once per run, not per edge; per-edge
    callers pass a fresh dict and span (lo, hi).  A shared map may
    hold the walked endpoint and stamps outside [lo, hi], so the caller
    drops the walked endpoint's id and keeps a stamp only inside [lo, hi].
    Returns the map to walk, the map to look up, the walked neighbours'
    adjacency rows and timestamp arrays, from_upper and the walked
    endpoint's id; the walk is empty when the walked endpoint has no
    in-range neighbour but the other endpoint.
    """
    u, v, _t, _ = e
    ulo, uhi = _time_range(g.upper_times[u], lo, hi)
    vlo, vhi = _time_range(g.lower_times[v], lo, hi)
    if from_upper is None:
        from_upper = uhi - ulo <= vhi - vlo
    if from_upper:
        me, other, walked = u, v, g.upper_adj[u][ulo:uhi]
        rows, times, far_row, far_times = g.lower_adj, g.lower_times, g.lower_adj[v], g.lower_times[v]
    else:
        me, other, walked = v, u, g.lower_adj[v][vlo:vhi]
        rows, times, far_row, far_times = g.upper_adj, g.upper_times, g.upper_adj[u], g.upper_times[u]
    walk: dict[int, list[int]] = {}
    for x, tx, _uid in walked:
        if x != other:
            walk.setdefault(x, []).append(tx)
    if not walk:
        return {}, {}, rows, times, from_upper, me
    look = _row_map(looks, (not from_upper, other), far_row, far_times, span)
    return walk, look, rows, times, from_upper, me


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
    if not g.has_edge(e):
        raise ValueError(f"edge {e} is not in the graph")
    t = e.t
    lo, hi = t - delta, t + delta
    walk, look, rows, times, from_upper, skip = _expansion(g, e, lo, hi, {}, (lo, hi))
    acc = [0] * 6
    for y, pivots in walk.items():
        a, b = _time_range(times[y], lo, hi)
        for z, ta, _uid in rows[y][a:b]:
            starts = look.get(z)
            if starts is None or z == skip:
                continue
            # the map spans [lo, hi] itself, so its stamps need no filter
            for ts in starts:
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
    looks: dict[tuple[bool, int], dict[int, list[int]]] | None = None,
    span: tuple[int, int] | None = None,
    from_upper: bool | None = None,
) -> list[int]:
    """Counts of butterflies containing e in which e.t is the strict extreme.

    As the minimum (as_max false) every other timestamp lies in
    (t, t + delta], as the maximum in [t - delta, t), so the span bound
    holds by construction.  The 2-paths over that range come from
    `_expansion`, with looks and span shared across a run or, when looks is
    None, fresh for this edge; each walked neighbour y's map meets the
    looked-up one in a C key intersection, hits kept inside the range.
    y's 2-paths are ranked against its edges to the walked endpoint, the
    pivots, which close a wedge (t, pivot), forward as the minimum and
    backward as the maximum.  Walking from u sees the butterflies from v, a
    lower start vertex, which flips the type index's low bit.  from_upper
    is passed to `_expansion`.
    """
    t = e.t
    lo, hi = (t - delta, t - 1) if as_max else (t + 1, t + delta)
    if looks is None:
        looks, span = {}, (lo, hi)
    acc = [0] * 6
    walk, look, rows, times, from_upper, skip = _expansion(g, e, lo, hi, looks, span, from_upper)
    for y, pivots in walk.items():
        # wedges endpoint-z-y: ts on the looked-up edge, ta on y's; sorted columns per direction
        fs, fa, bs, ba = [], [], [], []
        ymap = _row_map(looks, (not from_upper, y), rows[y], times[y], span)
        common = look.keys() & ymap.keys()
        common.discard(skip)
        for z in common:
            for ta in ymap[z]:
                if ta < lo or ta > hi:
                    continue
                for ts in look[z]:
                    if ts < lo or ts > hi:
                        continue
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
    counting phase is read-only on the graph.  Each batch is cut into runs
    by `_runs`; a run's edges share one neighbour map per vertex, looked up
    or walked, built on first use over the run's span.  Far ends come from
    intersecting two maps' keys in C, and each hit's stamps are filtered to
    the edge's range.  The maps die with the batch.  The edges are split into
    `workers` slices, each with its own accumulator and all sharing the
    runs' maps, reduced deterministically at the end; the slices run one
    after another on the calling thread.  Raises ValueError if live would
    go negative, which means it did not match the graph; the inserted edges
    are then removed again, so graph and live are left as they were.

    Returns the inserted edge records.
    """
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

    jobs = [(e, as_max, looks, span) for batch, as_max in ((deletions, False), (inserted, True))
            for run, looks, span in _runs(batch, delta, as_max) for e in run]
    removed = [0] * 6
    added = [0] * 6
    for k in range(workers):
        part_removed = [0] * 6
        part_added = [0] * 6
        for e, as_max, looks, span in jobs[k::workers]:
            part = _count_edge_extreme(g, delta, e, as_max, looks, span)
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
        self.delta = delta
        self.window = window
        self.stride = stride
        self.buffer: deque[TemporalEdge] = deque()
        self.live = CountVector.zeros()

    def advance_single(self, chunk: list[tuple[str, str, int]]) -> None:
        """Insert the chunk, count each new edge, then count and evict one edge at a time.

        The stream is chronological and a butterfly's stamps are distinct,
        so an inserted edge is the strict maximum of every butterfly it
        completes and the oldest live edge the strict minimum of every one
        it leaves: each is counted by its extreme alone, over a range that
        the chunk's later edges and the edges already evicted lie outside.
        Runs share maps as in `batch_update`.
        """
        g, delta, live, buffer = self.graph, self.delta, self.live, self.buffer
        inserted = [g.insert_edge(u, v, t) for u, v, t in chunk]
        for run, looks, span in _runs(inserted, delta, True):
            for e in run:
                live.add_(_count_edge_extreme(g, delta, e, True, looks, span))
        buffer.extend(inserted)
        evicted = [buffer[i] for i in range(len(buffer) - self.window)]
        for run, looks, span in _runs(evicted, delta, False):
            for e in run:
                removed = _count_edge_extreme(g, delta, e, False, looks, span)
                _check_live(live, [0] * 6, removed)
                live.sub_(removed)
                g.remove_edge(e)
                buffer.popleft()

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
