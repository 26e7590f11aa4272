"""Streaming maintenance of temporal butterfly counts over an edge stream.

A window sliding over a chronological stream gains a butterfly when its
newest edge (strict maximum stamp) arrives and loses it when its oldest
edge (strict minimum stamp) is evicted.  So each inserted edge counts the
butterflies it is the newest edge of and files each under its oldest edge's
uid, in per-edge tallies that the window's live vector carries; an evicted
edge pops its tally and walks nothing.  Both engines, `stbc` and `stbc+`,
run one step, `batch_update`: sum the evicted edges' tallies, check that
live stays non-negative, remove the evicted edges, then insert the chunk
and count it on the new graph, so a butterfly that enters and leaves within
one step is counted in neither.  A live vector without tallies counts each
deletion instead, as the oldest edge of its butterflies on the graph before
the step.  One per-edge counter, `_count_edge_extreme`, does all the
counting: it expands an edge's 2-paths through the endpoint with fewer
edges in its time range, the degree-priority idea of vertex-priority
butterfly counting; a batch is cut into runs of stamps within delta of the
run's first, each vertex's neighbour map is built once per run, and the far
ends that close a 2-path come from a C intersection of two maps' keys.
Every step runs serially in the calling process: the counting is pure
Python, so threads would only contend for the interpreter lock, and
`workers` is checked but changes nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from itertools import islice, repeat
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator

from .count import CountVector
from .graph import TemporalBipartiteGraph, TemporalEdge, _check_token, _stamp

__all__ = [
    "StreamOrderError",
    "batch_update",
    "SlidingWindow",
    "run_sliding_window",
]

EmissionSink = Callable[[int, int, int, CountVector], None]

Entry = tuple[int, int, int]


class StreamOrderError(ValueError):
    """Raised when a stream edge arrives out of chronological order."""


def _time_range(times: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Index range of a row's entries with lo <= t <= hi, from its timestamp array."""
    return bisect_left(times, lo), bisect_right(times, hi)


def _row_map(looks: dict, key: tuple[bool, int], row: list[Entry], times: list[int], span: tuple[int, int]) -> dict[int, list[Entry]]:
    """Vertex key = (is upper, id)'s neighbour -> (neighbour, t, uid) entries over span, built in looks on first use."""
    m = looks.get(key)
    if m is None:
        m = looks[key] = {}
        a, b = _time_range(times, *span)
        for ent in row[a:b]:
            m.setdefault(ent[0], []).append(ent)
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


# --- window step ------------------------------------------------------------

# Type by (e is the maximum, walked through u), the partner wedge's direction
# (forward, backward) and the pivot's place against its stamps (below,
# between, above).  e's wedge runs forward as the minimum, backward as the
# maximum; walking from u sees the butterfly from v, a lower start vertex.
_KINDS = {
    (as_max, from_upper): tuple(tuple(k ^ from_upper for k in ks) for ks in kinds)
    for as_max, kinds in ((False, ((0, 1, 2), (3, 4, 5))), (True, ((5, 4, 3), (2, 1, 0))))
    for from_upper in (False, True)
}


def _count_edge_extreme(
    g: TemporalBipartiteGraph,
    delta: int,
    e: TemporalEdge,
    as_max: bool,
    looks: dict[tuple[bool, int], dict[int, list[Entry]]] | None = None,
    span: tuple[int, int] | None = None,
    from_upper: bool | None = None,
    tallies: defaultdict[int, list[int]] | None = None,
) -> list[int]:
    """Counts of butterflies containing e = (u, v, t) in which t is the strict extreme.

    As the minimum (as_max false) every other stamp lies in (t, t + delta],
    as the maximum in [t - delta, t), so the span bound holds by
    construction.  The 2-paths u-x-w-v are expanded through the endpoint
    with fewer edges in that range (u on a tie) unless from_upper forces
    the direction (true: through u), so that tests can run both.  The walked
    endpoint's in-range neighbours but the other endpoint map to its edges
    to them; the other endpoint's map and each walked neighbour y's come
    from `_row_map` over span, in looks, which a run shares, or, when looks
    is None, fresh for this edge over the range itself.  A shared map may
    hold the walked endpoint and stamps outside the range, which are
    dropped here.  y's map meets the looked-up one in a C key intersection,
    which gives y's partner wedges.  Each of y's edges to the walked
    endpoint, a pivot, closes a butterfly with each partner whose stamps it
    does not equal, and whether it lies below, between or above them picks
    the type.  With tallies, each butterfly is also added to its oldest
    edge's tally, the pivot's when it lies below, else the partner's older
    edge's.
    """
    u, v, t, _ = e
    lo, hi = (t - delta, t - 1) if as_max else (t + 1, t + delta)
    if looks is None:
        looks, span = {}, (lo, hi)
    acc = [0] * 6
    ulo, uhi = _time_range(g.upper_times[u], lo, hi)
    vlo, vhi = _time_range(g.lower_times[v], lo, hi)
    if from_upper is None:
        from_upper = uhi - ulo <= vhi - vlo
    if from_upper:
        skip, other, walked, rows, times = u, v, g.upper_adj[u][ulo:uhi], g.lower_adj, g.lower_times
    else:
        skip, other, walked, rows, times = v, u, g.lower_adj[v][vlo:vhi], g.upper_adj, g.upper_times
    walk: dict[int, list[Entry]] = {}
    for ent in walked:
        if ent[0] != other:
            walk.setdefault(ent[0], []).append(ent)
    if not walk:
        return acc
    look = _row_map(looks, (not from_upper, other), rows[other], times[other], span)
    forward, backward = _KINDS[as_max, from_upper]
    for y, pivots in walk.items():
        # partner wedges endpoint-z-y: ts on the looked-up edge, ta on y's
        ymap = _row_map(looks, (not from_upper, y), rows[y], times[y], span)
        common = look.keys() & ymap.keys()
        common.discard(skip)
        for z in common:
            for _z, ta, ua in ymap[z]:
                if ta < lo or ta > hi:
                    continue
                for _y, ts, us in look[z]:
                    if lo <= ts < ta:
                        a, b, kinds, older = ts, ta, forward, us
                    elif ta < ts <= hi:
                        a, b, kinds, older = ta, ts, backward, ua
                    else:
                        continue
                    for _x, p, up in pivots:
                        if p < a:
                            k, oldest = kinds[0], up
                        elif p > b:
                            k, oldest = kinds[2], older
                        elif p != a and p != b:
                            k, oldest = kinds[1], older
                        else:
                            continue
                        acc[k] += 1
                        if tallies is not None:
                            tallies[oldest][k] += 1
    return acc


class _Tallied(CountVector):
    """Live counts plus, per live edge uid, those of the butterflies whose oldest edge it is; copies are plain."""

    __slots__ = ("tallies",)

    def __init__(self) -> None:
        super().__init__()
        self.tallies: defaultdict[int, list[int]] = defaultdict(lambda: [0] * 6)


def _count_batch(g: TemporalBipartiteGraph, delta: int, edges: list, as_max: bool, tallies=None) -> list[int]:
    """Summed `_count_edge_extreme` counts of a chronological batch, cut into runs."""
    total = [0] * 6
    for run, looks, span in _runs(edges, delta, as_max):
        for e in run:
            total = list(map(add, total, _count_edge_extreme(g, delta, e, as_max, looks, span, tallies=tallies)))
    return total


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
    the insertion batch, its stamps read as ints and its vertex tokens
    checked first, a timestamp suffix of the stream.  The deleted edges'
    butterflies are their tallies on a window's live vector or, on a plain
    one, those each is the oldest edge of on the graph as given; live -
    removed is checked before the graph changes.  Then the deletions leave,
    the insertions enter, and each counts the butterflies it is the newest
    edge of on the new graph, tallied under their oldest edges.  A
    butterfly holding a deleted and an inserted edge is in neither
    stats["added"] nor stats["removed"].  Each counted batch is cut into
    runs sharing neighbour maps (see `_runs`) and counted serially on this
    thread; workers must be positive and changes nothing else.  Raises
    ValueError, leaving graph and live as they were, if delta is negative,
    if workers is not positive, if a batch is malformed or if live would go
    negative, which means it did not match the graph.

    Returns the inserted edge records.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    insertions = [(u, v, t if type(t) is int else _stamp(t)) for u, v, t in insertions]
    up, lo = g._upper_ids, g._lower_ids
    for u, v, _t in insertions:
        if u not in up:
            _check_token(str(u))
        if v not in lo:
            _check_token(str(v))
    for batch, what in ((deletions, "deletion"), (insertions, "insertion")):
        ts = [e[2] for e in batch]
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
    tallies = live.tallies if isinstance(live, _Tallied) else None
    if tallies is None:
        removed = _count_batch(g, delta, deletions, False)
    else:
        lost = [tallies[e.uid] for e in deletions if e.uid in tallies]
        removed = [sum(col) for col in zip([0] * 6, *lost)]
    after = [c - r for c, r in zip(live, removed)]
    if any(c < 0 for c in after):
        raise ValueError(f"live counts would go negative: {after}; they did not match the graph")
    for e in deletions:
        g.remove_edge(e)
        if tallies is not None:
            tallies.pop(e.uid, None)
    live.sub_(removed)
    inserted = [g.insert_edge(u, v, t) for u, v, t in insertions]
    added = _count_batch(g, delta, inserted, True, tallies)
    live.add_(added)
    if stats is not None:
        stats["removed"] = CountVector(removed)
        stats["added"] = CountVector(added)
    return inserted


# --- sliding-window driver --------------------------------------------------


class SlidingWindow:
    """Most recent `window` stream edges plus their live butterfly counts and per-edge tallies.

    Each `advance_batch` takes a chunk of any size up to the window; the
    stride is the driver's, checked by `run_sliding_window`.
    """

    __slots__ = ("graph", "delta", "window", "buffer", "live")

    def __init__(self, delta: int, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.graph = TemporalBipartiteGraph()
        self.delta = delta
        self.window = window
        self.buffer: deque[TemporalEdge] = deque()
        self.live: CountVector = _Tallied()

    def advance_batch(self, chunk: list[tuple[str, str, int]], workers: int = 1) -> None:
        """Evict down to capacity and insert the chunk in one `batch_update` step, run serially; workers is checked there."""
        if len(chunk) > self.window:
            raise ValueError(f"chunk of {len(chunk)} edges does not fit a window of {self.window}")
        deletions = list(islice(self.buffer, max(0, len(self.buffer) + len(chunk) - self.window)))
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
    short).  Each step evicts down to the window capacity, inserts its
    chunk, and emits (step index, oldest t, newest t, live counts) to the
    sink; the fill phase emits too.  Both engines, "stbc" and "stbc+", take
    each step through one `batch_update`, so they emit the same windows,
    and every step runs serially: workers must be positive and changes
    nothing else.  The worker count and the stride, which must lie in
    1..window, are checked before any step.  Each stamp is read as an int,
    as the graph reads it, before its order is checked; a stream that goes
    backward in time raises StreamOrderError naming the edge.
    """
    if engine not in ("stbc", "stbc+"):
        raise ValueError(f"unknown streaming engine {engine!r}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if window < stride:
        raise ValueError(f"window ({window}) must be at least the stride ({stride})")
    win = SlidingWindow(delta, window)
    step = 0
    last_t: int | None = None
    chunk: list[tuple[str, str, int]] = []

    def flush() -> None:
        nonlocal step, chunk
        win.advance_batch(chunk, workers)
        if sink is not None:
            start_t, end_t = win.bounds()
            sink(step, start_t, end_t, win.live.copy())
        step += 1
        chunk = []

    for u, v, t in source:
        if type(t) is not int:
            t = _stamp(t)
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
