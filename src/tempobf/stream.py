"""Streaming maintenance of temporal butterfly counts over an edge stream.

A window sliding over a chronological stream gains a butterfly when its
newest edge (strict maximum stamp) arrives and loses it when its oldest
edge (strict minimum stamp) is evicted.  Both engines, `stbc` and `stbc+`,
run one step, `batch_update`, which counts both per wedge, not per
butterfly.  The window's live vector carries its kept wedges, `_Wedges`:
as in `count._end_buckets`, a wedge runs from a start vertex through a
middle to an end, both ranked below the start, on two edges with distinct
stamps at most delta apart, so every butterfly is one pair of wedges in
the end bucket of its top-ranked corner.  An inserted edge's new wedges
count their partners already kept, all older, and an evicted edge's
wedges their partners still kept, all newer: a pair counts when its
middles differ and its four stamps are distinct and span at most delta.
A bucket of up to `_SMALL_BUCKET` wedges tests each partner directly.
One that grows past it becomes a `_Swept` until it empties, which keeps
per wedge direction two views of (start, arrival) keys, each a
start-sorted and an arrival-sorted int list probed by four bisects as in
`count._twin_counts`:

- the insertion view drops starts below the newest stamp less delta,
  which no later edge can pair with; an inserted wedge [a, b] counts
  non-overlap #arrivals < a, covered #starts > a and intersecting
  #starts < a - #arrivals <= a;
- the eviction view admits wedges, in arrival order, up to the oldest
  stamp plus delta.  The oldest stamp only grows, so an admitted wedge
  pairs with every later evicted one, and an evicted wedge [a, b] counts
  covered #arrivals < b, non-overlap #starts > b and intersecting
  #starts < b - #arrivals <= b.

Same-middle partners, from parallel edges, are subtracted through the
bucket's middle -> wedges map, and the few partners that share the
probing edge's stamp, at the arrival end of an insertion view or the
start end of an eviction view, are taken back.  The ranking is frozen
between rebuilds: vertices rank by first appearance, earliest highest,
and a vertex first seen after a rebuild ranks below all, the latest
lowest.  Any injective ranking counts exactly; only the cost depends on
it.  A vertex that becomes a hub after it was ranked, as a newcomer or as
a former leaf, is the middle of every pair of its in-delta edges, so
`SlidingWindow` rebuilds its wedges under `compute_vertex_priority` of
the window once they outnumber both the window and twice what its last
rebuild kept.  A rebuild files every edge's wedges and counts no pair.
A per-vertex count of window edges to higher-ranked neighbours skips the
rows that yield no wedge, and a set of the edges that are the older edge
of a kept wedge skips the rest of the evictions.  A plain live vector
gets a throwaway `_Wedges` built the same way.  Every step evicts first:
the evictions are counted on the graph as given and live is checked
before anything changes, then the evicted edges leave and the chunk goes
in, so a butterfly that enters and leaves within one step is counted in
neither.  Steps run serially in the calling process: the counting is
pure Python, so threads would only contend for the interpreter lock, and
`workers` is checked but changes nothing.

Against the per-butterfly counter this replaced (shared 2-CPU host,
medians of 7 alternating pairs of in-process passes): a `skew-stream`
pass (20k edges, window 5000, stride 125, delta 20000) takes 0.75x the
time, 0.33 s; the W2 stream (40k edges, window 10000, stride 500) 0.47x
at delta 20000, 1.56 s.  Two regimes are slower: W2 at delta 2000,
1.16-1.41x, where few butterflies share a wedge and evicted edges' row
reads are new work, and `skew-stream`'s input with its upper ids renamed
every 2,500 edges, 1.23x, which rebuilds its wedges 8 times.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from itertools import islice, repeat
from operator import itemgetter
from typing import Callable, Iterable

from .count import _SMALL_BUCKET, CountVector, _pair_tally
from .graph import TemporalBipartiteGraph, TemporalEdge, _check_token, _stamp, compute_vertex_priority

__all__ = [
    "StreamOrderError",
    "batch_update",
    "SlidingWindow",
    "run_sliding_window",
]

EmissionSink = Callable[[int, int, int, CountVector], None]


class StreamOrderError(ValueError):
    """Raised when a stream edge arrives out of chronological order."""


# --- per-wedge window state ---------------------------------------------------
#
# A wedge is (t1, t2, middle): t1 the stamp of its edge to the start, t2 of
# its edge to the end.  It runs forward when t1 < t2; its start is the lower
# stamp and its arrival the higher.  A bucket key packs (start, end, layer
# bit of the start) for ids below 2**32.  count._pair_tally tallies a wedge
# against a list in place by type index: shape 0 non-overlap, 1 intersecting,
# 2 covering, plus 3 for opposite directions, xor the layer bit.


class _Swept:
    """A large bucket: its wedges by middle and, per direction, its two views as sorted key lists.

    views[d] holds, for the wedges of direction d (1: backward), the
    insertion view's start keys and arrival keys, the eviction view's start
    keys and arrival keys, and the arrival keys of wedges not yet admitted
    to the eviction view.  With m = delta + 1 and off = arrival - start in
    1..delta, a start key is start * m + off and an arrival key arrival *
    m + off, so each list sorts by its stamp and a key decodes to both.
    """

    __slots__ = ("n", "mids", "views")

    def __init__(self, wedges: list[tuple], m: int) -> None:
        self.n = len(wedges)
        self.mids: dict[int, list[tuple]] = {}
        self.views = ([[], [], [], [], []], [[], [], [], [], []])
        for w in wedges:
            self.mids.setdefault(w[2], []).append(w)
            self._add(w, m)

    def _add(self, w: tuple, m: int) -> None:
        """File w in its direction's insertion view and pending list; a probe expires or admits it."""
        t1, t2, _ = w
        i_starts, i_arrivals, _, _, pending = self.views[t1 > t2]
        a, b = (t1, t2) if t1 < t2 else (t2, t1)
        off = b - a
        insort(i_starts, a * m + off)
        insort(i_arrivals, b * m + off)
        insort(pending, b * m + off)

    def inserted(self, w: tuple, t: int, delta: int, layer: int, acc: list[int]) -> None:
        """Count w's partners, every one older, in the insertion views, then file w; t is its arrival."""
        m = delta + 1
        t1, t2, mid = w
        a = t1 if t1 < t2 else t2
        cut, xa, xt = (t - delta) * m, a * m, t * m
        xa1 = xa + m
        for k, view in ((0, self.views[t1 > t2]), (3, self.views[t1 < t2])):
            starts, arrivals = view[0], view[1]
            if starts and starts[0] < cut:
                # starts below t - delta can pair with nothing from now on
                j = bisect_left(starts, cut)
                for key in starts[:j]:
                    s, off = divmod(key, m)
                    del arrivals[bisect_left(arrivals, (s + off) * m + off)]
                del starts[:j]
            if not starts:
                continue
            non = bisect_left(arrivals, xa)
            cov = len(starts) - bisect_left(starts, xa1)
            inter = bisect_left(starts, xa) - bisect_left(arrivals, xa1)
            j = bisect_left(arrivals, xt)
            # partners arriving at t share w's newest stamp
            for key in arrivals[j:]:
                s = t - key % m
                if s > a:
                    cov -= 1
                elif s < a:
                    inter -= 1
            acc[k ^ layer] += non
            acc[(k + 1) ^ layer] += inter
            acc[(k + 2) ^ layer] += cov
        same = self.mids.get(mid)
        if same:
            # a wedge with no middle meets every same-middle partner
            _pair_tally((t1, t2, None), same, delta, layer, acc, -1)
            same.append(w)
        else:
            self.mids[mid] = [w]
        self._add(w, m)
        self.n += 1

    def evicted(self, w: tuple, delta: int, layer: int, acc: list[int]) -> None:
        """Count w's partners, every one newer, in the eviction views, then drop w; w's start is the oldest stamp."""
        m = delta + 1
        t1, t2, mid = w
        a, b = (t1, t2) if t1 < t2 else (t2, t1)
        lim, xb = (a + delta + 1) * m, b * m
        xb1, xa1 = xb + m, (a + 1) * m
        for k, view in ((0, self.views[t1 > t2]), (3, self.views[t1 < t2])):
            _, _, starts, arrivals, pending = view
            if pending and pending[0] < lim:
                # every stamp is at least a, so arrivals up to a + delta span at most delta
                j = bisect_left(pending, lim)
                for key in pending[:j]:
                    s, off = divmod(key, m)
                    insort(starts, (s - off) * m + off)
                    insort(arrivals, key)
                del pending[:j]
            if not starts:
                continue
            cov = bisect_left(arrivals, xb)
            non = len(starts) - bisect_left(starts, xb1)
            inter = bisect_left(starts, xb) - bisect_left(arrivals, xb1)
            # partners starting at a share w's oldest stamp; w itself is one and needs nothing
            for key in starts[:bisect_left(starts, xa1)]:
                s = a + key % m
                if s < b:
                    cov -= 1
                elif s > b:
                    inter -= 1
            acc[k ^ layer] += non
            acc[(k + 1) ^ layer] += inter
            acc[(k + 2) ^ layer] += cov
        same = self.mids[mid]
        if len(same) > 1:
            same.remove(w)
            _pair_tally((t1, t2, None), same, delta, layer, acc, -1)
        else:
            del self.mids[mid]
        view = self.views[t1 > t2]
        off = b - a
        for starts, arrivals in ((view[0], view[1]), (view[2], view[3])):
            j = bisect_left(starts, a * m + off)
            # an insertion view may have dropped w, and every wedge with its key with it
            if j < len(starts) and starts[j] == a * m + off:
                del starts[j], arrivals[bisect_left(arrivals, xb + off)]
        self.n -= 1


class _Wedges:
    """A graph's kept wedges in end buckets, under a frozen ranking of its vertices.

    ranks holds one rank per upper and per lower vertex, distinct across
    both layers; a vertex first seen after the build ranks low, which then
    falls by one.  above holds, per vertex, its window edges to
    higher-ranked neighbours.  buckets maps a bucket key to its one wedge,
    a list of its wedges or, once it has held more than _SMALL_BUCKET, a
    _Swept until it empties.  olds holds the uid of every edge that is the
    older edge of a kept wedge, and n the number of kept wedges.
    """

    __slots__ = ("delta", "ranks", "low", "above", "buckets", "olds", "n")

    def __init__(self, g: TemporalBipartiteGraph, delta: int, ranks: tuple[list[int], list[int]] | None = None, low: int = 0) -> None:
        """File g's wedges under ranks, or under compute_vertex_priority(g) when ranks is None, counting no pair."""
        if ranks is None:
            priority = compute_vertex_priority(g)
            ranks = (priority.upper, priority.lower)
        self.delta, self.ranks, self.low = delta, ranks, low
        ru, rl = ranks
        self.above = au, al = [0] * len(ru), [0] * len(rl)
        self.olds: set[int] = set()
        for u, row in enumerate(g.upper_adj):
            for v, _, _ in row:
                if ru[u] > rl[v]:
                    al[v] += 1
                else:
                    au[u] += 1
        # each edge files the wedges it is the newer edge of; nothing is counted
        filed: dict[int, list[tuple]] = {}
        for u, row in enumerate(g.upper_adj):
            for v, t, _ in row:
                for key, w, uid in self._of(g, u, v, t, t - delta, t - 1):
                    self.olds.add(uid)
                    filed.setdefault(key, []).append(w)
        self.n = sum(map(len, filed.values()))
        self.buckets: dict[int, tuple | list | _Swept] = {
            key: ws[0] if len(ws) == 1 else ws if len(ws) <= _SMALL_BUCKET else _Swept(ws, delta + 1)
            for key, ws in filed.items()
        }

    def _of(self, g: TemporalBipartiteGraph, u: int, v: int, t: int, lo: int, hi: int) -> list[tuple[int, tuple, int]]:
        """(bucket key, wedge, other edge's uid) of each kept wedge holding edge (u, v, t) whose other edge's stamp is in [lo, hi].

        The lower-ranked endpoint's row gives every wedge it is the middle
        of.  The higher-ranked endpoint is a middle only below a start
        ranked above it, so its row is read only when it has a window edge
        to a higher-ranked neighbour.
        """
        ru, rl = self.ranks
        rx, ry = ru[u], rl[v]
        out = []
        if rx > ry:
            times = g.lower_times[v]
            i = bisect_left(times, lo)
            j = bisect_right(times, hi, i)
            if i < j:
                for z, t2, uid in g.lower_adj[v][i:j]:
                    rz = ru[z]
                    if rz < rx:
                        out.append(((u << 32 | z) << 1, (t, t2, v), uid))
                    elif rz > rx:
                        out.append(((z << 32 | u) << 1, (t2, t, v), uid))
            if self.above[0][u]:
                times = g.upper_times[u]
                i = bisect_left(times, lo)
                for w, t1, uid in g.upper_adj[u][i:bisect_right(times, hi, i)]:
                    if rl[w] > rx:
                        out.append(((w << 32 | v) << 1 | 1, (t1, t, u), uid))
        else:
            times = g.upper_times[u]
            i = bisect_left(times, lo)
            j = bisect_right(times, hi, i)
            if i < j:
                for w, t2, uid in g.upper_adj[u][i:j]:
                    rw = rl[w]
                    if rw < ry:
                        out.append(((v << 32 | w) << 1 | 1, (t, t2, u), uid))
                    elif rw > ry:
                        out.append(((w << 32 | v) << 1 | 1, (t2, t, u), uid))
            if self.above[1][v]:
                times = g.lower_times[v]
                i = bisect_left(times, lo)
                for z, t1, uid in g.lower_adj[v][i:bisect_right(times, hi, i)]:
                    if ru[z] > ry:
                        out.append(((z << 32 | u) << 1, (t1, t, v), uid))
        return out

    def evict(self, g: TemporalBipartiteGraph, edges: list[TemporalEdge]) -> list[int]:
        """Drop the wedges of an oldest prefix of g's edges, still in g, and return the butterflies they held.

        Each edge's wedges pair with the wedges still kept, all newer; a
        wedge of two evicted edges goes with the older one.
        """
        delta, buckets = self.delta, self.buckets
        ru, rl = self.ranks
        au, al = self.above
        acc = [0] * 6
        olds = self.olds
        for u, v, t, uid in edges:
            if ru[u] > rl[v]:
                al[v] -= 1
            else:
                au[u] -= 1
            if uid not in olds:
                continue
            olds.discard(uid)
            found = self._of(g, u, v, t, t + 1, t + delta)
            self.n -= len(found)
            for key, w, _ in found:
                bucket = buckets[key]
                if type(bucket) is tuple:
                    # w alone
                    del buckets[key]
                elif type(bucket) is list:
                    bucket.remove(w)
                    _pair_tally(w, bucket, delta, key & 1, acc)
                    if len(bucket) == 1:
                        buckets[key] = bucket[0]
                else:
                    bucket.evicted(w, delta, key & 1, acc)
                    if not bucket.n:
                        del buckets[key]
        return acc

    def insert(self, g: TemporalBipartiteGraph, edges: list[TemporalEdge]) -> list[int]:
        """Add the wedges of the newest edges of g, in stream order, and return the butterflies they close."""
        delta, buckets, small, m = self.delta, self.buckets, _SMALL_BUCKET, self.delta + 1
        ru, rl = self.ranks
        au, al = self.above
        olds = self.olds
        acc = [0] * 6
        for u, v, t, _ in edges:
            if u == len(ru):
                ru.append(self.low)
                au.append(0)
                self.low -= 1
            if v == len(rl):
                rl.append(self.low)
                al.append(0)
                self.low -= 1
            if ru[u] > rl[v]:
                al[v] += 1
            else:
                au[u] += 1
            found = self._of(g, u, v, t, t - delta, t - 1)
            self.n += len(found)
            for key, w, uid in found:
                olds.add(uid)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = w
                    continue
                if type(bucket) is tuple:
                    bucket = buckets[key] = [bucket]
                if type(bucket) is list:
                    _pair_tally(w, bucket, delta, key & 1, acc)
                    bucket.append(w)
                    if len(bucket) > small:
                        buckets[key] = _Swept(bucket, m)
                else:
                    bucket.inserted(w, t, delta, key & 1, acc)
        return acc


class _Live(CountVector):
    """Live counts plus the window's kept wedges; copies are plain."""

    __slots__ = ("wedges",)

    def __init__(self, wedges: _Wedges) -> None:
        super().__init__()
        self.wedges = wedges


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
    checked first, a timestamp suffix of the stream.  The wedges come from
    a window's live vector, which must hold g's wedges at this delta, or,
    on a plain one, from a throwaway build over g ranked by
    compute_vertex_priority: a plain call reads every edge's wedges and
    files them, counting no pair, before its step.  The
    deleted edges' wedges count the butterflies they lose on the graph as
    given, and live - removed is checked before the graph changes.  Then
    the deletions leave, the insertions enter, and each inserted edge's
    wedges count the butterflies it is the newest edge of.  A butterfly
    holding a deleted and an inserted edge is in neither stats["added"]
    nor stats["removed"].  The step runs serially on this thread; workers
    must be positive and changes nothing else.  Raises ValueError, leaving
    graph and live as they were, if delta is negative or not the live
    wedges', if workers is not positive, if a batch is malformed or if
    live would go negative, which means it did not match the graph.

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
    if isinstance(live, _Live):
        state = live.wedges
        if state.delta != delta:
            raise ValueError(f"the live vector's wedges were kept for delta {state.delta}, not {delta}")
    else:
        state = _Wedges(g, delta)
    removed = state.evict(g, deletions)
    after = [c - r for c, r in zip(live, removed)]
    if any(c < 0 for c in after):
        if isinstance(live, _Live):
            # the graph is untouched, so its wedges rebuild as they were, under the same ranking
            live.wedges = _Wedges(g, delta, state.ranks, state.low)
        raise ValueError(f"live counts would go negative: {after}; they did not match the graph")
    for e in deletions:
        g.remove_edge(e)
    live.sub_(removed)
    inserted = [g.insert_edge(u, v, t) for u, v, t in insertions]
    added = state.insert(g, inserted)
    live.add_(added)
    if stats is not None:
        stats["removed"] = CountVector(removed)
        stats["added"] = CountVector(added)
    return inserted


# --- sliding-window driver --------------------------------------------------


class SlidingWindow:
    """Most recent `window` stream edges plus their live butterfly counts and kept wedges.

    Each `advance_batch` takes a chunk of any size up to the window; the
    stride is the driver's, checked by `run_sliding_window`.  After a step
    that leaves more kept wedges than cap, the wedges are rebuilt under
    the window's own vertex priority, and cap becomes the larger of the
    window and twice the wedges the rebuild kept.
    """

    __slots__ = ("graph", "delta", "window", "buffer", "live", "cap")

    def __init__(self, delta: int, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.graph = TemporalBipartiteGraph()
        self.delta = delta
        self.window = window
        self.buffer: deque[TemporalEdge] = deque()
        self.live: CountVector = _Live(_Wedges(self.graph, delta))
        self.cap = window

    def advance_batch(self, chunk: list[tuple[str, str, int]], workers: int = 1) -> None:
        """Evict down to capacity and insert the chunk in one `batch_update` step, run serially; workers is checked there."""
        if len(chunk) > self.window:
            raise ValueError(f"chunk of {len(chunk)} edges does not fit a window of {self.window}")
        deletions = list(islice(self.buffer, max(0, len(self.buffer) + len(chunk) - self.window)))
        inserted = batch_update(self.graph, self.delta, deletions, chunk, self.live, workers)
        for _ in deletions:
            self.buffer.popleft()
        self.buffer.extend(inserted)
        live = self.live
        if isinstance(live, _Live) and live.wedges.n > self.cap:
            # dropped first, so the old wedges and the new never coexist
            live.wedges = None
            live.wedges = _Wedges(self.graph, self.delta)
            self.cap = max(self.window, 2 * live.wedges.n)

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
