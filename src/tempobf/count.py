"""Exact counting of the six temporal butterfly types.

A temporal butterfly is four temporal edges on two upper and two lower
vertices whose vertex pairs form a 2x2 biclique, whose four timestamps are
pairwise distinct, and whose timestamp span is at most delta (inclusive).
Decomposed from one corner, it is a pair of temporal wedges sharing their
start and end vertices with distinct middles; the type in 0..5 encodes how
the two wedge intervals relate (disjoint, intersecting, one covering the
other) and whether the wedges run in the same direction.

Three engines share one answer:

- count_baseline groups wedges per end vertex and tests every pair.
- count_optimized prunes dead wedges and tests each pair of a small end
  bucket as count_baseline does: most hold too few wedges to repay
  indexes.  A larger bucket becomes one start-sorted list of wedges with a
  direction flag and is swept once in wedge priority (start timestamp
  descending, arrival ascending), in one fused loop, _timestamp_counts,
  that keeps candidate wedges in per-start-timestamp buckets of arrival
  lists.  The sweep counts every pair of the end bucket; the same sweep
  over each middle's own wedges counts the same-middle pairs, which come
  from parallel edges and are never butterflies, and is subtracted.  This
  replaces the paper's mergesort-style recursion over per-middle subsets,
  which re-indexed and re-probed every wedge at each of its log k merge
  levels.
- count_extreme is the same with the sweep's buckets replaced by twin
  sorted lists of plain ints, so each probe is four C bisects instead of a
  walk over every live start timestamp.  The lists are stored negated, so
  the sweep's inserts land at their tail.  Its fused loop, _twin_counts,
  inlines the bisects and keeps the tallies in locals until the bucket
  ends.  enumerate_optimized sweeps the same list in the same rounds,
  keeping one sorted list of entries per direction, and takes each match
  from the wedge its entry carries.

Small buckets are paired by one kernel, _pair_tally, behind every engine
and the stream's window steps: it tests a wedge against a list, reading
each pair's type inline as classify_type defines it, and tallies in place.

All engines take their wedges from one walk, _end_buckets, over the time
rows every graph keeps.  It reads each start vertex's row and skips
neighbors that do not rank below the start vertex; on each middle vertex
it reads only the slice of its row inside the delta window around the
first edge's stamp, bisected from the row's int stamps, and skips ends
that do not rank below the start.  Wedges thus run only toward strictly
lower-priority middle and end vertices, so each butterfly is seen exactly
once, from its max-priority corner; any injective ranking does, so a
priority computed before the graph last changed still counts exactly, as
long as it ranks every vertex.  The walk reads whole rows, unbisected, when
all the graph's stamps fit in one delta span, as each engine call checks
once.  Only ends with two or more wedges leave the walk: a bucket of three
or more when it holds two middles, a bucket of two only when its one pair
is a butterfly.  count_baseline asks the walk to keep dead wedges as well,
so it reads each middle's whole row; the others drop them on sight.  In
that raw mode every bucket with two middles leaves the walk, two-wedge
ones too, so every distinct-middle pair is examined.  count_sampled
counts an edge sample with count_extreme, under the caller's priority,
and rescales, giving unbiased estimates.  All but count_baseline count
on the fork pool of _pool, each process summing the chunks it claims.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ._pool import _END, _processes, _run_pool
from .graph import TemporalBipartiteGraph, VertexPriority

__all__ = [
    "CountVector",
    "classify_type",
    "count_baseline",
    "count_optimized",
    "count_extreme",
    "count_sampled",
]


class CountVector:
    """Six per-type tallies; component-wise arithmetic, list-like access."""

    __slots__ = ("counts",)

    def __init__(self, counts: Iterable[int | float] | None = None) -> None:
        self.counts = [0, 0, 0, 0, 0, 0] if counts is None else list(counts)
        if len(self.counts) != 6:
            raise ValueError("a count vector has exactly six components")

    @classmethod
    def zeros(cls) -> "CountVector":
        return cls()

    def __getitem__(self, i: int) -> int | float:
        return self.counts[i]

    def __setitem__(self, i: int, value: int | float) -> None:
        self.counts[i] = value

    def __iter__(self) -> Iterator[int | float]:
        return iter(self.counts)

    def __len__(self) -> int:
        return 6

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CountVector):
            return self.counts == other.counts
        if isinstance(other, (list, tuple)):
            return self.counts == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"CountVector({self.counts!r})"

    def __add__(self, other: "CountVector") -> "CountVector":
        return CountVector(a + b for a, b in zip(self.counts, other.counts))

    def __sub__(self, other: "CountVector") -> "CountVector":
        return CountVector(a - b for a, b in zip(self.counts, other.counts))

    def add_(self, other: "CountVector | Sequence[int]") -> None:
        for i in range(6):
            self.counts[i] += other[i]

    def sub_(self, other: "CountVector | Sequence[int]") -> None:
        for i in range(6):
            self.counts[i] -= other[i]

    def scaled(self, factor: float) -> "CountVector":
        return CountVector(c * factor for c in self.counts)

    def copy(self) -> "CountVector":
        return CountVector(self.counts)

    def total(self) -> int | float:
        return sum(self.counts)

    def as_dict(self) -> dict[str, int | float]:
        return {f"T{i}": c for i, c in enumerate(self.counts)}


def classify_type(w1: tuple[int, int], w2: tuple[int, int], start_in_upper: bool) -> int:
    """Type in 0..5 of the butterfly formed by two wedges off one start vertex.

    Each wedge is its raw (start-edge timestamp, arrival-edge timestamp) pair;
    the wedge runs forward when the start edge is earlier.  The relation of
    the two closed timestamp intervals picks non-overlap, intersecting, or
    covering; same-direction pairs map to types {0, 1, 2} and mixed-direction
    pairs to {3, 4, 5}, all xor 1 when the shared start vertex is in the
    lower layer.  The four timestamps must be pairwise distinct.
    """
    a1, b1 = w1
    a2, b2 = w2
    if len({a1, b1, a2, b2}) != 4:
        raise ValueError("butterfly timestamps must be pairwise distinct")
    lo1, hi1 = (a1, b1) if a1 < b1 else (b1, a1)
    lo2, hi2 = (a2, b2) if a2 < b2 else (b2, a2)
    if hi1 < lo2 or hi2 < lo1:
        shape = 0
    elif (lo1 < lo2 and hi2 < hi1) or (lo2 < lo1 and hi1 < hi2):
        shape = 2
    else:
        shape = 1
    if (a1 < b1) != (a2 < b2):
        shape += 3
    return shape if start_in_upper else shape ^ 1


# --- end-bucket sweeps -------------------------------------------------------
#
# Normalized wedges are (t_s, backward, t_a) with t_s < t_a <= t_s + delta;
# a backward wedge stores its two timestamps swapped and sets the flag.  One
# list holds a bucket's wedges of both directions, sorted ascending; wedge
# priority sorts by t_s descending, then t_a ascending, and sweeps consume
# the list from the end, which visits start timestamps in that order.
#
# Every sweep (_timestamp_counts, _twin_counts and enumeration's
# _emit_swept) runs in rounds of equal start timestamp, largest first.  A
# round first expires live wedges whose arrival exceeds round start + delta
# (they can never again share a span with anything left), then probes the
# round's wedges, each against its own direction's live wedges and the
# other direction's, picked by its flag, and only then makes them live;
# wedges sharing a start timestamp therefore never pair with each other.
# Everything a probe sees lies fully inside [round start, round start +
# delta], so no span check is needed at match time.  Against the probing
# wedge's arrival, the pivot, a live wedge starting after the pivot is
# non-overlap, one arriving after it but starting before it intersecting,
# one arriving before it covered; a stamp at the pivot is shared, never a
# butterfly.


def _timestamp_counts(wedges: list, delta: int, acc: list[int], layer: int) -> None:
    """Add every pair of a bucket's normalized wedges to acc: the sweep's rounds over start buckets.

    Each direction keeps its live wedges in a dict from start timestamp to
    that start's arrivals, ascending.  A probe walks every live start: one
    after the pivot matches whole, one before it is split around the pivot
    by two bisects.  The tallies stay in six locals until the bucket ends.
    """
    lives: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    # a wedge's (same, other) live wedges, by its backward flag
    sides = (lives, lives[::-1])
    s_non = s_int = s_cov = d_non = d_int = d_cov = 0
    i = len(wedges)
    while i:
        ts = wedges[i - 1][0]
        bound = ts + delta
        for live in lives:
            dead = []
            # a live start's list is never empty, so its last arrival says whether any expire
            for start, arrivals in live.items():
                if arrivals[-1] > bound:
                    while arrivals and arrivals[-1] > bound:
                        arrivals.pop()
                    if not arrivals:
                        dead.append(start)
            for start in dead:
                del live[start]
        a = i - 1
        while a and wedges[a - 1][0] == ts:
            a -= 1
        for _, backward, pivot in wedges[a:i]:
            same, other = sides[backward]
            for start, arrivals in same.items():
                if start > pivot:
                    s_non += len(arrivals)
                elif start < pivot:
                    s_int += len(arrivals) - bisect_right(arrivals, pivot)
                    s_cov += bisect_left(arrivals, pivot)
            for start, arrivals in other.items():
                if start > pivot:
                    d_non += len(arrivals)
                elif start < pivot:
                    d_int += len(arrivals) - bisect_right(arrivals, pivot)
                    d_cov += bisect_left(arrivals, pivot)
        # a round's start is new, and each direction's wedges come arrivals ascending
        for _, backward, arrival in wedges[a:i]:
            lives[backward].setdefault(ts, []).append(arrival)
        i = a
    acc[layer] += s_non
    acc[1 ^ layer] += s_int
    acc[2 ^ layer] += s_cov
    acc[3 ^ layer] += d_non
    acc[4 ^ layer] += d_int
    acc[5 ^ layer] += d_cov


def _twin_counts(wedges: list, delta: int, acc: list[int], layer: int) -> None:
    """Add every pair of a bucket's normalized wedges to acc: the sweep's rounds over twin sorted lists.

    Each direction keeps its live wedges in three plain int lists: the
    negated arrivals ascending, beside each the negated start it came with
    (for expiry), and the negated starts ascending.  A probe ranks the
    pivot by four bisects, so it costs the same however many starts are
    live.  The tallies stay in six locals until the bucket ends.
    """
    lives: tuple[tuple[list[int], list[int], list[int]], ...] = (([], [], []), ([], [], []))
    # a wedge's (same, other) live wedges, by its backward flag
    sides = (lives, lives[::-1])
    s_non = s_int = s_cov = d_non = d_int = d_cov = 0
    i = len(wedges)
    while i:
        ts = wedges[i - 1][0]
        neg_ts = -ts
        # negated, the arrivals beyond ts + delta sit at the head
        cut = neg_ts - delta
        for arr, with_start, starts in lives:
            if arr and arr[0] < cut:
                k = bisect_left(arr, cut)
                for neg_s in with_start[:k]:
                    del starts[bisect_left(starts, neg_s)]
                del arr[:k], with_start[:k]
        a = i - 1
        while a and wedges[a - 1][0] == ts:
            a -= 1
        for _, backward, arrival in wedges[a:i]:
            (s_arr, _, s_starts), (o_arr, _, o_starts) = sides[backward]
            neg = -arrival
            later = bisect_left(s_arr, neg)
            s_non += bisect_left(s_starts, neg)
            s_int += later - bisect_right(s_starts, neg)
            s_cov += len(s_arr) - bisect_right(s_arr, neg, later)
            later = bisect_left(o_arr, neg)
            d_non += bisect_left(o_starts, neg)
            d_int += later - bisect_right(o_starts, neg)
            d_cov += len(o_arr) - bisect_right(o_arr, neg, later)
        # starts fall round by round, so negated they land at the tail
        for _, backward, arrival in wedges[a:i]:
            arr, with_start, starts = lives[backward]
            p = bisect_right(arr, -arrival)
            arr.insert(p, -arrival)
            with_start.insert(p, neg_ts)
            starts.append(neg_ts)
        i = a
    acc[layer] += s_non
    acc[1 ^ layer] += s_int
    acc[2 ^ layer] += s_cov
    acc[3 ^ layer] += d_non
    acc[4 ^ layer] += d_int
    acc[5 ^ layer] += d_cov


# the largest end bucket that is paired directly instead of swept
_SMALL_BUCKET = 16
# per layer bit, the (same-direction, mixed-direction) type indexes of non-overlap, intersecting and covering
_PAIR_TYPES = tuple(((layer, 1 ^ layer, 2 ^ layer), (3 ^ layer, 4 ^ layer, 5 ^ layer)) for layer in (0, 1))


def _pair_tally(w1: tuple, others: list, delta: int, layer: int, acc: list[int], sign: int = 1, out: list | None = None) -> None:
    """Add sign to acc[type] for each butterfly w1 makes with a wedge of others, and append (type, w1, w2) to out if given.

    The type is classify_type's, read inline from the two wedges' ordered
    stamps: non-overlap, intersecting or covering, plus 3 when the wedges
    run in opposite directions, xor the layer bit.  Wedges may be raw or
    in corner order: flipping both wedges of a pair leaves its type
    unchanged.
    """
    a1, b1, m1 = w1
    # the types against a forward and a backward second wedge
    if a1 < b1:
        lo1, hi1, (fwd_kinds, bwd_kinds) = a1, b1, _PAIR_TYPES[layer]
    elif b1 < a1:
        lo1, hi1, (bwd_kinds, fwd_kinds) = b1, a1, _PAIR_TYPES[layer]
    else:
        return
    for w2 in others:
        a2, b2, m2 = w2
        if m1 == m2 or a2 == b2 or a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
            continue
        if a2 < b2:
            lo2, hi2, kinds = a2, b2, fwd_kinds
        else:
            lo2, hi2, kinds = b2, a2, bwd_kinds
        if (hi1 if hi1 > hi2 else hi2) - (lo1 if lo1 < lo2 else lo2) > delta:
            continue
        if hi1 < lo2 or hi2 < lo1:
            k = kinds[0]
        # with distinct stamps, one interval covers the other iff it has both the lower and the higher end
        elif (lo1 < lo2) == (hi2 < hi1):
            k = kinds[2]
        else:
            k = kinds[1]
        acc[k] += sign
        if out is not None:
            out.append((k, w1, w2))


def _normalized(wedges: list) -> list:
    """A bucket's normalized (t_s, backward, t_a) wedges, sorted ascending; equal-stamp wedges are dropped."""
    return sorted([(t1, 0, t2) if t1 < t2 else (t2, 1, t1) for t1, t2, _ in wedges if t1 != t2])


def _count_bucket(wedges, delta, layer, sweep, acc, same, min_run) -> None:
    """Tally one end bucket's butterflies as acc less same.

    A small bucket's go straight into acc.  A large bucket's one
    start-sorted list, from _normalized, is swept whole into acc by
    sweep(list, delta, acc, layer); the bucket is then sorted by middle,
    and each middle's run of min_run or more wedges is normalized and swept
    into same; shorter runs are known to hold no countable pair.
    """
    if len(wedges) <= _SMALL_BUCKET:
        for i in range(len(wedges) - 1):
            _pair_tally(wedges[i], wedges[i + 1:], delta, layer, acc)
        return
    sweep(_normalized(wedges), delta, acc, layer)
    # parallel edges to the start scatter a middle's wedges through the bucket
    wedges.sort(key=itemgetter(2))
    for _, run in groupby(wedges, itemgetter(2)):
        run = list(run)
        if len(run) >= min_run:
            sweep(_normalized(run), delta, same, layer)


# --- engines ----------------------------------------------------------------


def _check_walk(g: TemporalBipartiteGraph, priority: VertexPriority, delta: int) -> bool:
    """Refuse a priority that misses a vertex of g, before any fork; else whether all g's stamps fit one delta span."""
    if len(priority.upper) < g.upper_count or len(priority.lower) < g.lower_count:
        raise ValueError(
            f"priority ranks {len(priority.upper)} upper and {len(priority.lower)} lower vertices,"
            f" but the graph has {g.upper_count} and {g.lower_count}; compute it from this graph"
        )
    # every edge sits in an upper row, so these rows give the graph's span
    rows = [r for r in g.upper_times if r]
    return bool(rows) and max(map(itemgetter(-1), rows)) - min(map(itemgetter(0), rows)) <= delta


def count_baseline(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    stats: dict | None = None,
) -> CountVector:
    """Group every wedge per end vertex and test every distinct-middle pair.

    Dead wedges (equal stamps, or more than delta apart) are kept and
    rejected pair by pair.  When a stats dict is passed,
    stats["pairs_examined"] receives the number of distinct-middle pairs
    inspected, which equals the number of static 2x2 biclique edge choices
    because each is examined from exactly one start vertex.
    """
    _check_walk(g, priority, delta)
    acc = [0] * 6
    pairs_examined = 0
    for layer, _s, _end, wedges in _end_buckets(g, priority, delta, raw=True):
        if stats is not None:
            # every pair of the bucket, less those through one middle
            n = len(wedges)
            pairs_examined += n * (n - 1) // 2
            pairs_examined -= sum(c * (c - 1) // 2 for c in Counter(map(itemgetter(2), wedges)).values())
        for i in range(len(wedges) - 1):
            _pair_tally(wedges[i], wedges[i + 1:], delta, layer, acc)
    if stats is not None:
        stats["pairs_examined"] = pairs_examined
    return CountVector(acc)


def _end_buckets(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    raw: bool = False,
    starts: tuple[Sequence[int], Sequence[int]] | None = None,
    whole: bool = False,
):
    """Yield (layer bit, start, end, wedges) for the end buckets that can hold a butterfly.

    wedges lists the bucket's raw (t1, t2, middle) wedges, t1 and t2 the
    stamps of the edges to start and to end, in the order the walk meets
    them.  The start's time row is walked whole, skipping middles whose
    priority is not below the start's.  Of each middle's time row only the
    [t1 - delta, t1 + delta] slice is walked, bisected from its int stamps,
    skipping ends whose priority is not below the start's and those whose
    stamp equals t1, so every wedge reached spans 1..delta.  An end's first
    wedge is kept as a bare tuple and its list built when a second arrives,
    so buckets come out in the order of their second wedges.  A bucket of
    three or more wedges is yielded when it holds two middles.  A bucket of
    two is yielded only when its one pair is a butterfly: different
    middles, four distinct stamps and a span of at most delta.

    whole, as _check_walk decides, reads each middle's whole row, with no
    bisect.  raw sets whole too, keeps only the priority skip, and yields
    every bucket with two middles, two-wedge ones too.  Parallel edges to
    the start scatter one middle's wedges through a bucket, so its wedges
    are not grouped by middle.  starts, a chunk of _chunks, walks only its
    upper and lower start ids, in order; None walks every start in id order.
    """
    whole = whole or raw
    for layer, start_rows, mid_rows, mid_stamps, sprio, mprio in (
        (0, g.upper_adj, g.lower_adj, g.lower_times, priority.upper, priority.lower),
        (1, g.lower_adj, g.upper_adj, g.upper_times, priority.lower, priority.upper),
    ):
        for s in range(len(start_rows)) if starts is None else starts[layer]:
            row = start_rows[s]
            ps = sprio[s]
            # most ends get one wedge: it stays a bare tuple in firsts
            firsts: dict[int, tuple] = {}
            ends: dict[int, list] = {}
            for v, t1, _ in row:
                if mprio[v] >= ps:
                    continue
                if whole:
                    entries = mid_rows[v]
                else:
                    stamps = mid_stamps[v]
                    lo = bisect_left(stamps, t1 - delta)
                    entries = mid_rows[v][lo:bisect_right(stamps, t1 + delta, lo)]
                for w, t2, _ in entries:
                    if sprio[w] < ps and (t2 != t1 or raw):
                        if w not in firsts:
                            firsts[w] = (t1, t2, v)
                        elif w in ends:
                            ends[w].append((t1, t2, v))
                        else:
                            ends[w] = [firsts[w], (t1, t2, v)]
            if not ends:
                continue
            for end, wedges in ends.items():
                if len(wedges) > 2:
                    m = wedges[0][2]
                    # first and last middles differ, or another sits between them
                    if wedges[-1][2] == m and all(w[2] == m for w in wedges):
                        continue
                else:
                    (a1, b1, m1), (a2, b2, m2) = wedges
                    if m1 == m2:
                        continue
                    if not raw:
                        # the one pair must be a butterfly: four distinct stamps
                        if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
                            continue
                        # inside one delta span; each wedge spans at most delta, so only a cross span can exceed it
                        hi1, lo1 = (a1, b1) if a1 > b1 else (b1, a1)
                        hi2, lo2 = (a2, b2) if a2 > b2 else (b2, a2)
                        if hi1 - lo2 > delta or hi2 - lo1 > delta:
                            continue
                yield layer, s, end, wedges


def _count_part(g, priority, delta, whole, sweep, claims: Iterable) -> tuple[list[int], list[int]]:
    """The (every, same) tallies of the end buckets the walk over each claimed (id, starts) chunk yields."""
    every, same = [0] * 6, [0] * 6
    # a same-middle pair takes two edges on each leg with four distinct
    # timestamps inside one delta span, so its middle holds all four
    # wedges those edges cross into
    for _, starts in claims:
        for layer, _s, _end, wedges in _end_buckets(g, priority, delta, starts=starts, whole=whole):
            _count_bucket(wedges, delta, layer, sweep, every, same, min_run=4)
    return every, same


def _count_on_pool(g, priority, delta, sweep, workers: int | None) -> CountVector:
    """Count on the fork pool: each process sums the chunks it claims, a child in one reply; see _pool."""
    part = partial(_count_part, g, priority, delta, _check_walk(g, priority, delta), sweep)

    def gather(claims, children, _):
        tallies = [part(claims)] + [reply for child in children for _, reply in child.records()]
        return CountVector(sum(every[i] - same[i] for every, same in tallies) for i in range(6))

    return _run_pool(g, workers, lambda claims: [(_END, part(claims))], gather)


def count_optimized(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    workers: int | None = None,
) -> CountVector:
    """Prune dead wedges, then sweep each end bucket with bucketed probes.

    The walk is cut into _chunks' chunks of start vertices, the same at any
    workers, which the processes of the fork pool claim as they go: at most
    workers (None: every usable CPU) and the usable CPUs, one per
    _EDGES_PER_PART edges.  It stays in this process on a graph of fewer
    than 2 * _EDGES_PER_PART edges, without os.fork, or while another
    thread is alive.
    """
    return _count_on_pool(g, priority, delta, _timestamp_counts, workers)


def count_extreme(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    workers: int | None = None,
) -> CountVector:
    """Same sweep as count_optimized with rank-arithmetic probes throughout.

    workers, the chunks and the rules that keep a call in this process
    are count_optimized's.
    """
    return _count_on_pool(g, priority, delta, _twin_counts, workers)


def _scalable(sample_p: float) -> bool:
    """Whether sample_p is in (0, 1] and sample_p ** -4, the estimates' scale, is a finite float."""
    try:
        return 0 < sample_p <= 1 and sample_p ** -4 > 0
    except OverflowError:
        return False


def count_sampled(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sample_p: float,
    seed: int = 0,
    workers: int | None = None,
) -> CountVector:
    """Unbiased estimates from an edge sample kept with probability sample_p.

    One seeded draw per edge in uid order, which is ingestion order, fills
    a keep-mask by uid.  g._subgraph filters g's time rows by it onto g's
    ids, and count_extreme counts them exactly with workers under the
    caller's priority, which ranks every vertex of the sample too; under
    2 * _EDGES_PER_PART kept edges it counts in this process.  Each count
    is scaled by sample_p ** -4, as a butterfly survives iff its four edges
    do; at sample_p 1 every draw keeps its edge, so the estimates are the
    exact counts.  A sample_p whose scale overflows, or workers < 1, is
    refused first.
    """
    if not _scalable(sample_p):
        raise ValueError(f"sample_p must be in (0, 1] with sample_p ** -4 finite, got {sample_p}")
    _processes(g, workers)  # refuses a non-positive workers before any draw
    _check_walk(g, priority, delta)
    rng = random.Random(seed)
    # with no uid ever freed, the uids are exactly 0..edge_count - 1 and need no sort
    uids = range(g.edge_count) if g.edge_count == g._next_uid else sorted(map(itemgetter(2), chain.from_iterable(g.upper_adj)))
    keep = bytearray(g._next_uid)
    for uid in uids:
        keep[uid] = rng.random() < sample_p
    return count_extreme(g._subgraph(keep), priority, delta, workers).scaled(sample_p ** -4)
