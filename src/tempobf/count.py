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
  indexes.  A larger bucket is split into forward and backward wedges and
  swept once in wedge priority (start timestamp descending, arrival
  ascending), keeping candidate wedges in per-start-timestamp buckets of
  arrival lists.  The sweep counts every pair of the end bucket; the same
  sweep over each middle's own wedges counts the same-middle pairs, which
  come from parallel edges and are never butterflies, and is subtracted.
  This replaces the paper's mergesort-style recursion over per-middle
  subsets, which re-indexed and re-probed every wedge at each of its log k
  merge levels.
- count_extreme is the same with the sweep's buckets replaced by twin
  sorted lists, so each probe is four C bisects instead of a walk over
  every live start timestamp.  The lists are stored negated, so the
  sweep's inserts land at their tail.  It runs the sweep fused, in
  _twin_counts: the lists hold plain ints, the bisects are inlined and
  the tallies stay in locals until the bucket ends.  enumerate_optimized
  sweeps with the same lists as a TwinOrderedIndex and takes each match
  from the wedge its entry carries.

Small buckets are paired in one loop, _pairs, behind every engine; it
reads each pair's type inline, as classify_type defines it.

All engines take their wedges from one walk, _end_buckets, over the time
rows every graph keeps.  It reads each start vertex's row and skips
neighbors that do not rank below the start vertex; on each middle vertex
it reads only the slice of its row inside the delta window around the
first edge's stamp, bisected from the row's int stamps, and skips ends
that do not rank below the start.  Wedges thus run only toward strictly
lower-priority middle and end vertices, so each butterfly is seen exactly
once, from its max-priority corner; any injective ranking does, so a
priority computed before the graph last changed still counts exactly, as
long as it ranks every vertex.  A walk of the whole graph reads whole
rows, with no bisect, when all its stamps fit in one delta span; a chunk
of starts always bisects.  Only ends with two or more wedges leave the
walk: a bucket of three or more when it holds two middles, a bucket of two
only when its one pair is a butterfly.  count_baseline asks the walk to
keep dead wedges as well, so it reads each middle's whole row; the others
drop them on sight.  In that raw mode every bucket with two middles leaves
the walk, two-wedge ones too, so every distinct-middle pair is examined.
count_sampled runs count_extreme on an edge-sampled subgraph and rescales,
giving unbiased estimates.  All but count_baseline count on the fork pool
of _pool, each process summing the chunks of starts it claims.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ._pool import _END, _run_pool
from .graph import TemporalBipartiteGraph, VertexPriority, compute_vertex_priority

__all__ = [
    "CountVector",
    "classify_type",
    "TimestampIndex",
    "TwinOrderedIndex",
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


# --- wedge bookkeeping ------------------------------------------------------
#
# Normalized wedges are (t_s, t_a, middle) with t_s < t_a <= t_s + delta; a
# backward wedge stores its two timestamps swapped and is tracked in the
# backward list instead.  Wedge priority sorts by t_s descending, then t_a
# ascending; sweeps keep their lists in plain ascending tuple order and
# consume them from the end, which visits start timestamps in that order.


class TimestampIndex:
    """Wedges bucketed by start timestamp, arrivals kept ascending per bucket.

    Probing walks every live bucket: a bucket starting after the probe's
    arrival matches whole as non-overlap, a bucket starting before it is
    split around the arrival by binary search into covering and intersecting
    parts.  Expiry also walks every bucket, popping arrivals above the bound.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def insert(self, wedge: tuple) -> None:
        # callers insert in wedge-priority order, so appends keep arrivals ascending
        self._buckets.setdefault(wedge[0], []).append(wedge[1])

    def delete_above(self, bound: int) -> None:
        dead = []
        for ts, arrivals in self._buckets.items():
            while arrivals and arrivals[-1] > bound:
                arrivals.pop()
            if not arrivals:
                dead.append(ts)
        for ts in dead:
            del self._buckets[ts]

    def query_counts(self, pivot: int, acc: list[int], offsets: tuple[int, int, int]) -> None:
        o_non, o_int, o_cov = offsets
        for ts, arrivals in self._buckets.items():
            if ts > pivot:
                acc[o_non] += len(arrivals)
            elif ts < pivot:
                acc[o_int] += len(arrivals) - bisect_right(arrivals, pivot)
                acc[o_cov] += bisect_left(arrivals, pivot)
            # ts == pivot: a shared timestamp, never a butterfly


class TwinOrderedIndex:
    """Twin sorted lists over the indexed wedges, both stored negated.

    One side orders (-arrival, -start, wedge) entries, the wedge being the
    inserted tuple itself, the other holds the negated start timestamps
    alone.  The two stay element-for-element synchronized: expiry cuts the
    arrival side's head in one slice and deletes each matching start.  The
    sweep inserts start timestamps in descending order, so negated, inserts
    land at or near the tail of both lists and move little memory.
    enumerate_optimized probes it for the entries on either side of an
    arrival; count_extreme keeps the same lists as plain ints inside
    _twin_counts.
    """

    __slots__ = ("_arrivals", "_starts")

    def __init__(self) -> None:
        self._arrivals: list[tuple[int, int, tuple]] = []
        self._starts: list[int] = []

    def __len__(self) -> int:
        return len(self._arrivals)

    def insert(self, wedge: tuple) -> None:
        neg_ts = -wedge[0]
        insort(self._arrivals, (-wedge[1], neg_ts, wedge))
        insort(self._starts, neg_ts)

    def delete_above(self, bound: int) -> None:
        arrivals = self._arrivals
        if arrivals and arrivals[0][0] < -bound:
            k = bisect_left(arrivals, (-bound,))
            starts = self._starts
            for _, neg_ts, _ in arrivals[:k]:
                del starts[bisect_left(starts, neg_ts)]
            del arrivals[:k]

    def around(self, pivot: int) -> tuple[list, list]:
        """The entries arriving after the pivot and those arriving before it, arrivals descending."""
        arrivals = self._arrivals
        neg = -pivot
        later = bisect_left(arrivals, (neg,))
        return arrivals[:later], arrivals[bisect_left(arrivals, (neg + 1,), later):]


# --- end-bucket sweep --------------------------------------------------------


def _sweep(fwd: list, bwd: list, delta: int, fwd_idx, bwd_idx, visit) -> None:
    """Probe every wedge against every indexed wedge of a larger start time.

    Both lists are sorted ascending and consumed from the end in rounds of
    equal start timestamp, largest first.  A round first expires index
    entries whose arrival exceeds round start + delta (they can never again
    share a span with anything left), then probes the round's wedges, each
    against its own direction's index and the other one, and only then
    inserts them, arrivals ascending; wedges sharing a start timestamp
    therefore never pair with each other.  Everything a probe sees lies
    fully inside [round start, round start + delta], so no span check is
    needed at match time.  visit(wedge, same_idx, other_idx) does the
    probing.
    """
    i, j = len(fwd), len(bwd)
    while i or j:
        if j == 0 or (i and fwd[i - 1][0] >= bwd[j - 1][0]):
            ts = fwd[i - 1][0]
        else:
            ts = bwd[j - 1][0]
        bound = ts + delta
        fwd_idx.delete_above(bound)
        bwd_idx.delete_above(bound)
        a, b = i, j
        while a and fwd[a - 1][0] == ts:
            a -= 1
        while b and bwd[b - 1][0] == ts:
            b -= 1
        for k in range(a, i):
            visit(fwd[k], fwd_idx, bwd_idx)
        for k in range(b, j):
            visit(bwd[k], bwd_idx, fwd_idx)
        for k in range(a, i):
            fwd_idx.insert(fwd[k])
        for k in range(b, j):
            bwd_idx.insert(bwd[k])
        i, j = a, b


def _counting_visit(acc: list[int], layer: int):
    off_same = (0 ^ layer, 1 ^ layer, 2 ^ layer)
    off_diff = (3 ^ layer, 4 ^ layer, 5 ^ layer)

    def visit(wedge, same_idx, diff_idx):
        pivot = wedge[1]
        same_idx.query_counts(pivot, acc, off_same)
        diff_idx.query_counts(pivot, acc, off_diff)

    return visit


def _timestamp_counts(fwd: list, bwd: list, delta: int, acc: list[int], layer: int) -> None:
    """Add every pair of a bucket's normalized wedges to acc: _sweep over a TimestampIndex per direction."""
    _sweep(fwd, bwd, delta, TimestampIndex(), TimestampIndex(), _counting_visit(acc, layer))


def _twin_counts(fwd: list, bwd: list, delta: int, acc: list[int], layer: int) -> None:
    """Add every pair of a bucket's normalized wedges to acc: _sweep's rounds, fused.

    Each direction keeps its live wedges as TwinOrderedIndex does, but in
    three plain int lists: the negated arrivals ascending, beside each the
    negated start it came with (for expiry), and the negated starts
    ascending.  A probe ranks the probing wedge's arrival, the pivot, by
    four bisects: a live wedge starting after the pivot is non-overlap, one
    arriving after it but starting before it intersecting, one arriving
    before it covered; a stamp at the pivot is shared, never a butterfly.
    The tallies stay in six locals until the bucket ends.
    """
    f_arr: list[int] = []
    f_with: list[int] = []
    f_starts: list[int] = []
    b_arr: list[int] = []
    b_with: list[int] = []
    b_starts: list[int] = []
    s_non = s_int = s_cov = d_non = d_int = d_cov = 0
    i, j = len(fwd), len(bwd)
    while i or j:
        if j == 0 or (i and fwd[i - 1][0] >= bwd[j - 1][0]):
            ts = fwd[i - 1][0]
        else:
            ts = bwd[j - 1][0]
        neg_ts = -ts
        # negated, the arrivals beyond ts + delta sit at the head
        cut = neg_ts - delta
        if f_arr and f_arr[0] < cut:
            k = bisect_left(f_arr, cut)
            for neg_s in f_with[:k]:
                del f_starts[bisect_left(f_starts, neg_s)]
            del f_arr[:k], f_with[:k]
        if b_arr and b_arr[0] < cut:
            k = bisect_left(b_arr, cut)
            for neg_s in b_with[:k]:
                del b_starts[bisect_left(b_starts, neg_s)]
            del b_arr[:k], b_with[:k]
        a, b = i, j
        while a and fwd[a - 1][0] == ts:
            a -= 1
        while b and bwd[b - 1][0] == ts:
            b -= 1
        nf, nb = len(f_arr), len(b_arr)
        # most rounds hold one wedge, so a direction with none skips its loops
        if a < i:
            for k in range(a, i):
                neg = -fwd[k][1]
                later = bisect_left(f_arr, neg)
                s_non += bisect_left(f_starts, neg)
                s_int += later - bisect_right(f_starts, neg)
                s_cov += nf - bisect_right(f_arr, neg, later)
                later = bisect_left(b_arr, neg)
                d_non += bisect_left(b_starts, neg)
                d_int += later - bisect_right(b_starts, neg)
                d_cov += nb - bisect_right(b_arr, neg, later)
        if b < j:
            for k in range(b, j):
                neg = -bwd[k][1]
                later = bisect_left(b_arr, neg)
                s_non += bisect_left(b_starts, neg)
                s_int += later - bisect_right(b_starts, neg)
                s_cov += nb - bisect_right(b_arr, neg, later)
                later = bisect_left(f_arr, neg)
                d_non += bisect_left(f_starts, neg)
                d_int += later - bisect_right(f_starts, neg)
                d_cov += nf - bisect_right(f_arr, neg, later)
        # starts fall round by round, so negated they land at the tail
        if a < i:
            for k in range(a, i):
                neg = -fwd[k][1]
                p = bisect_right(f_arr, neg)
                f_arr.insert(p, neg)
                f_with.insert(p, neg_ts)
                f_starts.append(neg_ts)
        if b < j:
            for k in range(b, j):
                neg = -bwd[k][1]
                p = bisect_right(b_arr, neg)
                b_arr.insert(p, neg)
                b_with.insert(p, neg_ts)
                b_starts.append(neg_ts)
        i, j = a, b
    acc[layer] += s_non
    acc[1 ^ layer] += s_int
    acc[2 ^ layer] += s_cov
    acc[3 ^ layer] += d_non
    acc[4 ^ layer] += d_int
    acc[5 ^ layer] += d_cov


# the largest end bucket that is paired directly instead of swept
_SMALL_BUCKET = 16


def _pairs(wedges: list, delta: int, layer: int) -> Iterator[tuple[int, tuple, tuple]]:
    """Yield (type, wedge, later wedge) for every butterfly among one bucket's wedges.

    The type is classify_type's, read inline from the two wedges' ordered
    stamps: non-overlap, intersecting or covering, plus 3 when the wedges
    run in opposite directions, xor the layer bit.  Wedges may be raw or in
    corner order: flipping both wedges of a pair leaves its type unchanged.
    """
    same = (layer, 1 ^ layer, 2 ^ layer)
    mixed = (3 ^ layer, 4 ^ layer, 5 ^ layer)
    n = len(wedges)
    for i in range(n - 1):
        w1 = wedges[i]
        a1, b1, m1 = w1
        # the types against a forward and a backward second wedge
        if a1 < b1:
            lo1, hi1, fwd_kinds, bwd_kinds = a1, b1, same, mixed
        elif b1 < a1:
            lo1, hi1, fwd_kinds, bwd_kinds = b1, a1, mixed, same
        else:
            continue
        for j in range(i + 1, n):
            w2 = wedges[j]
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
                yield kinds[0], w1, w2
            # with distinct stamps, one interval covers the other iff it has both the lower and the higher end
            elif (lo1 < lo2) == (hi2 < hi1):
                yield kinds[2], w1, w2
            else:
                yield kinds[1], w1, w2


def _split(wedges: list) -> tuple[list, list]:
    """A bucket's (forward, backward) normalized wedges, each list sorted ascending."""
    fwd = sorted(w for w in wedges if w[0] < w[1])
    bwd = sorted((t2, t1, m) for t1, t2, m in wedges if t2 < t1)
    return fwd, bwd


def _count_bucket(wedges, delta, layer, sweep, acc, same, min_run) -> None:
    """Tally one end bucket's butterflies as acc less same.

    A small bucket's go straight into acc.  A large bucket is swept whole
    into acc by sweep(fwd, bwd, delta, acc, layer), then sorted by middle,
    and each middle's run of min_run or more wedges is swept into same;
    shorter runs are known to hold no countable pair.
    """
    if len(wedges) <= _SMALL_BUCKET:
        for type_index, _, _ in _pairs(wedges, delta, layer):
            acc[type_index] += 1
        return
    sweep(*_split(wedges), delta, acc, layer)
    # parallel edges to the start scatter a middle's wedges through the bucket
    wedges.sort(key=itemgetter(2))
    for _, run in groupby(wedges, itemgetter(2)):
        run = list(run)
        if len(run) >= min_run:
            sweep(*_split(run), delta, same, layer)


# --- engines ----------------------------------------------------------------


def _check_priority(g: TemporalBipartiteGraph, priority: VertexPriority) -> None:
    if len(priority.upper) < g.upper_count or len(priority.lower) < g.lower_count:
        raise ValueError(
            f"priority ranks {len(priority.upper)} upper and {len(priority.lower)} lower vertices,"
            f" but the graph has {g.upper_count} and {g.lower_count}; compute it from this graph"
        )


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
    acc = [0] * 6
    pairs_examined = 0
    for layer, _s, _end, wedges in _end_buckets(g, priority, delta, raw=True):
        if stats is not None:
            # every pair of the bucket, less those through one middle
            n = len(wedges)
            pairs_examined += n * (n - 1) // 2
            pairs_examined -= sum(c * (c - 1) // 2 for c in Counter(map(itemgetter(2), wedges)).values())
        for type_index, _, _ in _pairs(wedges, delta, layer):
            acc[type_index] += 1
    if stats is not None:
        stats["pairs_examined"] = pairs_examined
    return CountVector(acc)


def _end_buckets(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    raw: bool = False,
    starts: tuple[Sequence[int], Sequence[int]] | None = None,
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

    When raw is set, the middle's whole row is walked and only the priority
    skip applies, and every bucket with two middles is yielded, two-wedge
    ones too.  Parallel edges to the start scatter one middle's wedges
    through a bucket, so its wedges are not grouped by middle.

    starts, a pair of upper and lower start ids such as a chunk of
    _chunks, walks only those starts, in that order, so the chunks of one
    cut yield every bucket once; None walks every start in id order, and
    reads whole rows, with no bisect, when all of g's stamps fit in one
    delta span.  A chunk always bisects, so no chunk pays that check.
    """
    _check_priority(g, priority)
    # every edge sits in an upper row, so these rows give the graph's span
    rows = [r for r in g.upper_times if r] if starts is None and not raw else ()
    fits = bool(rows) and all(r[-1] - r[0] <= delta for r in rows)
    whole = raw or (fits and max(map(itemgetter(-1), rows)) - min(map(itemgetter(0), rows)) <= delta)
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


def _count_part(g, priority, delta, sweep, claims: Iterable) -> tuple[list[int], list[int]]:
    """The (every, same) tallies of the end buckets the walk over each claimed (id, starts) chunk yields."""
    every = [0] * 6
    same = [0] * 6
    # a same-middle pair takes two edges on each leg with four distinct
    # timestamps inside one delta span, so its middle holds all four
    # wedges those edges cross into
    for _, starts in claims:
        for layer, _s, _end, wedges in _end_buckets(g, priority, delta, starts=starts):
            _count_bucket(wedges, delta, layer, sweep, every, same, min_run=4)
    return every, same


def _count_with_sweep(g, priority, delta, sweep, workers: int | None) -> CountVector:
    """Count on the fork pool: each process sums the chunks it claims, a child in one reply; see _pool."""

    def gather(claims, children, _):
        tallies = [_count_part(g, priority, delta, sweep, claims)]
        tallies += [reply for child in children for _, reply in child.records()]
        return CountVector(sum(every[i] - same[i] for every, same in tallies) for i in range(6))

    return _run_pool(g, workers, lambda claims: [(_END, _count_part(g, priority, delta, sweep, claims))], gather)


def count_optimized(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    workers: int | None = None,
) -> CountVector:
    """Prune dead wedges, then sweep each end bucket with bucketed probes.

    The walk is cut into chunks of start vertices, heaviest first, which
    the processes of the fork pool claim as they go: at most workers (None:
    every usable CPU) and the usable CPUs, one per _EDGES_PER_PART edges.
    It stays in this process on a graph of fewer than 2 * _EDGES_PER_PART
    edges, without os.fork, or while another thread is alive.
    """
    return _count_with_sweep(g, priority, delta, _timestamp_counts, workers)


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
    return _count_with_sweep(g, priority, delta, _twin_counts, workers)


def count_sampled(
    g: TemporalBipartiteGraph,
    priority: VertexPriority,
    delta: int,
    sample_p: float,
    seed: int = 0,
    workers: int | None = None,
) -> CountVector:
    """Unbiased estimates from an edge sample kept with probability sample_p.

    Each edge is retained independently (seeded PRNG, one draw per edge in
    uid order, which is ingestion order).  The retained edges are filtered
    from g's time rows onto g's vertex ids and counted exactly by
    count_extreme with workers, so a sample of fewer than 2 * _EDGES_PER_PART
    edges is counted in this process; every component is scaled by
    sample_p to the power -4, since a butterfly survives iff its four
    edges all do.
    """
    if not 0 < sample_p <= 1:
        raise ValueError(f"sample_p must be in (0, 1], got {sample_p}")
    _check_priority(g, priority)
    if sample_p == 1:
        return CountVector(float(c) for c in count_extreme(g, priority, delta, workers))
    rng = random.Random(seed)
    # with no uid ever freed, the uids are exactly 0..edge_count - 1 and need no sort
    uids = range(g.edge_count) if g.edge_count == g._next_uid else sorted(map(itemgetter(2), chain.from_iterable(g.upper_adj)))
    sub = g._subgraph({uid for uid in uids if rng.random() < sample_p})
    sub_priority = compute_vertex_priority(sub)
    exact = count_extreme(sub, sub_priority, delta, workers)
    return exact.scaled(sample_p ** -4)
