"""Type classifier, sweep kernels, combination skeleton, and the counting engines."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import partial
from itertools import combinations, groupby
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import tempobf
from tempobf import (
    CountVector,
    TemporalBipartiteGraph,
    classify_type,
    compute_vertex_priority,
    count_baseline,
    count_extreme,
    count_optimized,
    count_sampled,
    enumerate_baseline,
    enumerate_optimized,
    gen_random_graph,
    null_sink,
    oracle_count,
    oracle_enumerate,
    oracle_static_pairings,
)
import tempobf._pool as pool_module
import tempobf.count as count_module
import tempobf.enumeration as enumeration_module
from tempobf._pool import _chunks
from tempobf.count import (
    _SMALL_BUCKET,
    _check_walk,
    _count_bucket,
    _count_part,
    _end_buckets,
    _normalized,
    _pairs,
    _timestamp_counts,
    _twin_counts,
)
from tempobf.enumeration import _emit_swept
from conftest import (
    F1,
    F2,
    HUB_DELTA,
    HUB_TRIPLES,
    PROPERTY_SETTINGS,
    Alarm,
    alarm,
    assert_no_child_left,
    build_plain,
    build_priority,
    build_time,
)

triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 4).map("u{}".format),
        st.integers(0, 4).map("v{}".format),
        st.integers(0, 40),
    ),
    max_size=28,
)
delta_strategy = st.integers(0, 50)
# four vertices a layer, 8 to 40 edges: most vertex pairs carry parallel
# edges, so end buckets hold many same-middle wedge pairs to subtract
parallel_triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 3).map("u{}".format),
        st.integers(0, 3).map("v{}".format),
        st.integers(0, 30),
    ),
    min_size=8,
    max_size=40,
)


@st.composite
def cut_row_triples_strategy(draw):
    """Parallel-edge graphs with stamps in 0..1000 around one to four burst centers.

    Burst centers spread over 0..1000 against delta at most 60, so most
    delta windows cover only part of a row, while each burst still holds
    butterflies.
    """
    centers = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=4))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3).map("u{}".format),
                st.integers(0, 3).map("v{}".format),
                st.sampled_from(centers),
                st.integers(-30, 30),
            ),
            min_size=8,
            max_size=40,
        )
    )
    return [(u, v, min(1000, max(0, c + offset))) for u, v, c, offset in edges]


quadruple_strategy = st.lists(st.integers(0, 100), min_size=4, max_size=4, unique=True)


def all_engine_counts(triples, delta):
    g, priority = build_priority(triples)
    return (
        count_baseline(g, priority, delta),
        count_optimized(g, priority, delta),
        count_extreme(g, priority, delta),
    )


class TestCountVector:
    def test_zeros_and_mutation(self):
        c = CountVector.zeros()
        assert c == [0] * 6
        c[3] = 5
        c.add_([1, 0, 0, 0, 0, 2])
        assert c == [1, 0, 0, 5, 0, 2]
        c.sub_(CountVector([1, 0, 0, 0, 0, 0]))
        assert c == [0, 0, 0, 5, 0, 2]

    def test_arithmetic_and_views(self):
        a = CountVector([1, 2, 3, 4, 5, 6])
        b = CountVector([6, 5, 4, 3, 2, 1])
        assert (a + b) == [7] * 6
        assert (a - a) == [0] * 6
        assert a.scaled(2) == [2, 4, 6, 8, 10, 12]
        assert a.total() == 21
        assert a.as_dict() == {"T0": 1, "T1": 2, "T2": 3, "T3": 4, "T4": 5, "T5": 6}
        assert a.copy() == a and a.copy() is not a

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="six"):
            CountVector([1, 2, 3])


class TestClassifyType:
    def test_canonical_examples(self):
        assert classify_type((1, 2), (3, 4), True) == 0
        assert classify_type((1, 3), (2, 4), True) == 1
        assert classify_type((1, 2), (4, 3), True) == 3
        assert classify_type((1, 3), (2, 4), False) == 0

    def test_covering_cases(self):
        assert classify_type((1, 4), (2, 3), True) == 2
        assert classify_type((1, 4), (3, 2), True) == 5

    def test_shared_timestamp_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            classify_type((1, 2), (2, 3), True)

    @PROPERTY_SETTINGS
    @given(quadruple_strategy, st.permutations(range(4)), st.booleans())
    def test_involutions(self, stamps, perm, upper):
        w1 = (stamps[perm[0]], stamps[perm[1]])
        w2 = (stamps[perm[2]], stamps[perm[3]])
        k = classify_type(w1, w2, upper)
        assert 0 <= k <= 5
        assert classify_type(w1, w2, not upper) == k ^ 1
        assert classify_type(w2, w1, upper) == k
        assert classify_type((w1[1], w1[0]), (w2[1], w2[0]), upper) == k


# wedges as (interval lo, interval hi) with lo < hi, the form the engines index
wedge_strategy = st.tuples(st.integers(0, 30), st.integers(1, 8)).map(lambda p: (p[0], p[0] + p[1]))


def naive_probe(live, pivot):
    non = sum(1 for lo, _ in live if lo > pivot)
    inter = sum(1 for lo, hi in live if lo < pivot < hi)
    cover = sum(1 for lo, hi in live if hi < pivot)
    return [non, inter, cover]


def kernel_vector(raws, delta, layer):
    """One bucket's vector from _timestamp_counts, _twin_counts and the fused emitter, each checked against _pairs.

    raws are (t1, t2, middle) wedges, each through its own middle and
    spanning at most delta, as the walk builds them; the emitter reads them
    as corner-order stamps, and must emit one instance per pair it tallies.
    """
    expected = [0] * 6
    for type_index, _, _ in _pairs(raws, delta, layer):
        expected[type_index] += 1
    for kernel in (_timestamp_counts, _twin_counts):
        acc = [0] * 6
        kernel(_normalized(raws), delta, acc, layer)
        assert acc == expected, kernel.__name__
    seen, acc = [], [0] * 6
    _emit_swept(raws, delta, layer, (0, 1), seen.append, acc)
    assert acc == expected
    assert len(seen) == sum(acc)
    return expected


class TestSweepKernels:
    """The three fused sweeps over one bucket: the probing wedge (1, 7) has the smallest start, so its round comes last."""

    def test_probe_whole_bucket_above_pivot(self):
        assert kernel_vector([(10, 12, 0), (1, 7, 1)], 20, 0) == [1, 0, 0, 0, 0, 0]

    def test_probe_splits_bucket_below_pivot(self):
        # (3, 5) and (3, 9) share a start, so only the probe pairs them: covered and intersecting
        assert kernel_vector([(3, 5, 0), (3, 9, 1), (1, 7, 2)], 10, 0) == [0, 1, 1, 0, 0, 0]

    def test_probe_with_lower_layer_offsets(self):
        # the backward (5, 3) is covered by the forward probe: a mixed covering, xor 1 for a lower start
        assert kernel_vector([(5, 3, 0), (1, 7, 1)], 10, 1) == [0, 0, 0, 0, 1, 0]

    def test_one_round_holds_both_directions(self):
        # the forward (3, 5) and the backward (9, 3) share start 3, so neither pairs with the other;
        # the probe (1, 7) covers (3, 5) and intersects (9, 3)
        assert kernel_vector([(3, 5, 0), (9, 3, 1), (1, 7, 2)], 10, 0) == [0, 0, 1, 0, 1, 0]
        assert kernel_vector([(3, 5, 0), (9, 3, 1), (1, 7, 2)], 10, 1) == [0, 0, 0, 1, 0, 1]

    def test_pivot_equal_start_contributes_nothing(self):
        assert kernel_vector([(7, 9, 0), (1, 7, 1)], 10, 0) == [0] * 6
        # (3, 7) arrives at the stamp (7, 9) starts at: a shared stamp, in either direction
        assert kernel_vector([(3, 7, 0), (7, 9, 1)], 10, 0) == [0] * 6
        assert kernel_vector([(3, 7, 0), (9, 7, 1)], 10, 0) == [0] * 6

    def test_rank_arithmetic(self):
        # the last probe, (1, 7), sees (8, 9) start after it, (2, 12) arrive
        # after it and (3, 5) arrive before it; the other three pairs are two
        # coverings of (2, 12) and the non-overlap of (3, 5) and (8, 9)
        for layer, expected in ((0, [2, 1, 3, 0, 0, 0]), (1, [1, 2, 0, 3, 0, 0])):
            assert kernel_vector([(1, 7, 0), (2, 12, 1), (3, 5, 2), (8, 9, 3)], 12, layer) == expected

    def test_expiry_drops_wedges_arriving_beyond_the_round_bound(self):
        # at delta 5 the round of start 2 expires (3, 8), so (1, 4) meets only (2, 5): intersecting
        assert kernel_vector([(2, 5, 0), (3, 8, 1), (1, 4, 2)], 5, 0) == [0, 1, 0, 0, 0, 0]

    def test_expiry_reaches_the_other_direction(self):
        # the backward (8, 3) expires as (3, 8) did above, before the forward (2, 5) probes it as a mixed pair
        assert kernel_vector([(2, 5, 0), (8, 3, 1), (1, 4, 2)], 5, 0) == [0, 1, 0, 0, 0, 0]
        # at delta 7 it stays live, and both forward wedges intersect it
        assert kernel_vector([(2, 5, 0), (8, 3, 1), (1, 4, 2)], 7, 0) == [0, 1, 0, 0, 2, 0]

    @PROPERTY_SETTINGS
    @given(st.lists(wedge_strategy, max_size=200), st.integers(0, 40))
    def test_kernels_agree_with_naive_recount(self, wedges, delta):
        """Engine-shaped rounds: expire, probe, insert, descending start times.

        Up to 200 wedges over 31 start and 38 arrival stamps, so rounds
        insert, expire and probe among many equal starts and arrivals.  Both
        counting kernels, which run the same rounds, must total every
        probe's counts.
        """
        inserted: list[tuple[int, int]] = []
        total = [0, 0, 0]
        for bound, round_wedges in engine_rounds(wedges, delta):
            inserted = [w for w in inserted if w[1] <= bound]
            for wedge in round_wedges:
                total = [a + b for a, b in zip(total, naive_probe(inserted, wedge[1]))]
            inserted.extend(round_wedges)
        fwd = sorted((ts, 0, ta) for ts, ta in wedges)
        for kernel in (_timestamp_counts, _twin_counts):
            acc = [0] * 6
            kernel(fwd, delta, acc, 0)
            assert acc == total + [0, 0, 0], kernel.__name__

    @PROPERTY_SETTINGS
    @given(st.lists(st.tuples(wedge_strategy, st.booleans()), max_size=200), st.integers(0, 40), st.sampled_from((0, 1)))
    def test_emitter_tallies_match_counting_kernels(self, drawn, delta, layer):
        """enumerate_optimized's sweep and both counting sweeps over one bucket, every wedge its own middle.

        With no same-middle entry to skip, each instance the emitter emits
        is a pair the counting sweeps count, in both directions and under
        the layer's types.
        """
        # a backward wedge runs hi to lo; the walk keeps only spans within delta
        raws = [(lo, hi, m) if up else (hi, lo, m) for m, ((lo, hi), up) in enumerate(drawn) if hi - lo <= delta]
        kernel_vector(raws, delta, layer)


def engine_rounds(wedges, delta):
    """Yield (expiry bound, round) as the sweeps take them: start times descending, arrivals ascending."""
    wedges = sorted(wedges, key=lambda w: (-w[0], w[1]))
    for ts, group in groupby(wedges, key=lambda w: w[0]):
        yield ts + delta, list(group)


def flat_bucket(groups):
    """An end bucket as the engines lay it out: raw (t1, t2, middle) wedges, one run per middle.

    groups lists each middle's (forward, backward) (lo, hi) stamp pairs; a
    backward wedge runs hi to lo.
    """
    return [
        (lo, hi, m) if direction == 0 else (hi, lo, m)
        for m, lists in enumerate(groups)
        for direction, wedges in enumerate(lists)
        for lo, hi in wedges
    ]


def legs_groups(legs, delta):
    """Engine-shaped groups: each middle's wedges cross its start-leg and end-leg stamps.

    As in the engines' walk, a wedge is kept iff its two stamps differ by 1..delta.
    """
    return [
        (
            [(a, b) for a in starts for b in ends if 0 < b - a <= delta],
            [(b, a) for a in starts for b in ends if 0 < a - b <= delta],
        )
        for starts, ends in legs
    ]


def count_flat(wedges, delta, upper, sweep=_timestamp_counts, min_run=2):
    """Distinct-middle butterflies of one flat bucket, as _count_on_pool tallies them."""
    every = [0] * 6
    same = [0] * 6
    _count_bucket(wedges, delta, 0 if upper else 1, sweep, every, same, min_run)
    return [a - b for a, b in zip(every, same)]


def naive_combine(groups, delta, upper):
    """Type every distinct-middle wedge pair directly; backward wedges run hi to lo."""
    raws = [
        (m, (lo, hi) if direction == 0 else (hi, lo))
        for m, lists in enumerate(groups)
        for direction, wedges in enumerate(lists)
        for lo, hi in wedges
    ]
    acc = [0] * 6
    for (m1, w1), (m2, w2) in combinations(raws, 2):
        stamps = w1 + w2
        if m1 != m2 and len(set(stamps)) == 4 and max(stamps) - min(stamps) <= delta:
            acc[classify_type(w1, w2, upper)] += 1
    return acc


legs_strategy = st.lists(
    st.tuples(st.lists(st.integers(0, 40), max_size=5), st.lists(st.integers(0, 40), max_size=5)),
    min_size=1,
    max_size=5,
)


def own_middles(raws):
    """naive_combine's groups for raw (t1, t2, ...) wedges, each through its own middle."""
    return [([(a, b)], []) if a < b else ([], [(b, a)]) for a, b, *_ in raws]


@st.composite
def crowded_bucket_strategy(draw):
    """A delta and raw (t1, t2, middle) wedges, each its own middle, crowded onto few stamps.

    Starts come from 0..12 and half the spans are delta itself, so rounds
    hold several wedges of one start, arrivals tie within and across
    rounds, and many sit exactly on a later round's expiry bound, its
    start plus delta.
    """
    delta = draw(st.integers(1, 10))
    span = st.one_of(st.just(delta), st.integers(1, delta))
    drawn = draw(st.lists(st.tuples(st.integers(0, 12), span, st.booleans()), max_size=60))
    return delta, [(ts, ts + d, m) if up else (ts + d, ts, m) for m, (ts, d, up) in enumerate(drawn)]


class TestTwinCounts:
    """_twin_counts over one bucket against a direct pairing of its wedges."""

    # delta 3: (0, 3) and (0, 2) share a round; (2, 3), (1, 4) twice and the
    # backward (3, 1) tie arrivals; (2, 3) arrives at the last round's bound, 0 + 3
    @example((3, [(0, 3, 0), (0, 2, 1), (3, 1, 2), (1, 4, 3), (1, 4, 4), (2, 3, 5), (4, 2, 6)]), 0)
    @example((3, [(0, 3, 0), (0, 2, 1), (3, 1, 2), (1, 4, 3), (1, 4, 4), (2, 3, 5), (4, 2, 6)]), 1)
    @PROPERTY_SETTINGS
    @given(crowded_bucket_strategy(), st.sampled_from((0, 1)))
    def test_crowded_buckets_match_naive_pairing(self, drawn, layer):
        delta, raws = drawn
        acc = [0] * 6
        _twin_counts(_normalized(raws), delta, acc, layer)
        assert acc == naive_combine(own_middles(raws), delta, layer == 0)

    @PROPERTY_SETTINGS
    @given(legs_strategy, st.integers(0, 40), st.sampled_from((0, 1)))
    def test_engine_shaped_buckets_match_naive_pairing(self, legs, delta, layer):
        # each wedge the walk would build, here through its own middle so every pair counts
        raws = [(a, b, m) for m, (a, b, _) in enumerate(flat_bucket(legs_groups(legs, delta)))]
        acc = [0] * 6
        _twin_counts(_normalized(raws), delta, acc, layer)
        assert acc == naive_combine(own_middles(raws), delta, layer == 0)


class TestPairs:
    @PROPERTY_SETTINGS
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 3)), max_size=16),
        st.integers(0, 12),
        st.sampled_from((0, 1)),
        st.booleans(),
    )
    def test_inline_type_matches_classify_type(self, raws, delta, layer, corner):
        # corner order flips both stamps of every wedge, as _emit_bucket does
        # when the end ranks below the start; the type is the raw pair's
        wedges = [(b, a, m) for a, b, m in raws] if corner else raws
        expected = []
        for i, j in combinations(range(len(raws)), 2):
            (a1, b1, m1), (a2, b2, m2) = raws[i], raws[j]
            stamps = (a1, b1, a2, b2)
            if m1 == m2 or len(set(stamps)) != 4 or max(stamps) - min(stamps) > delta:
                continue
            expected.append((classify_type((a1, b1), (a2, b2), layer == 0), wedges[i], wedges[j]))
        assert list(_pairs(wedges, delta, layer)) == expected


class TestCombine:
    """_count_bucket on flat end buckets against a direct pairing of their wedges."""

    def test_single_bucket_is_a_no_op(self):
        # (1, 2) and (3, 4) through one middle come from parallel edges: no butterfly
        assert count_flat(flat_bucket([([(1, 2), (3, 4)], [])]), 10, True) == [0] * 6

    def test_two_singleton_buckets_within_delta(self):
        assert count_flat(flat_bucket([([(1, 2)], []), ([(3, 4)], [])]), 10, True) == [1, 0, 0, 0, 0, 0]

    def test_two_singleton_buckets_beyond_delta(self):
        assert count_flat(flat_bucket([([(1, 2)], []), ([(3, 4)], [])]), 2, True) == [0] * 6

    def test_lower_layer_start_flips_types(self):
        assert count_flat(flat_bucket([([(1, 2)], []), ([(3, 4)], [])]), 10, False) == [0, 1, 0, 0, 0, 0]

    # up to 72 wedges a bucket, so draws fall on both sides of the size at
    # which a bucket is swept instead of paired directly
    @PROPERTY_SETTINGS
    @given(
        st.lists(
            st.tuples(st.lists(wedge_strategy, max_size=6), st.lists(wedge_strategy, max_size=6)),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 40),
        st.booleans(),
    )
    def test_index_choice_does_not_change_combine(self, groups, delta, upper):
        # spans within delta, as the engines keep them; any middle may hold
        # a same-middle pair, so every run of two or more is swept for them
        groups = [
            ([w for w in fwd if w[1] - w[0] <= delta], [w for w in bwd if w[1] - w[0] <= delta])
            for fwd, bwd in groups
        ]
        expected = naive_combine(groups, delta, upper)
        for sweep in (_timestamp_counts, _twin_counts):
            assert count_flat(flat_bucket(groups), delta, upper, sweep, min_run=2) == expected

    # up to 125 wedges a bucket, again on both sides of the sweep size
    @PROPERTY_SETTINGS
    @given(legs_strategy, st.integers(0, 40), st.booleans())
    def test_engine_shaped_buckets_skip_short_runs(self, legs, delta, upper):
        # two same-middle wedges with four distinct stamps bring both
        # crossed wedges with them, so runs below four hold no such pair
        groups = legs_groups(legs, delta)
        expected = naive_combine(groups, delta, upper)
        for sweep in (_timestamp_counts, _twin_counts):
            for min_run in (2, 4):
                assert count_flat(flat_bucket(groups), delta, upper, sweep, min_run) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_buckets_on_both_sides_of_the_sweep_size(self, seed):
        rng = random.Random(seed)
        delta = 20
        sizes = set()
        for _ in range(40):
            legs = [
                ([rng.randrange(60) for _ in range(rng.randint(1, 4))], [rng.randrange(60) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(2, 5))
            ]
            groups = legs_groups(legs, delta)
            wedges = flat_bucket(groups)
            sizes.add(len(wedges) > _SMALL_BUCKET)
            expected = naive_combine(groups, delta, seed % 2 == 0)
            for sweep in (_timestamp_counts, _twin_counts):
                for min_run in (2, 4):
                    assert count_flat(wedges, delta, seed % 2 == 0, sweep, min_run) == expected
        assert sizes == {False, True}


def brute_force_buckets(g, priority, delta, raw):
    """{(layer, start, end): Counter of (t1, t2, middle) wedges} over every edge pair, buckets of one middle dropped.

    A wedge runs from a start through a middle to an end, both ranked
    below the start; unless raw, its stamps differ by 1..delta, and a
    bucket of two wedges is dropped unless its four stamps are distinct
    and span at most delta.
    """
    buckets: dict = {}
    for layer, starts, mids, sprio, mprio in (
        (0, g.upper_adj, g.lower_adj, priority.upper, priority.lower),
        (1, g.lower_adj, g.upper_adj, priority.lower, priority.upper),
    ):
        for s, row in enumerate(starts):
            for v, t1, _ in row:
                for w, t2, _ in mids[v]:
                    if mprio[v] < sprio[s] and sprio[w] < sprio[s] and (raw or 0 < abs(t2 - t1) <= delta):
                        buckets.setdefault((layer, s, w), Counter())[t1, t2, v] += 1

    def can_pair(wedges):
        if len({m for _, _, m in wedges}) < 2:
            return False
        if raw or sum(wedges.values()) > 2:
            return True
        (a1, b1, _), (a2, b2, _) = wedges
        stamps = {a1, b1, a2, b2}
        return len(stamps) == 4 and max(stamps) - min(stamps) <= delta

    return {key: wedges for key, wedges in buckets.items() if can_pair(wedges)}


def exhaustive_census(triples, delta):
    """Count valid 4-subsets directly, independent of every engine."""
    total = 0
    for quad in combinations(triples, 4):
        pairs = {(u, v) for u, v, _ in quad}
        if len(pairs) != 4:
            continue
        if len({u for u, _, _ in quad}) != 2 or len({v for _, v, _ in quad}) != 2:
            continue
        stamps = [t for _, _, t in quad]
        if len(set(stamps)) != 4 or max(stamps) - min(stamps) > delta:
            continue
        total += 1
    return total


class TestEngines:
    @pytest.mark.parametrize("engine", [count_baseline, count_optimized, count_extreme])
    def test_fixture_counts(self, engine):
        g1, p1 = build_priority(F1)
        assert engine(g1, p1, 3) == [0, 1, 0, 0, 0, 0]
        assert engine(g1, p1, 2) == [0] * 6
        g2, p2 = build_priority(F2)
        assert engine(g2, p2, 10) == [0, 1, 0, 0, 1, 0]

    def test_counts_without_third_party_modules(self):
        # a None entry in sys.modules makes any import of that name fail
        script = (
            "import sys\n"
            "sys.modules['sortedcontainers'] = None\n"
            "from tempobf import TemporalBipartiteGraph, compute_vertex_priority, count_extreme, oracle_count\n"
            f"g = TemporalBipartiteGraph.from_edges({F1!r})\n"
            "p = compute_vertex_priority(g)\n"
            "expected = oracle_count(g, 3)\n"
            "assert count_extreme(g, p, 3) == expected == [0, 1, 0, 0, 0, 0]\n"
        )
        src = str(Path(tempobf.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr

    def test_all_equal_timestamps_count_nothing(self):
        g, p = build_priority([("u1", "v1", 5), ("u1", "v2", 5), ("u2", "v1", 5), ("u2", "v2", 5)])
        for engine in (count_baseline, count_optimized, count_extreme):
            assert engine(g, p, 10) == [0] * 6

    def test_wide_wedge_cannot_pair(self):
        # the (1, 9) wedge spans more than delta, so the biclique counts nothing
        g, p = build_priority([("u1", "v1", 1), ("u1", "v2", 9), ("u2", "v1", 2), ("u2", "v2", 3)])
        for engine in (count_baseline, count_optimized, count_extreme):
            assert engine(g, p, 3) == [0] * 6

    # each priority ranks a graph with one vertex fewer than F1's in one layer
    @pytest.mark.parametrize("short", [F1[:2], (F1[0], F1[2])], ids=["upper-short", "lower-short"])
    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda g, p: count_baseline(g, p, 3), id="count_baseline"),
            pytest.param(lambda g, p: count_optimized(g, p, 3), id="count_optimized"),
            pytest.param(lambda g, p: count_extreme(g, p, 3), id="count_extreme"),
            pytest.param(lambda g, p: count_sampled(g, p, 3, 0.5), id="count_sampled"),
            pytest.param(lambda g, p: enumerate_baseline(g, p, 3, null_sink), id="enumerate_baseline"),
            pytest.param(lambda g, p: enumerate_optimized(g, p, 3, null_sink), id="enumerate_optimized"),
        ],
    )
    def test_priority_not_covering_the_graph_is_refused(self, run, short):
        # the vertex it does not rank would otherwise be read past the end of a rank list
        g = build_plain(F1)
        with pytest.raises(ValueError, match="^priority ranks"):
            run(g, compute_vertex_priority(build_plain(short)))

    @PROPERTY_SETTINGS
    @given(parallel_triples_strategy, st.data(), delta_strategy)
    def test_stale_priority_over_the_same_vertices_counts_exactly(self, triples, data, delta):
        # removals and insertions between existing vertices change degrees,
        # but the old ranking is still a strict order on the same vertices
        g = build_time(triples)
        stale = compute_vertex_priority(g)
        for e in data.draw(st.lists(st.sampled_from(g.edges()), unique=True, max_size=10), label="removed"):
            g.remove_edge(e)
        pairs = st.tuples(st.sampled_from(g.upper_tokens), st.sampled_from(g.lower_tokens), st.integers(0, 30))
        for u, v, t in data.draw(st.lists(pairs, max_size=10), label="inserted"):
            g.insert_edge(u, v, t)
        assert (g.upper_count, g.lower_count) == (len(stale.upper), len(stale.lower))
        oracle: list = []
        expected = oracle_enumerate(g, delta, oracle.append)
        for engine in (count_baseline, count_optimized, count_extreme):
            assert engine(g, stale, delta) == expected
        emitted: list = []
        assert enumerate_optimized(g, stale, delta, emitted.append) == expected
        assert Counter(emitted) == Counter(oracle)

    def test_scattered_middles_still_make_a_bucket(self):
        # s reaches middle a at t=1 and t=3 with b between, so its bucket for
        # end e lists middles a, b, a: first and last agree, yet it holds two
        # butterflies; the leaves z0..z2 make s the top-ranked vertex
        triples = [("s", "a", 1), ("s", "b", 2), ("s", "a", 3), ("e", "a", 4), ("e", "b", 5)]
        triples += [("s", f"z{k}", 0) for k in range(3)]
        g, priority = build_priority(triples)
        s, e = g.upper_tokens.index("s"), g.upper_tokens.index("e")
        a, b = g.lower_tokens.index("a"), g.lower_tokens.index("b")
        for raw in (False, True):
            assert list(_end_buckets(g, priority, 10, raw)) == [(0, s, e, [(1, 4, a), (2, 5, b), (3, 4, a)])]
        expected = oracle_count(g, 10)
        assert expected.total() == 2
        for engine in (count_baseline, count_optimized, count_extreme):
            assert engine(g, priority, 10) == expected
        assert enumerate_baseline(g, priority, 10, null_sink) == expected
        assert enumerate_optimized(g, priority, 10, null_sink) == expected

    # s reaches end e through middles a and b at delta 10; the leaves z0..z2 make s the top-ranked vertex
    @pytest.mark.parametrize(
        "stamps, raw_only",
        [
            pytest.param((1, 5, 3, 12), True, id="span-delta-plus-one"),
            pytest.param((1, 4, 4, 6), True, id="stamp-shared-across-legs"),
            pytest.param((1, 5, 3, 11), False, id="span-delta"),
            # b's edge to e is the earliest stamp, so the span runs from it to a's edge to e
            pytest.param((5, 15, 6, 4), True, id="backward-span-delta-plus-one"),
            pytest.param((5, 14, 6, 4), False, id="backward-span-delta"),
        ],
    )
    def test_two_wedge_bucket_leaves_the_walk_only_if_it_can_pair(self, stamps, raw_only):
        sa, ea, sb, eb = stamps
        triples = [("s", "a", sa), ("e", "a", ea), ("s", "b", sb), ("e", "b", eb)]
        triples += [("s", f"z{k}", 0) for k in range(3)]
        g, priority = build_priority(triples)
        s, e = g.upper_tokens.index("s"), g.upper_tokens.index("e")
        a, b = g.lower_tokens.index("a"), g.lower_tokens.index("b")
        bucket = [(0, s, e, [(sa, ea, a), (sb, eb, b)])]
        assert list(_end_buckets(g, priority, 10, raw=True)) == bucket
        assert list(_end_buckets(g, priority, 10)) == ([] if raw_only else bucket)
        expected = oracle_count(g, 10)
        assert expected.total() == (0 if raw_only else 1)
        stats: dict = {}
        assert count_baseline(g, priority, 10, stats=stats) == expected
        assert stats["pairs_examined"] == oracle_static_pairings(g) == 1
        for engine in (count_optimized, count_extreme):
            assert engine(g, priority, 10) == expected
        assert enumerate_baseline(g, priority, 10, null_sink) == expected
        assert enumerate_optimized(g, priority, 10, null_sink) == expected

    def test_three_wedge_bucket_of_dead_pairs_leaves_the_walk(self):
        # every pair of the three wedges spans more than delta 10, yet only two-wedge buckets are checked
        triples = [("s", "a", 1), ("e", "a", 5), ("s", "b", 20), ("e", "b", 25), ("s", "c", 40), ("e", "c", 45)]
        triples += [("s", f"z{k}", 0) for k in range(4)]
        g, priority = build_priority(triples)
        s, e = g.upper_tokens.index("s"), g.upper_tokens.index("e")
        a, b, c = (g.lower_tokens.index(m) for m in "abc")
        bucket = [(0, s, e, [(1, 5, a), (20, 25, b), (40, 45, c)])]
        for raw in (False, True):
            assert list(_end_buckets(g, priority, 10, raw)) == bucket
        assert oracle_count(g, 10).total() == 0
        for engine in (count_baseline, count_optimized, count_extreme):
            assert engine(g, priority, 10) == [0] * 6
        assert enumerate_baseline(g, priority, 10, null_sink) == [0] * 6
        assert enumerate_optimized(g, priority, 10, null_sink) == [0] * 6

    @PROPERTY_SETTINGS
    @given(parallel_triples_strategy, st.integers(0, 30), st.booleans())
    def test_end_buckets_match_a_brute_force_walk(self, triples, delta, raw):
        # drawn in any order, so parallel edges arrive out of time order and
        # each time row interleaves its neighbors' entries
        g, priority = build_priority(triples)
        got: dict = {}
        for layer, s, end, wedges in _end_buckets(g, priority, delta, raw):
            assert (layer, s, end) not in got
            got[layer, s, end] = Counter(wedges)
        assert got == brute_force_buckets(g, priority, delta, raw)

    def test_hub_buckets_on_both_sides_of_the_pair_threshold(self):
        # three hubs share all eight lower vertices through parallel edges,
        # so their end buckets are swept; the leaves' are paired directly
        rng = random.Random(0)
        triples = []
        for hub in ("h0", "h1", "h2"):
            for k in range(8):
                triples += [(hub, f"v{k}", rng.randrange(80)) for _ in range(rng.randint(1, 4))]
        for leaf in range(6):
            triples += [(f"u{leaf}", f"v{k}", rng.randrange(80)) for k in rng.sample(range(8), 3)]
        delta = 30
        g, priority = build_priority(triples)
        sizes = [len(wedges) for *_, wedges in _end_buckets(g, priority, delta)]
        assert min(sizes) <= _SMALL_BUCKET < max(sizes)
        oracle: list = []
        expected = oracle_enumerate(build_plain(triples), delta, oracle.append)
        assert expected.total() > 0
        assert count_optimized(g, priority, delta) == expected
        assert count_extreme(g, priority, delta) == expected
        emitted: list = []
        assert enumerate_optimized(g, priority, delta, emitted.append) == expected
        assert Counter(emitted) == Counter(oracle)

    def test_one_bucket_of_many_live_wedges(self):
        # s and e share middles m0 and m1 through 100 parallel edges per leg,
        # all inside one delta span: a single end bucket of 20,000 wedges that
        # all stay live in count_extreme's index until the sweep ends
        per_leg = 100
        stamps = random.Random(5).sample(range(1, 10_000), 4 * per_leg)
        legs = (("s", "m0"), ("e", "m0"), ("s", "m1"), ("e", "m1"))
        triples = [
            (u, v, t) for k, (u, v) in enumerate(legs) for t in stamps[k * per_leg:(k + 1) * per_leg]
        ]
        triples += [("s", "z0", 1), ("s", "z1", 2)]  # s takes the top rank
        delta = 10_000
        g, priority = build_priority(triples)
        (bucket,) = [wedges for *_, wedges in _end_buckets(g, priority, delta)]
        assert len(bucket) == 2 * per_leg * per_leg
        expected = count_optimized(g, priority, delta)
        assert expected.total() > 0
        assert count_extreme(g, priority, delta) == expected

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy)
    def test_engines_agree_with_oracle(self, triples, delta):
        oracle = oracle_count(build_plain(triples), delta)
        for got in all_engine_counts(triples, delta):
            assert got == oracle

    @PROPERTY_SETTINGS
    @given(parallel_triples_strategy, st.integers(0, 30))
    def test_parallel_edges_agree_with_baseline_and_oracle(self, triples, delta):
        g, priority = build_priority(triples)
        expected = count_baseline(g, priority, delta)
        assert expected == oracle_count(build_plain(triples), delta)
        assert count_optimized(g, priority, delta) == expected
        assert count_extreme(g, priority, delta) == expected
        baseline: list = []
        optimized: list = []
        assert enumerate_baseline(g, priority, delta, baseline.append) == expected
        assert enumerate_optimized(g, priority, delta, optimized.append) == expected
        assert Counter(baseline) == Counter(optimized)

    @PROPERTY_SETTINGS
    @given(cut_row_triples_strategy(), st.data())
    def test_windows_that_cut_rows_agree_with_oracle(self, triples, data):
        # half the draws take delta from the gaps between stamps, so wedges
        # sit right on a window's edge
        gaps = sorted({abs(a[2] - b[2]) for a in triples for b in triples if abs(a[2] - b[2]) <= 60})
        delta = data.draw(st.one_of(st.integers(0, 60), st.sampled_from(gaps)), label="delta")
        g, priority = build_priority(triples)
        oracle: list = []
        expected = oracle_enumerate(build_plain(triples), delta, oracle.append)
        assert expected == oracle_count(build_plain(triples), delta)
        for got in all_engine_counts(triples, delta):
            assert got == expected
        emitted: list = []
        assert enumerate_optimized(g, priority, delta, emitted.append) == expected
        assert Counter(emitted) == Counter(oracle)

    @pytest.mark.parametrize(
        "stamps, total",
        [
            pytest.param((500, 503, 510, 506), 1, id="wedge-span-equals-delta"),
            pytest.param((500, 503, 511, 506), 0, id="wedge-span-delta-plus-one"),
            pytest.param((510, 503, 500, 506), 1, id="backward-wedge-span-equals-delta"),
            pytest.param((511, 503, 500, 506), 0, id="backward-wedge-span-delta-plus-one"),
            pytest.param((500, 505, 510, 505), 0, id="equal-stamps"),
        ],
    )
    def test_window_boundaries_on_cut_rows(self, stamps, total):
        # stamps of (u1, v1), (u1, v2), (u2, v1), (u2, v2); u1 ranks highest,
        # so both wedges start there and the one through v1 spans
        # |stamps[2] - stamps[0]|.  Leaf edges at 0 and 1000 put both middle
        # rows beyond the delta window on either side.
        delta = 10
        corners = [("u1", "v1", stamps[0]), ("u1", "v2", stamps[1]), ("u2", "v1", stamps[2]), ("u2", "v2", stamps[3])]
        leaves = [("u1", "x0", 0), ("u1", "x1", 1000), ("u1", "x2", 1000)]
        leaves += [("y0", "v1", 0), ("y1", "v1", 1000), ("y2", "v2", 0), ("y3", "v2", 1000)]
        g, priority = build_priority(corners + leaves)
        u1, u2, v1, v2 = 0, 1, 0, 1
        assert (g.upper_tokens[u2], g.lower_tokens[v2]) == ("u2", "v2")
        assert priority.upper[u1] > max(priority.upper[u2], priority.lower[v1], priority.lower[v2])
        for v in (v1, v2):
            stamps = g.lower_times[v]
            assert stamps[0] < 500 - delta and stamps[-1] > 511 + delta
        assert oracle_count(build_plain(corners + leaves), delta).total() == total
        for got in (
            count_baseline(g, priority, delta),
            count_optimized(g, priority, delta),
            count_extreme(g, priority, delta),
            enumerate_optimized(g, priority, delta, null_sink),
        ):
            assert got.total() == total

    @PROPERTY_SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 3).map("u{}".format), st.integers(0, 3).map("v{}".format), st.integers(0, 30)), max_size=12), delta_strategy)
    def test_totals_match_exhaustive_census(self, triples, delta):
        g, priority = build_priority(triples)
        assert count_extreme(g, priority, delta).total() == exhaustive_census(triples, delta)

    @PROPERTY_SETTINGS
    @given(triples_strategy)
    def test_each_static_butterfly_examined_once(self, triples):
        g, priority = build_priority(triples)
        stats: dict = {}
        count_baseline(g, priority, 10, stats=stats)
        assert stats["pairs_examined"] == oracle_static_pairings(build_plain(triples))

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy, delta_strategy)
    def test_counts_monotone_in_delta(self, triples, d1, d2):
        lo, hi = sorted((d1, d2))
        g, priority = build_priority(triples)
        narrow = count_extreme(g, priority, lo)
        wide = count_extreme(g, priority, hi)
        assert all(narrow[i] <= wide[i] for i in range(6))


def span_of(g):
    """The graph's time span: its last stamp less its first."""
    stamps = [t for row in g.upper_times for t in row]
    return max(stamps) - min(stamps)


def spy_on_bisect_left(monkeypatch):
    """The argument tuples of every call the count module makes to bisect_left from now on."""
    calls = []
    real = count_module.bisect_left

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(count_module, "bisect_left", spy)
    return calls


class TestWholeRowWalk:
    """A graph whose span fits inside delta is walked on whole middle rows, with the same answers."""

    @PROPERTY_SETTINGS
    @given(
        st.lists(st.tuples(st.integers(0, 4).map("u{}".format), st.integers(0, 4).map("v{}".format), st.integers(0, 40)), min_size=4, max_size=28),
        st.booleans(),
        st.sampled_from((0, 1)),
    )
    def test_engines_agree_with_oracle_at_the_span_and_below(self, triples, swap, below):
        if swap:
            triples = [(v.replace("v", "u"), u.replace("u", "v"), t) for u, v, t in triples]
        g, priority = build_priority(triples)
        delta = span_of(g) - below
        assume(delta >= 0)
        oracle: list = []
        expected = oracle_enumerate(build_plain(triples), delta, oracle.append)
        for got in all_engine_counts(triples, delta):
            assert got == expected
        assert count_sampled(g, priority, delta, 1.0) == expected
        for engine in (enumerate_baseline, enumerate_optimized):
            emitted: list = []
            assert engine(g, priority, delta, emitted.append) == expected
            assert Counter(emitted) == Counter(oracle)

    def test_the_whole_walk_bisects_only_below_the_span(self, monkeypatch):
        g, priority = build_priority(HUB_TRIPLES)
        span = span_of(g)
        assert _check_walk(g, priority, span) and not _check_walk(g, priority, span - 1)
        calls = spy_on_bisect_left(monkeypatch)
        wide = list(_end_buckets(g, priority, span, whole=True))
        assert wide and not calls
        narrow = list(_end_buckets(g, priority, span - 1))
        assert narrow and calls
        # whole rows hold no wedge the windows drop once the span fits
        assert wide == list(_end_buckets(g, priority, span))

    def test_rows_that_each_fit_inside_delta_are_still_windowed(self, monkeypatch):
        # s's row spans 5..50 and e's 60..105, each inside delta 60, but the
        # graph spans 100: read whole, v0's row would give s a wedge 5 -> 105
        # whose pair with 50 -> 60 passes the two-wedge test's cross spans
        triples = [("s", "v0", 5), ("s", "v1", 50), ("e", "v0", 105), ("e", "v1", 60), ("s", "x0", 20), ("s", "x1", 30)]
        g, priority = build_priority(triples)
        assert span_of(g) == 100
        for delta, total in ((60, 0), (100, 1)):
            assert oracle_count(build_plain(triples), delta).total() == total
            for got in all_engine_counts(triples, delta):
                assert got.total() == total
        assert not _check_walk(g, priority, 60)
        calls = spy_on_bisect_left(monkeypatch)
        assert list(_end_buckets(g, priority, 60)) == []
        assert calls

    def test_a_chunked_walk_bisects_only_below_the_span(self, monkeypatch):
        g, priority = build_priority(HUB_TRIPLES)
        span = span_of(g)
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        chunks = _chunks(g)
        assert len(chunks) > 10
        for delta, bisects in ((span, False), (span - 1, True)):
            whole = _check_walk(g, priority, delta)
            calls = spy_on_bisect_left(monkeypatch)
            walked = [bucket for chunk in chunks for bucket in _end_buckets(g, priority, delta, starts=chunk, whole=whole)]
            assert walked and bool(calls) == bisects

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_walk_of_a_call_takes_its_one_whole_row_rule(self, forks, monkeypatch, workers):
        # the caller walks every chunk here, as each fork fails; a forked child walks with the rule its parent decided
        g, priority = build_priority(HUB_TRIPLES)
        span = span_of(g)
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
        walk = count_module._end_buckets
        rules = []

        def recording_walk(g, priority, delta, raw=False, starts=None, whole=False):
            rules.append((starts, whole))
            return walk(g, priority, delta, raw, starts, whole)

        monkeypatch.setattr(count_module, "_end_buckets", recording_walk)
        monkeypatch.setattr(enumeration_module, "_end_buckets", recording_walk)
        for delta in (span, span - 1):
            for run in (count_extreme, count_optimized, partial(enumerate_optimized, sink=null_sink)):
                rules.clear()
                assert run(g, priority, delta, workers=workers).total() > 0
                assert [starts for starts, _ in rules] == _chunks(g)
                assert {whole for _, whole in rules} == {delta == span}
        assert len(forks) == 6 * (workers - 1)


class TestSampling:
    def test_degenerate_probability_is_exact(self):
        g, p = build_priority(F1)
        estimate = count_sampled(g, p, 3, 1.0, seed=123)
        assert estimate == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert all(isinstance(c, float) for c in estimate)

    def test_seeded_drop_of_one_wing_edge(self):
        # seed 9 at p=0.5 keeps the first three edges and drops (u2, v2, 4)
        g, p = build_priority(F1)
        assert count_sampled(g, p, 3, 0.5, seed=9) == [0.0] * 6

    def test_full_retention_scales_by_inverse_fourth_power(self):
        g, p = build_priority(F1)
        def keeps_all_four(s: int) -> bool:
            rng = random.Random(s)
            return all(rng.random() < 0.5 for _ in range(4))

        seed = next(s for s in range(1000) if keeps_all_four(s))
        assert count_sampled(g, p, 3, 0.5, seed=seed) == [0.0, 16.0, 0.0, 0.0, 0.0, 0.0]

    def test_same_seed_same_estimate(self):
        g, p = build_priority(F2)
        assert count_sampled(g, p, 10, 0.7, seed=5) == count_sampled(g, p, 10, 0.7, seed=5)

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.0001])
    def test_probability_out_of_range_rejected(self, bad):
        g, p = build_priority(F1)
        with pytest.raises(ValueError, match="sample_p"):
            count_sampled(g, p, 3, bad)

    @pytest.mark.parametrize("tiny", [5e-324, 1e-80, 8.5e-78])
    def test_probability_whose_scale_overflows_rejected_before_any_draw(self, tiny, monkeypatch):
        # tiny ** -4 overflows a float, so no estimate could be scaled from the sample
        g, p = build_priority(F1)
        draws = []
        monkeypatch.setattr(count_module.random, "Random", lambda seed: draws.append(seed))
        with pytest.raises(ValueError, match=rf"^sample_p must be in \(0, 1\] with sample_p \*\* -4 finite, got {tiny}$"):
            count_sampled(g, p, 3, tiny)
        assert draws == []

    def test_smallest_probabilities_whose_scale_is_finite_still_estimate(self):
        g, p = build_priority(F1)
        for small in (8.7e-78, 1e-60):
            assert count_sampled(g, p, 3, small, seed=1) == [0.0] * 6

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def test_estimates_are_integer_multiples_of_the_scale(self, seed):
        g, p = build_priority(F2)
        estimate = count_sampled(g, p, 10, 0.5, seed=seed)
        assert all(c % 16 == 0 and c >= 0 for c in estimate)


def drawn_mask(g, sample_p, seed):
    """count_sampled's keep-mask: one draw per edge, in uid order, set where the edge is kept."""
    rng = random.Random(seed)
    keep = bytearray(g._next_uid)
    for e in g.edges():
        keep[e.uid] = rng.random() < sample_p
    return keep


def sampled_by_rebuild(g, delta, sample_p, seed):
    """count_sampled's estimate by rebuilding the kept edges from their tokens, in uid order."""
    rng = random.Random(seed)
    kept = [(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t) for e in g.edges() if rng.random() < sample_p]
    sub, sub_priority = build_priority(kept)
    return count_extreme(sub, sub_priority, delta).scaled(sample_p**-4)


@st.composite
def gapped_graph_strategy(draw):
    """A graph and its priority, possibly after removals and insertions that leave uid gaps."""
    g = build_time(draw(parallel_triples_strategy))
    for e in draw(st.lists(st.sampled_from(g.edges()), unique=True, max_size=10)):
        g.remove_edge(e)
    for u, v, t in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 30)), max_size=8)):
        g.insert_edge(f"u{u}", f"v{v}", t)
    return g, compute_vertex_priority(g)


@st.composite
def masked_graph_strategy(draw):
    """A graph with parallel edges and stamps shared by several uids, in either layer order, maybe with a freed
    and re-inserted uid, and a keep-mask over its uids."""
    triples = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=40))
    if draw(st.booleans(), label="layers swapped"):
        triples = [(v, u, t) for u, v, t in triples]
    g = build_plain([(f"u{u}", f"v{v}", t) for u, v, t in triples])
    if draw(st.booleans(), label="re-inserted"):
        # the freed uid leaves a gap; the copy takes a new uid after every equal stamp
        e = draw(st.sampled_from(g.edges()))
        g.remove_edge(e)
        g.insert_edge(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t)
    return g, bytearray(draw(st.lists(st.booleans(), min_size=g._next_uid, max_size=g._next_uid)))


def filtered_time_rows(g, keep):
    """g's time rows rebuilt from its edges with keep set: each row's kept entries in (t, uid) order."""
    kept = [e for e in g.edges() if keep[e.uid]]
    by_time = lambda entry: (entry[1], entry[2])
    upper = [sorted(((e.v, e.t, e.uid) for e in kept if e.u == u), key=by_time) for u in range(g.upper_count)]
    lower = [sorted(((e.u, e.t, e.uid) for e in kept if e.v == v), key=by_time) for v in range(g.lower_count)]
    return upper, lower, len(kept)


class TestSampledSubgraph:
    """count_sampled filters the kept edges from g's time rows; the estimates equal a token rebuild's."""

    @PROPERTY_SETTINGS
    @given(gapped_graph_strategy(), delta_strategy, st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_matches_a_rebuild_from_tokens(self, built, delta, sample_p, seed):
        g, priority = built
        estimate = count_sampled(g, priority, delta, sample_p, seed)
        assert estimate.counts == sampled_by_rebuild(g, delta, sample_p, seed).counts

    @pytest.mark.parametrize("reinsert", [False, True], ids=["as built", "one edge re-inserted"])
    def test_graphs_with_and_without_a_freed_uid_match_a_rebuild(self, reinsert):
        # as built, the uids are 0..edge_count - 1 and need no sort; a re-inserted edge leaves a gap and moves to the end
        g = build_time(HUB_TRIPLES)
        if reinsert:
            e = g.edges()[7]
            g.remove_edge(e)
            g.insert_edge(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t)
        assert (g.edge_count == g._next_uid) is not reinsert
        for seed in range(5):
            estimate = count_sampled(g, compute_vertex_priority(g), HUB_DELTA, 0.6, seed)
            assert estimate.counts == sampled_by_rebuild(g, HUB_DELTA, 0.6, seed).counts
            assert estimate.total() > 0

    def test_parent_graph_untouched(self):
        g, priority = build_priority(F2)
        rows = ([row[:] for row in g.upper_adj], [row[:] for row in g.lower_adj], g.edge_count, g._next_uid)
        count_sampled(g, priority, 10, 0.5, seed=1)
        assert rows == ([row[:] for row in g.upper_adj], [row[:] for row in g.lower_adj], g.edge_count, g._next_uid)

    @PROPERTY_SETTINGS
    @given(masked_graph_strategy())
    @example((build_plain(F2), bytearray([1, 0, 0, 0, 1])))
    def test_the_sample_is_the_time_rows_filtered_by_the_mask(self, built):
        g, keep = built
        sub = g._subgraph(keep)
        upper, lower, kept = filtered_time_rows(g, keep)
        assert (sub.upper_adj, sub.lower_adj) == (upper, lower)
        stamps = lambda rows: [[t for _, t, _ in row] for row in rows]
        assert (sub.upper_times, sub.lower_times) == (stamps(upper), stamps(lower))
        assert (sub.edge_count, sub._next_uid) == (kept, g._next_uid)
        assert (sub.upper_tokens, sub.lower_tokens) == (g.upper_tokens, g.lower_tokens)


class TestSampleRanking:
    """count_sampled counts its sample under the caller's ranking; any injective ranking of every vertex gives the same estimate."""

    @staticmethod
    def own_ranking_estimate(g, delta, sample_p, seed):
        sub = g._subgraph(drawn_mask(g, sample_p, seed))
        return count_extreme(sub, compute_vertex_priority(sub), delta).scaled(sample_p**-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_hub_estimate_equals_the_sample_counted_under_its_own_ranking(self, seed):
        g, priority = build_priority(HUB_TRIPLES)
        estimate = count_sampled(g, priority, HUB_DELTA, 0.6, seed)
        assert estimate.total() > 0
        assert estimate.counts == self.own_ranking_estimate(g, HUB_DELTA, 0.6, seed).counts

    @PROPERTY_SETTINGS
    @given(gapped_graph_strategy(), delta_strategy, st.floats(0.05, 0.95), st.integers(0, 4))
    def test_estimate_equals_the_sample_counted_under_its_own_ranking(self, built, delta, sample_p, seed):
        g, priority = built
        estimate = count_sampled(g, priority, delta, sample_p, seed)
        assert estimate.counts == self.own_ranking_estimate(g, delta, sample_p, seed).counts

    def test_a_ranking_from_before_a_removal_gives_the_same_estimate(self):
        def without(i):
            g = build_plain(HUB_TRIPLES)
            g.remove_edge(g.edges()[i])
            return g, compute_vertex_priority(g)

        before = compute_vertex_priority(build_plain(HUB_TRIPLES))
        # the first edge whose removal moves some rank
        g, after = next(without(i) for i in range(len(HUB_TRIPLES)) if without(i)[1] != before)
        for seed in range(5):
            estimate = count_sampled(g, before, HUB_DELTA, 0.6, seed)
            assert estimate.total() > 0
            assert estimate.counts == count_sampled(g, after, HUB_DELTA, 0.6, seed).counts


# -- the fork pool -------------------------------------------------------------

# a skewed graph whose buckets run both ways, from starts in both layers
POOL_TRIPLES = gen_random_graph(12, 12, 150, 400, skew=True, seed=3)
POOL_DELTA = 60


def serial_counts(g, priority, delta):
    return count_optimized(g, priority, delta, workers=1), count_extreme(g, priority, delta, workers=1)


@pytest.fixture
def pool_graph():
    g, priority = build_priority(POOL_TRIPLES)
    expected = serial_counts(g, priority, POOL_DELTA)
    assert expected[0] == expected[1] and expected[0].total() > 0
    return g, priority, expected


def weights_of(g):
    """The weight of each start, (layer, id) keyed: its time row's length."""
    return {(layer, s): len(row) for layer, rows in enumerate((g.upper_adj, g.lower_adj)) for s, row in enumerate(rows)}


def chunk_starts(chunk):
    """A chunk's (layer, id) starts, in the order it walks them."""
    return [(layer, s) for layer in (0, 1) for s in chunk[layer]]


class TestChunks:
    """The chunks: every start in one, heaviest first, a heavy start alone; they sum to the whole walk."""

    @PROPERTY_SETTINGS
    @given(parallel_triples_strategy, delta_strategy, st.booleans())
    def test_chunks_sum_to_the_serial_counts(self, triples, delta, swap):
        if swap:
            triples = [(v.replace("v", "u"), u.replace("u", "v"), t) for u, v, t in triples]
        g, priority = build_priority(triples)
        whole = _check_walk(g, priority, delta)
        buckets = Counter((layer, s, end) for layer, s, end, _ in _end_buckets(g, priority, delta))
        expected = serial_counts(g, priority, delta)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pool_module, "_EDGES_PER_PART", 1)
            chunks = _chunks(g)
        walked = Counter(
            (layer, s, end)
            for chunk in chunks
            for layer, s, end, _ in _end_buckets(g, priority, delta, starts=chunk, whole=whole)
        )
        assert walked == buckets
        for sweep, serial in zip((_timestamp_counts, _twin_counts), expected):
            every, same = _count_part(g, priority, delta, whole, sweep, enumerate(chunks))
            assert [a - b for a, b in zip(every, same)] == serial

    @PROPERTY_SETTINGS
    @given(triples_strategy, st.booleans())
    @example(POOL_TRIPLES, False)
    @example(POOL_TRIPLES, True)
    @example(HUB_TRIPLES, False)
    @example([], False)
    @example([("u0", "v0", 1)], False)
    def test_each_start_sits_in_one_chunk_heaviest_first(self, triples, swap):
        if swap:
            triples = [(v.replace("v", "u"), u.replace("u", "v"), t) for u, v, t in triples]
        g, priority = build_priority(triples)
        # below the size rule the pool never forks, and the walk is one chunk: every start in id order
        assert g.edge_count < 2 * pool_module._EDGES_PER_PART
        assert _chunks(g) == [None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pool_module, "_EDGES_PER_PART", 1)
            chunks = _chunks(g)
            # the plan is the graph's alone: the same for any number of usable CPUs
            for cpus in (1, 2, 4):
                mp.setattr(pool_module, "_usable_cpus", lambda: cpus)
                assert _chunks(g) == chunks
                assert pool_module._processes(g, None) == max(1, min(cpus, g.edge_count))
        if g.edge_count < 2:
            assert chunks == [None]
            return
        weights = weights_of(g)
        # every start of both layers, in exactly one chunk
        walked = [start for chunk in chunks for start in chunk_starts(chunk)]
        assert sorted(walked) == sorted(weights)
        assert 0 < len(chunks) <= pool_module._CHUNKS == 64
        share = sum(weights.values()) / 64
        order = [sorted(chunk_starts(chunk), key=lambda start: (-weights[start], start)) for chunk in chunks]
        # heaviest first, ties in (layer, id) order, across and within chunks
        assert sum(order, []) == sorted(weights, key=lambda start: (-weights[start], start))
        for chunk in chunks:
            for layer in (0, 1):
                assert list(chunk[layer]) == sorted(chunk[layer], key=lambda s: (-weights[layer, s], s))
        for starts in order:
            assert starts
            load = sum(weights[start] for start in starts)
            # a start heavier than a chunk's share sits alone; a chunk is cut once it reaches its share
            assert weights[starts[0]] <= share or len(starts) == 1
            assert load <= share + weights[starts[-1]]
        # read from the graph alone: a graph grown edge by edge is cut alike
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pool_module, "_EDGES_PER_PART", 1)
            assert _chunks(build_time(triples)) == chunks

    def test_a_graph_of_many_light_starts_is_cut_in_64_chunks(self, monkeypatch):
        g = build_plain([(f"u{k}", f"v{k}", k) for k in range(100)])
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 50)
        chunks = _chunks(g)
        assert len(chunks) == 64
        assert sorted(start for chunk in chunks for start in chunk_starts(chunk)) == sorted(weights_of(g))
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 51)
        assert _chunks(g) == [None]


class TestForkRules:
    """Which calls fork: a recording fake os.fork shows it, and starts no process."""

    def test_one_worker_counts_here(self, forks, pool_graph, monkeypatch):
        g, priority, expected = pool_graph
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 4)
        assert serial_counts(g, priority, POOL_DELTA) == expected
        assert count_sampled(g, priority, POOL_DELTA, 1.0, workers=1) == expected[1]
        assert forks == []

    def test_one_usable_cpu_counts_here(self, forks, pool_graph, monkeypatch):
        g, priority, expected = pool_graph
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 1)
        assert count_extreme(g, priority, POOL_DELTA) == expected[1]
        assert count_optimized(g, priority, POOL_DELTA, workers=8) == expected[0]
        assert forks == []

    def test_input_below_the_size_rule_counts_here(self, forks, pool_graph, monkeypatch):
        g, priority, expected = pool_graph
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 4)
        assert g.edge_count < 2 * pool_module._EDGES_PER_PART
        assert _chunks(g) == [None]
        assert count_extreme(g, priority, POOL_DELTA, workers=4) == expected[1]
        assert count_optimized(g, priority, POOL_DELTA) == expected[0]
        assert forks == []

    def test_usable_cpus_are_read_once_a_call(self, forks, pool_graph, monkeypatch):
        g, priority, expected = pool_graph
        reads = []

        def usable_cpus():
            reads.append(1)
            return 4

        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(pool_module, "_usable_cpus", usable_cpus)
        assert count_extreme(g, priority, POOL_DELTA) == expected[1]
        assert len(reads) == 1

    def test_no_fork_in_the_os_counts_here(self, pool_graph, monkeypatch):
        g, priority, expected = pool_graph
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert count_extreme(g, priority, POOL_DELTA, workers=4) == expected[1]
        assert count_optimized(g, priority, POOL_DELTA, workers=4) == expected[0]

    def test_a_second_thread_alive_counts_here(self, forks, pool_graph, monkeypatch):
        g, priority, expected = pool_graph
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 4)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert count_extreme(g, priority, POOL_DELTA, workers=4) == expected[1]
            assert count_optimized(g, priority, POOL_DELTA, workers=4) == expected[0]
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []

    @pytest.mark.parametrize("per_part, parts", [(76, 1), (75, 2), (50, 3), (38, 3), (37, 4)])
    def test_each_process_takes_a_share_of_the_edges(self, forks, pool_graph, monkeypatch, per_part, parts):
        # 150 edges: one process per per_part edges, at most the 4 usable CPUs
        g, priority, expected = pool_graph
        assert g.edge_count == 150
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", per_part)
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 4)
        assert count_extreme(g, priority, POOL_DELTA) == expected[1]
        assert len(forks) == parts - 1
        assert count_optimized(g, priority, POOL_DELTA, workers=10**7) == expected[0]
        assert len(forks) == 2 * (parts - 1)

    @pytest.mark.parametrize("cpus", [None, 1, 2, 4])
    def test_ten_million_workers_fork_once_per_spare_cpu(self, forks, pool_graph, monkeypatch, cpus):
        # a part whose fork fails is counted in the calling process
        g, priority, expected = pool_graph
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        if cpus is not None:
            monkeypatch.setattr(pool_module, "_usable_cpus", lambda: cpus)
        usable = pool_module._usable_cpus()
        assert count_extreme(g, priority, POOL_DELTA, workers=10**7) == expected[1]
        assert len(forks) == usable - 1
        assert count_sampled(g, priority, POOL_DELTA, 1.0, workers=10**7) == expected[1]
        assert len(forks) == 2 * (usable - 1)
        assert count_optimized(g, priority, POOL_DELTA, workers=10**7) == expected[0]
        assert len(forks) == 3 * (usable - 1)

    def test_a_stale_priority_is_refused_before_any_fork(self, forks, pool_graph, monkeypatch):
        g, _, _ = pool_graph
        monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
        # ranked from the graph's first 20 edges, it misses vertices the rest reach
        stale = compute_vertex_priority(build_plain(POOL_TRIPLES[:20]))
        assert len(stale.upper) < g.upper_count or len(stale.lower) < g.lower_count
        for run in (count_optimized, count_extreme, partial(count_sampled, sample_p=0.5)):
            with pytest.raises(ValueError, match="^priority ranks"):
                run(g, stale, POOL_DELTA, workers=2)
        assert forks == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, forks, pool_graph, workers, monkeypatch):
        g, priority, _ = pool_graph
        for run in (count_optimized, count_extreme):
            with pytest.raises(ValueError, match="workers must be positive"):
                run(g, priority, POOL_DELTA, workers)
        samples = []
        subgraph = TemporalBipartiteGraph._subgraph
        monkeypatch.setattr(TemporalBipartiteGraph, "_subgraph", lambda g, keep: samples.append(keep) or subgraph(g, keep))
        with pytest.raises(ValueError, match="workers must be positive"):
            count_sampled(g, priority, POOL_DELTA, 0.5, workers=workers)
        assert samples == []
        assert forks == []


class TestForkedRuns:
    """Real two-process runs: the same vectors, and no child left behind, whatever ends the call."""

    def test_two_processes_count_the_serial_vectors(self, real_pool, pool_graph):
        g, priority, expected = pool_graph
        assert count_optimized(g, priority, POOL_DELTA, workers=2) == expected[0]
        assert count_extreme(g, priority, POOL_DELTA) == expected[1]
        assert len(real_pool) == 2
        assert_no_child_left()

    def test_a_hub_holding_most_edges_counts_the_serial_vectors(self, real_pool):
        g, priority = build_priority(HUB_TRIPLES)
        expected = serial_counts(g, priority, HUB_DELTA)
        assert expected[0] == expected[1] and expected[0].total() > 0
        weights = weights_of(g)
        # the hub, upper 0, is the heaviest start and holds more than half the edges
        assert max(weights.values()) == weights[0, 0] > g.edge_count / 2
        # so it is the first chunk, alone, and the other chunks share out the rest
        chunks = _chunks(g)
        assert chunk_starts(chunks[0]) == [(0, 0)]
        assert len(chunks) > 10
        assert count_optimized(g, priority, HUB_DELTA, workers=2) == expected[0]
        assert count_extreme(g, priority, HUB_DELTA, workers=2) == expected[1]
        assert len(real_pool) == 2
        assert_no_child_left()

    def test_a_slow_caller_leaves_every_other_chunk_to_the_child(self, real_pool, pool_graph, monkeypatch):
        g, priority, expected = pool_graph

        def enumerated(engine, workers):
            seen = []
            return engine(g, priority, POOL_DELTA, seen.append, workers), Counter(seen)

        runs = {
            count_optimized: lambda workers: count_optimized(g, priority, POOL_DELTA, workers),
            count_extreme: lambda workers: count_extreme(g, priority, POOL_DELTA, workers),
            enumerate_baseline: partial(enumerated, enumerate_baseline),
            enumerate_optimized: partial(enumerated, enumerate_optimized),
        }
        serial = {engine: run(1) for engine, run in runs.items()}
        assert serial[count_optimized] == expected[0] and serial[enumerate_optimized][0] == expected[1]
        chunks = _chunks(g)
        # several of the chunks the child walks come back in more than one reply
        monkeypatch.setattr(pool_module, "_REPLY_CHUNK", 2)
        assert sum(len(list(_end_buckets(g, priority, POOL_DELTA, starts=chunk))) > 2 for chunk in chunks) > 3
        parent = os.getpid()
        walk = count_module._end_buckets
        walked = []

        def slow_first_claim(g, priority, delta, raw=False, starts=None, whole=False):
            if os.getpid() == parent:
                walked.append(starts)
                if len(walked) == 1:
                    time.sleep(0.3)
            return walk(g, priority, delta, raw, starts, whole)

        monkeypatch.setattr(count_module, "_end_buckets", slow_first_claim)
        monkeypatch.setattr(enumeration_module, "_end_buckets", slow_first_claim)
        for engine, run in runs.items():
            walked.clear()
            assert run(2) == serial[engine]
            # the caller walked the one chunk it claimed first, if the child was not quicker to claim it too, and
            # the child claimed every other while it slept
            assert len(walked) <= 1 and all(starts in chunks for starts in walked)
        assert len(real_pool) == len(runs)
        assert_no_child_left()

    def test_a_failing_child_is_named(self, real_pool, pool_graph, monkeypatch):
        g, priority, _ = pool_graph
        count_part = count_module._count_part
        parent = os.getpid()

        def failing(g, priority, delta, whole, sweep, claims):
            if os.getpid() != parent:
                raise RuntimeError("part one broke")
            return count_part(g, priority, delta, whole, sweep, claims)

        monkeypatch.setattr(count_module, "_count_part", failing)
        with pytest.raises(ChildProcessError, match=r"^child process \d+ failed: RuntimeError: part one broke$") as exc:
            count_extreme(g, priority, POOL_DELTA, workers=2)
        assert str(real_pool[0]) in str(exc.value)

    def test_a_signal_right_after_a_fork_waits_until_the_child_is_registered(self, real_pool, pool_graph, monkeypatch):
        g, priority, _ = pool_graph
        recording_fork = os.fork

        def fork_then_alarm():
            pid = recording_fork()
            if pid:
                # a timer fires before the parent has filed its child
                os.kill(os.getpid(), signal.SIGALRM)
            return pid

        monkeypatch.setattr(os, "fork", fork_then_alarm)
        with pytest.raises(Alarm):
            with alarm(60):
                count_extreme(g, priority, POOL_DELTA, workers=2)
        (pid,) = real_pool
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("stop", ["interrupt", "bench timeout"])
    def test_a_stop_in_the_parent_kills_and_reaps_the_children(self, real_pool, pool_graph, monkeypatch, stop):
        g, priority, _ = pool_graph
        parent = os.getpid()

        def stuck(g, priority, delta, whole, sweep, claims):
            if os.getpid() == parent and stop == "interrupt":
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(count_module, "_count_part", stuck)
        began = time.perf_counter()
        with pytest.raises(KeyboardInterrupt if stop == "interrupt" else Alarm):
            with alarm(0.2):
                count_extreme(g, priority, POOL_DELTA, workers=2)
        assert time.perf_counter() - began < 10
        (pid,) = real_pool
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list this process's descriptors")
    @pytest.mark.parametrize("ending", ["normal", "failing child", "raising sink", "bench cap"])
    def test_every_ending_closes_the_pipes(self, real_pool, pool_graph, monkeypatch, ending):
        # the token pipe and each child's pipe
        g, priority, expected = pool_graph
        parent = os.getpid()
        count_part = count_module._count_part

        def failing(g, priority, delta, whole, sweep, claims):
            if os.getpid() != parent:
                raise RuntimeError("part one broke")
            return count_part(g, priority, delta, whole, sweep, claims)

        def stuck(g, priority, delta, whole, sweep, claims):
            time.sleep(60)

        def raising_sink(inst):
            raise OSError("stream closed")

        before = sorted(os.listdir("/proc/self/fd"))
        if ending == "normal":
            assert count_extreme(g, priority, POOL_DELTA, workers=2) == expected[1]
            assert enumerate_optimized(g, priority, POOL_DELTA, null_sink, workers=2) == expected[1]
        elif ending == "failing child":
            monkeypatch.setattr(count_module, "_count_part", failing)
            with pytest.raises(ChildProcessError, match="part one broke"):
                count_extreme(g, priority, POOL_DELTA, workers=2)
        elif ending == "raising sink":
            with pytest.raises(OSError, match="stream closed"):
                enumerate_optimized(g, priority, POOL_DELTA, raising_sink, workers=2)
        else:
            monkeypatch.setattr(count_module, "_count_part", stuck)
            with pytest.raises(Alarm):
                with alarm(0.2):
                    count_extreme(g, priority, POOL_DELTA, workers=2)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert real_pool
        assert_no_child_left()
