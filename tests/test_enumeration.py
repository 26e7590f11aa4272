"""Instance enumeration engines and their emitting probe."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tempobf import (
    ButterflyInstance,
    TwinOrderedIndex,
    count_extreme,
    enumerate_baseline,
    enumerate_optimized,
    null_sink,
    oracle_enumerate,
)
from tempobf.count import _SMALL_BUCKET
from tempobf.enumeration import _emit_bucket, _emitting_visit
from conftest import F1, F2, PROPERTY_SETTINGS, build_plain, build_priority

triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 4).map("u{}".format),
        st.integers(0, 4).map("v{}".format),
        st.integers(0, 40),
    ),
    max_size=24,
)
delta_strategy = st.integers(0, 50)

ENGINES = (enumerate_baseline, enumerate_optimized)


def as_key(inst: ButterflyInstance):
    return (inst.type_index, inst.upper, inst.lower, inst.stamps)


def collect(engine, g, priority, delta):
    seen = []
    tallies = engine(g, priority, delta, seen.append)
    return tallies, seen


class TestFixtures:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_instance(self, engine):
        g, priority = build_priority(F1)
        tallies, seen = collect(engine, g, priority, 3)
        assert tallies == [0, 1, 0, 0, 0, 0]
        (inst,) = seen
        assert inst.type_index == 1
        assert [g.upper_tokens[i] for i in inst.upper] == ["u1", "u2"]
        assert [g.lower_tokens[i] for i in inst.lower] == ["v1", "v2"]
        assert inst.stamps == (1, 3, 2, 4)
        assert inst.format_line(g) == "1\tu1\tu2\tv1\tv2\t1\t3\t2\t4"
        inst.check(g, 3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_instances_below_span(self, engine):
        g, priority = build_priority(F1)
        tallies, seen = collect(engine, g, priority, 2)
        assert tallies == [0] * 6
        assert seen == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_instances_with_mixed_direction(self, engine):
        g, priority = build_priority(F2)
        tallies, seen = collect(engine, g, priority, 10)
        assert tallies == [0, 1, 0, 0, 1, 0]
        assert Counter(i.type_index for i in seen) == Counter({1: 1, 4: 1})

    def test_null_sink_discards(self):
        g, priority = build_priority(F2)
        assert enumerate_optimized(g, priority, 10, null_sink) == [0, 1, 0, 0, 1, 0]


class TestAgreement:
    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy)
    def test_instance_multisets_match_everywhere(self, triples, delta):
        g, priority = build_priority(triples)
        reference = Counter(as_key(i) for i in _oracle_instances(triples, delta))
        for engine in ENGINES:
            _, seen = collect(engine, g, priority, delta)
            assert Counter(as_key(i) for i in seen) == reference

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy)
    def test_tallies_match_the_counting_engine(self, triples, delta):
        g, priority = build_priority(triples)
        expected = count_extreme(g, priority, delta)
        for engine in ENGINES:
            assert engine(g, priority, delta, null_sink) == expected

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy)
    def test_every_instance_passes_its_own_checks(self, triples, delta):
        g, priority = build_priority(triples)
        for engine in ENGINES:
            engine(g, priority, delta, lambda inst: inst.check(g, delta))

    def test_sink_failure_propagates(self):
        g, priority = build_priority(F1)

        def broken(_inst):
            raise OSError("stream closed")

        for engine in ENGINES:
            with pytest.raises(OSError, match="stream closed"):
                engine(g, priority, 3, broken)


def _oracle_instances(triples, delta):
    seen = []
    oracle_enumerate(build_plain(triples), delta, seen.append)
    return seen


def emitting_probe(layer=0, fixed=(0, 1)):
    """A probe of one twin index by the wedge through middle 100 with stamps (1, pivot).

    Returns (index, probe, instances, tallies); probe(pivot) visits that
    wedge against the index, with an empty index on the other side.
    """
    idx, seen, acc = TwinOrderedIndex(), [], [0] * 6
    visit = _emitting_visit(layer, fixed, seen.append, acc)
    return idx, lambda pivot: visit((1, pivot, 100, 1, pivot), idx, TwinOrderedIndex()), seen, acc


class TestEmittingProbe:
    # indexed wedges are (t_s, t_a, middle, c0, c1); each slice comes arrivals descending

    def test_bounded_scans_split_a_bucket(self):
        idx, probe, seen, acc = emitting_probe()
        for wedge in ((3, 5, 101, 3, 5), (3, 9, 102, 3, 9), (3, 12, 103, 3, 12)):
            idx.insert(wedge)
        probe(7)
        # the slice arriving before the pivot, then the one after it
        assert seen == [
            (2, (0, 1), (100, 101), (1, 7, 3, 5)),
            (1, (0, 1), (100, 103), (1, 7, 3, 12)),
            (1, (0, 1), (100, 102), (1, 7, 3, 9)),
        ]
        assert acc == [0, 2, 1, 0, 0, 0]

    def test_stamps_at_the_pivot_are_skipped(self):
        idx, probe, seen, acc = emitting_probe()
        # arrives at the pivot; starts at the pivot; covered; intersecting
        for wedge in ((3, 7, 101, 3, 7), (7, 9, 102, 7, 9), (2, 5, 103, 2, 5), (4, 8, 104, 4, 8)):
            idx.insert(wedge)
        probe(7)
        assert seen == [
            (2, (0, 1), (100, 103), (1, 7, 2, 5)),
            (1, (0, 1), (100, 104), (1, 7, 4, 8)),
        ]
        assert acc == [0, 1, 1, 0, 0, 0]

    def test_bucket_above_pivot_reports_whole(self):
        idx, probe, seen, acc = emitting_probe()
        # a backward wedge carries its corner-order stamps (t_a, t_s)
        idx.insert((10, 12, 7, 12, 10))
        probe(7)
        # middle 7 comes first
        assert seen == [(0, (0, 1), (7, 100), (12, 10, 1, 7))]
        assert acc == [1, 0, 0, 0, 0, 0]

    def test_empty_index_reports_nothing(self):
        _, probe, seen, acc = emitting_probe()
        probe(7)
        assert seen == []
        assert acc == [0] * 6

    def test_expiry_matches_counting_index(self):
        idx, probe, seen, acc = emitting_probe()
        idx.insert((2, 5, 1, 2, 5))
        idx.insert((3, 9, 2, 3, 9))
        idx.delete_above(6)
        probe(4)
        assert seen == [(1, (0, 1), (1, 100), (2, 5, 1, 4))]
        assert acc == [0, 1, 0, 0, 0, 0]

    def test_same_middle_entries_are_skipped(self):
        idx, probe, seen, acc = emitting_probe(layer=1)
        idx.insert((10, 12, 100, 10, 12))
        idx.insert((10, 13, 101, 10, 13))
        probe(7)
        # a lower start interleaves the stamps, (a0, b0, a1, b1), and xors the type by 1
        assert seen == [(1, (100, 101), (0, 1), (1, 10, 7, 13))]
        assert acc == [0, 1, 0, 0, 0, 0]

    def test_lower_layer_covered_slice(self):
        idx, probe, seen, acc = emitting_probe(layer=1, fixed=(4, 5))
        # covered, one middle on either side of the probe's, and a same-middle one
        for wedge in ((2, 5, 103, 5, 2), (3, 6, 99, 3, 6), (4, 6, 100, 4, 6)):
            idx.insert(wedge)
        probe(7)
        assert seen == [
            (3, (99, 100), (4, 5), (3, 1, 6, 7)),
            (3, (100, 103), (4, 5), (1, 5, 7, 2)),
        ]
        assert acc == [0, 0, 0, 2, 0, 0]


@st.composite
def swept_buckets(draw):
    """(layer, start, end, delta, wedges): one end bucket big enough to be swept.

    Stamps come from a narrow range, so wedges often arrive or start at
    another wedge's arrival, and few middles carry many wedges each.
    """
    delta = draw(st.integers(1, 12))
    wedges = []
    for _ in range(draw(st.integers(_SMALL_BUCKET + 1, 60))):
        t1 = draw(st.integers(0, 15))
        t2 = t1 + draw(st.integers(1, delta)) * draw(st.sampled_from((-1, 1)))
        wedges.append((t1, t2, draw(st.integers(0, 5))))
    wedges.sort(key=lambda w: w[2])  # each middle's wedges form one run, as the walk gives them
    start, end = draw(st.sampled_from(((0, 1), (1, 0), (2, 7), (7, 2))))
    return draw(st.sampled_from((0, 1))), start, end, delta, wedges


def emitted(bucket, largest_paired):
    layer, start, end, delta, wedges = bucket
    seen, acc = [], [0] * 6
    _emit_bucket(layer, start, end, wedges, delta, seen.append, acc, largest_paired)
    return Counter(seen), acc


class TestSweptBuckets:
    @PROPERTY_SETTINGS
    @given(swept_buckets())
    def test_sweep_emits_what_pairing_does(self, bucket):
        swept, swept_acc = emitted(bucket, 0)
        paired, paired_acc = emitted(bucket, float("inf"))
        assert swept == paired
        assert swept_acc == paired_acc
        assert sum(paired_acc) == sum(paired.values())


def canonical_case(start_upper, start_first, probe_low_mid, stamps):
    """A 2x2 biclique whose start corner, corner ids and probing wedge are chosen.

    Start s and end e share a layer, middles m0 and m1 (ids 0 and 1) the
    other; two pendant edges make s the max-priority corner.  stamps gives
    the (s, e) timestamps of the wedge through m0 and of the one through
    m1; probe_low_mid False hands m0 the other wedge's pair, so the wedge
    holding the earliest stamp, which probes the other, runs through m1.
    """
    low, high = stamps if probe_low_mid else stamps[::-1]
    first, second = ("s", "e") if start_first else ("e", "s")
    t = {("s", "m0"): low[0], ("e", "m0"): low[1], ("s", "m1"): high[0], ("e", "m1"): high[1]}
    pairs = [(first, "m0"), (second, "m0"), (first, "m1"), (second, "m1"), ("s", "z0"), ("s", "z1")]
    times = [t.get(p, 100 + i) for i, p in enumerate(pairs)]
    if start_upper:
        return [(a, b, ti) for (a, b), ti in zip(pairs, times)]
    return [(b, a, ti) for (a, b), ti in zip(pairs, times)]


class TestCanonicalOrder:
    @pytest.mark.parametrize("start_upper", [True, False], ids=["upper-start", "lower-start"])
    @pytest.mark.parametrize("start_first", [True, False], ids=["start-id-low", "start-id-high"])
    @pytest.mark.parametrize("probe_low_mid", [True, False], ids=["mid-lt-omid", "mid-gt-omid"])
    @pytest.mark.parametrize(
        "stamps", [((1, 3), (2, 4)), ((1, 4), (3, 2))], ids=["same-direction", "mixed-direction"]
    )
    def test_engines_match_the_oracle(self, start_upper, start_first, probe_low_mid, stamps):
        triples = canonical_case(start_upper, start_first, probe_low_mid, stamps)
        g, priority = build_priority(triples)
        upper_layer = (g.upper_tokens, priority.upper)
        lower_layer = (g.lower_tokens, priority.lower)
        tokens, ranks = upper_layer if start_upper else lower_layer
        mid_tokens = (lower_layer if start_upper else upper_layer)[0]
        # the case is what it says: s holds the top rank, ids and the
        # earliest stamp's middle are as chosen
        assert ranks[tokens.index("s")] == g.upper_count + g.lower_count
        assert (tokens.index("s") < tokens.index("e")) == start_first
        assert mid_tokens[:2] == ["m0", "m1"]
        earliest = min(triples, key=lambda e: e[2])
        assert ("m0" in earliest) == probe_low_mid
        reference = _oracle_instances(triples, 10)
        assert len(reference) == 1
        for engine in ENGINES:
            _, seen = collect(engine, g, priority, 10)
            assert Counter(seen) == Counter(reference)
            for inst in seen:
                inst.check(g, 10)
