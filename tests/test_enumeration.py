"""Instance enumeration engines and their emitting probe."""

from __future__ import annotations

import os
import threading
import time
from array import array
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import tempobf.count as count_module
import tempobf.enumeration as enumeration_module
from tempobf import (
    ButterflyInstance,
    TwinOrderedIndex,
    count_extreme,
    enumerate_baseline,
    enumerate_optimized,
    gen_random_graph,
    null_sink,
    oracle_enumerate,
)
from tempobf.cli import _alarm, _BenchTimeout
from tempobf.count import _SMALL_BUCKET, _end_buckets
from tempobf.enumeration import _emit_bucket, _emitting_visit
from conftest import (
    F1,
    F2,
    HUB_DELTA,
    HUB_TRIPLES,
    PROPERTY_SETTINGS,
    assert_no_child_left,
    build_plain,
    build_priority,
    failing_fork,
)

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


def collect(engine, g, priority, delta, workers=None):
    seen = []
    tallies = engine(g, priority, delta, seen.append, workers)
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


# -- the fork pool -------------------------------------------------------------

# a skewed graph whose buckets run both ways, from starts in both layers
POOL_TRIPLES = gen_random_graph(12, 12, 150, 400, skew=True, seed=3)
POOL_DELTA = 60


def swap_layers(triples):
    return [(v.replace("v", "u"), u.replace("u", "v"), t) for u, v, t in triples]


def chunk_by_chunk(g, priority, delta, chunks, largest_paired):
    """The tallies and instances of emitting each of chunks in turn, in one process."""
    seen, acc = [], [0] * 6
    for chunk in chunks:
        for layer, s, end, wedges in _end_buckets(g, priority, delta, starts=chunk):
            _emit_bucket(layer, s, end, wedges, delta, seen.append, acc, largest_paired)
    return acc, seen


LARGEST_PAIRED = {enumerate_baseline: float("inf"), enumerate_optimized: _SMALL_BUCKET}


@pytest.fixture(scope="module")
def pool_reference():
    """The oracle's instances of the pool graph, enumerated once: the oracle takes seconds on it."""
    reference = Counter(_oracle_instances(POOL_TRIPLES, POOL_DELTA))
    assert sum(reference.values()) > 6
    return reference


@pytest.fixture
def pool_graph(pool_reference):
    return *build_priority(POOL_TRIPLES), pool_reference


class TestChunks:
    """Chunks emitted one after another, in the calling process, in id order, give the serial instances."""

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy, st.booleans(), st.integers(1, 4))
    def test_chunks_emit_the_serial_instances_in_chunk_order(self, triples, delta, swap, n):
        if swap:
            triples = swap_layers(triples)
        g, priority = build_priority(triples)
        forked = []
        with pytest.MonkeyPatch.context() as mp:
            # every fork fails, so the caller claims each chunk itself, in id order
            mp.setattr(count_module, "_EDGES_PER_PART", 1)
            mp.setattr(count_module, "_usable_cpus", lambda: 4)
            mp.setattr(os, "fork", failing_fork(forked))
            processes = count_module._processes(g, n)
            # a walk in one process is one chunk, the whole walk
            chunks = [None] if processes == 1 else count_module._chunks(g, processes)
            for engine in ENGINES:
                serial_tallies, serial = collect(engine, g, priority, delta, workers=1)
                tallies, seen = collect(engine, g, priority, delta, workers=n)
                assert Counter(seen) == Counter(serial)
                assert tallies == serial_tallies
                assert (tallies, seen) == chunk_by_chunk(g, priority, delta, chunks, LARGEST_PAIRED[engine])
        assert len(forked) == 2 * (processes - 1)


class TestForkRules:
    """Which calls fork: a recording fake os.fork shows it, and starts no process."""

    def test_one_worker_walks_here(self, forks, pool_graph, monkeypatch):
        g, priority, reference = pool_graph
        monkeypatch.setattr(count_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(count_module, "_usable_cpus", lambda: 4)
        for engine in ENGINES:
            assert Counter(collect(engine, g, priority, POOL_DELTA, workers=1)[1]) == reference
        assert forks == []

    def test_input_below_the_size_rule_walks_here(self, forks, pool_graph, monkeypatch):
        g, priority, reference = pool_graph
        monkeypatch.setattr(count_module, "_usable_cpus", lambda: 4)
        assert g.edge_count < 2 * count_module._EDGES_PER_PART
        for engine in ENGINES:
            assert Counter(collect(engine, g, priority, POOL_DELTA, workers=4)[1]) == reference
            assert Counter(collect(engine, g, priority, POOL_DELTA)[1]) == reference
        assert forks == []

    def test_a_second_thread_alive_walks_here(self, forks, pool_graph, monkeypatch):
        g, priority, reference = pool_graph
        monkeypatch.setattr(count_module, "_EDGES_PER_PART", 1)
        monkeypatch.setattr(count_module, "_usable_cpus", lambda: 4)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            for engine in ENGINES:
                assert Counter(collect(engine, g, priority, POOL_DELTA, workers=4)[1]) == reference
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []

    @pytest.mark.parametrize("cpus", [None, 1, 2, 4])
    def test_ten_million_workers_fork_once_per_spare_cpu(self, forks, pool_graph, monkeypatch, cpus):
        # a part whose fork fails is walked in the calling process
        g, priority, reference = pool_graph
        monkeypatch.setattr(count_module, "_EDGES_PER_PART", 1)
        if cpus is not None:
            monkeypatch.setattr(count_module, "_usable_cpus", lambda: cpus)
        usable = count_module._usable_cpus()
        assert Counter(collect(enumerate_baseline, g, priority, POOL_DELTA, workers=10**7)[1]) == reference
        assert len(forks) == usable - 1
        assert Counter(collect(enumerate_optimized, g, priority, POOL_DELTA, workers=10**7)[1]) == reference
        assert len(forks) == 2 * (usable - 1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, forks, pool_graph, workers):
        g, priority, _ = pool_graph
        for engine in ENGINES:
            with pytest.raises(ValueError, match="workers must be positive"):
                engine(g, priority, POOL_DELTA, null_sink, workers)
        assert forks == []


def slowed_walk(fail_claim=None, after=0, fail=None):
    """_end_buckets, but the caller sleeps in its first walk, and a forked child calls fail() in its fail_claim-th.

    While the caller sleeps, the children claim every other chunk.  A child
    fails before yielding the bucket after of the walk of its chunk with
    index fail_claim in claim order.  walk.walked lists the starts of each
    chunk the caller walks.
    """
    parent = os.getpid()
    calls = []

    def walk(g, priority, delta, starts):
        calls.append(starts)
        if os.getpid() == parent and len(calls) == 1:
            time.sleep(0.3)
        for i, bucket in enumerate(_end_buckets(g, priority, delta, starts=starts)):
            if os.getpid() != parent and len(calls) - 1 == fail_claim and i == after:
                fail()
            yield bucket

    walk.walked = calls
    return walk


class TestForkedRuns:
    """Real two-process runs: the oracle's instances, and no child left behind, whatever ends the call."""

    def test_two_processes_emit_the_oracle_instances(self, real_pool, pool_graph, monkeypatch):
        g, priority, reference = pool_graph
        # a chunk may come back in several replies
        monkeypatch.setattr(count_module, "_REPLY_CHUNK", 2)
        chunks = count_module._chunks(g, 2)
        assert max(sum(1 for _ in _end_buckets(g, priority, POOL_DELTA, starts=chunk)) for chunk in chunks) > 3 * 2
        expected_tallies = count_extreme(g, priority, POOL_DELTA, workers=1)
        for engine in ENGINES:
            tallies, seen = collect(engine, g, priority, POOL_DELTA, workers=2)
            assert Counter(seen) == reference
            assert tallies == expected_tallies
            # the order is the one the same chunks take in one process, whichever process walked each
            assert (tallies, seen) == chunk_by_chunk(g, priority, POOL_DELTA, chunks, LARGEST_PAIRED[engine])
        assert len(real_pool) == 2
        assert_no_child_left()

    def test_three_processes_emit_in_chunk_order(self, real_pool, pool_graph, monkeypatch):
        g, priority, reference = pool_graph
        # two children claim the chunks while the caller sleeps, and each chunk is read from the child whose claim names it
        monkeypatch.setattr(count_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(count_module, "_REPLY_CHUNK", 2)
        chunks = count_module._chunks(g, 3)
        for engine in ENGINES:
            walk = slowed_walk()
            monkeypatch.setattr(enumeration_module, "_end_buckets", walk)
            tallies, seen = collect(engine, g, priority, POOL_DELTA, workers=3)
            assert Counter(seen) == reference
            assert (tallies, seen) == chunk_by_chunk(g, priority, POOL_DELTA, chunks, LARGEST_PAIRED[engine])
            # a loaded host may start the children so fast that they claim every chunk
            assert len(walk.walked) <= 1
        assert len(real_pool) == 4
        assert_no_child_left()

    def test_a_hub_holding_most_edges_emits_the_serial_instances(self, real_pool):
        g, priority = build_priority(HUB_TRIPLES)
        chunks = count_module._chunks(g, 2)
        # the hub sits alone in the first chunk
        assert chunks[0] == (array("l", [0]), array("l"))
        for engine in ENGINES:
            serial_tallies, serial = collect(engine, g, priority, HUB_DELTA, workers=1)
            assert serial_tallies.total() > 0
            tallies, seen = collect(engine, g, priority, HUB_DELTA, workers=2)
            assert Counter(seen) == Counter(serial)
            assert tallies == serial_tallies
            # the hub's chunk is emitted first, whichever process walked it
            assert (tallies, seen) == chunk_by_chunk(g, priority, HUB_DELTA, chunks, LARGEST_PAIRED[engine])
        assert len(real_pool) == 2
        assert_no_child_left()

    def test_a_sink_that_raises_propagates(self, real_pool, pool_graph):
        g, priority, _ = pool_graph
        for engine in ENGINES:
            seen = []

            def sink(inst):
                seen.append(inst)
                if len(seen) == 3:
                    raise OSError("stream closed")

            with pytest.raises(OSError, match="stream closed"):
                engine(g, priority, POOL_DELTA, sink, workers=2)
            assert len(seen) == 3
            assert_no_child_left()
        assert len(real_pool) == 2

    def test_a_child_failing_mid_stream_is_named(self, real_pool, pool_graph, monkeypatch):
        g, priority, _ = pool_graph
        monkeypatch.setattr(count_module, "_REPLY_CHUNK", 2)

        def fail():
            raise RuntimeError("part one broke")

        # the child fails in its second chunk, after the one reply of two buckets it sent
        walk = slowed_walk(1, 2, fail)
        monkeypatch.setattr(enumeration_module, "_end_buckets", walk)
        seen = []
        with pytest.raises(ChildProcessError, match=r"^child process \d+ failed: RuntimeError: part one broke$") as exc:
            enumerate_optimized(g, priority, POOL_DELTA, seen.append, workers=2)
        assert str(real_pool[0]) in str(exc.value)
        # the child's first two claims are the two lowest ids the caller did not claim first, if it claimed any
        chunks = count_module._chunks(g, 2)
        _, second = [k for k, chunk in enumerate(chunks) if chunk not in walk.walked[:1]][:2]
        # every chunk before the child's second in whole, in id order, then the reply the child sent of that one
        buckets = [bucket for chunk in chunks[:second] for bucket in _end_buckets(g, priority, POOL_DELTA, starts=chunk)]
        tail = list(_end_buckets(g, priority, POOL_DELTA, starts=chunks[second]))
        assert len(tail) > 2
        expected = []
        for layer, s, end, wedges in buckets + tail[:2]:
            _emit_bucket(layer, s, end, wedges, POOL_DELTA, expected.append, [0] * 6, _SMALL_BUCKET)
        assert seen == expected
        assert_no_child_left()

    def test_a_child_ending_before_its_last_reply_is_named(self, real_pool, pool_graph, monkeypatch):
        g, priority, _ = pool_graph
        monkeypatch.setattr(enumeration_module, "_end_buckets", slowed_walk(0, 2, lambda: os._exit(3)))
        with pytest.raises(ChildProcessError, match=r"^child process \d+ ended with status 3 before its last reply$"):
            enumerate_baseline(g, priority, POOL_DELTA, null_sink, workers=2)
        assert_no_child_left()

    def test_a_bench_cap_while_reading_a_child_kills_it(self, real_pool, pool_graph, monkeypatch):
        g, priority, _ = pool_graph
        monkeypatch.setattr(enumeration_module, "_end_buckets", slowed_walk(0, 0, lambda: time.sleep(60)))
        began = time.perf_counter()
        with pytest.raises(_BenchTimeout):
            with _alarm(0.5):
                enumerate_optimized(g, priority, POOL_DELTA, null_sink, workers=2)
        assert time.perf_counter() - began < 10
        (pid,) = real_pool
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
