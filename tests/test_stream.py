"""Batched streaming maintenance, its per-edge counter and the sliding-window driver."""

from __future__ import annotations

import random
import threading
import time
from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from tempobf import (
    CountVector,
    SlidingWindow,
    StreamOrderError,
    TemporalBipartiteGraph,
    TemporalEdge,
    batch_update,
    compute_vertex_priority,
    count_baseline,
    count_extreme,
    count_optimized,
    oracle_contains,
    oracle_count,
    run_sliding_window,
)
from tempobf.stream import _count_edge_extreme
from conftest import F1, PROPERTY_SETTINGS, assert_times_match_rows, build_plain, build_priority, build_time

triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 4).map("u{}".format),
        st.integers(0, 4).map("v{}".format),
        st.integers(0, 40),
    ),
    max_size=20,
)
delta_strategy = st.integers(0, 50)


def exact_counts(triples, delta):
    g, priority = build_priority(triples)
    return count_extreme(g, priority, delta)


class TestCountEdgeExtreme:
    def test_every_wing_of_the_fixture_butterfly(self):
        # F1's butterfly is counted once from its oldest wing as the minimum and once from its newest as the maximum
        g = build_time(F1)
        edges = g.edges()
        for i, e in enumerate(edges):
            as_min = [0, 1, 0, 0, 0, 0] if i == 0 else [0] * 6
            as_max = [0, 1, 0, 0, 0, 0] if i == 3 else [0] * 6
            assert _count_edge_extreme(g, 3, e, False) == as_min
            assert _count_edge_extreme(g, 3, e, True) == as_max

    def test_isolated_pair_edge(self):
        g = build_time(F1 + (("u3", "v3", 2),))
        lone = next(e for e in g.edges() if g.upper_tokens[e.u] == "u3")
        assert _count_edge_extreme(g, 3, lone, False) == [0] * 6
        assert _count_edge_extreme(g, 3, lone, True) == [0] * 6


def _fill_edge_by_edge(triples, delta):
    """Insert triples one per batch_update step, checking live against the oracle after each."""
    g = TemporalBipartiteGraph()
    live = CountVector.zeros()
    for u, v, t in triples:
        batch_update(g, delta, [], [(u, v, t)], live)
        assert live == oracle_count(g, delta)
    return g, live


class TestSingleEdgeSteps:
    def test_insert_walkthrough_tracks_the_oracle(self):
        g, live = _fill_edge_by_edge(F1[:3], 3)
        assert live == [0] * 6
        batch_update(g, 3, [], [F1[3]], live)
        assert live == oracle_count(g, 3) == [0, 1, 0, 0, 0, 0]
        # an edge that closes no butterfly leaves live as it was
        batch_update(g, 3, [], [("u3", "v3", 5)], live)
        assert live == [0, 1, 0, 0, 0, 0]

    def test_delete_walkthrough_returns_to_zero(self):
        g, live = _fill_edge_by_edge(F1, 3)
        while g.edge_count:
            batch_update(g, 3, g.edges()[:1], [], live)
            assert live == oracle_count(g, 3)
            assert all(c >= 0 for c in live)
        assert live == [0] * 6

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy)
    def test_fill_then_drain_tracks_the_oracle(self, triples, delta):
        g, live = _fill_edge_by_edge(sorted(triples, key=lambda e: e[2]), delta)
        assert live == exact_counts(triples, delta)
        while g.edge_count:
            batch_update(g, delta, g.edges()[:1], [], live)
            assert live == oracle_count(g, delta)
        assert live == [0] * 6


class TestBatchUpdate:
    def test_prefix_deletion_of_the_fixture(self):
        g = build_time(F1)
        live = CountVector([0, 1, 0, 0, 0, 0])
        stats: dict = {}
        deletions = g.edges()[:2]
        inserted = batch_update(g, 3, deletions, [], live, stats=stats)
        assert inserted == []
        assert live == [0] * 6
        assert stats["removed"] == [0, 1, 0, 0, 0, 0]
        assert stats["added"] == [0] * 6
        assert g.edge_count == 2

    def test_suffix_insertion_builds_the_fixture(self):
        g = TemporalBipartiteGraph()
        live = CountVector.zeros()
        stats: dict = {}
        inserted = batch_update(g, 3, [], list(F1), live, stats=stats)
        assert [(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t) for e in inserted] == list(F1)
        assert live == [0, 1, 0, 0, 0, 0]
        assert stats["added"] == [0, 1, 0, 0, 0, 0]
        assert stats["removed"] == [0] * 6

    def test_empty_batches_change_nothing(self):
        g = build_time(F1)
        live = CountVector([0, 1, 0, 0, 0, 0])
        assert batch_update(g, 3, [], [], live) == []
        assert live == [0, 1, 0, 0, 0, 0]

    def test_worker_counts_agree(self):
        for workers in (1, 2, 4):
            g = build_time(F1)
            live = CountVector([0, 1, 0, 0, 0, 0])
            batch_update(g, 3, g.edges()[:2], [("u9", "v9", 9)], live, workers=workers)
            assert live == [0] * 6

    def test_full_drain_and_refill_round_trips(self):
        triples = sorted(F1 + (("u1", "v2", 6), ("u3", "v1", 7)), key=lambda e: e[2])
        g = build_time(triples)
        live = oracle_count(g, 4).copy()
        before = live.copy()
        batch_update(g, 4, g.edges(), [], live)
        assert live == [0] * 6 and g.edge_count == 0
        batch_update(g, 4, [], triples, live)
        assert live == before
        assert oracle_count(g, 4) == before

    def test_runs_share_hub_maps_within_their_spans(self):
        # every edge joins hub a or b to a spoke, one per time unit; at delta 10 the
        # insertion splits into runs from 1, 12, 23, 34 and 45, the deletion of the
        # 30 oldest into runs from 1, 12 and 23, and each run's map of a hub holds
        # parallel hub-spoke edges outside most of the run's edges' own ranges
        delta = 10
        batch = [("b" if t % 3 == 0 else "a", "xyz"[t % 4 % 3], t) for t in range(1, 46)]
        g = TemporalBipartiteGraph()
        live = CountVector.zeros()
        stats: dict = {}
        batch_update(g, delta, [], batch, live, stats=stats)
        full = oracle_count(g, delta)
        assert full.total() > 0
        assert stats["added"] == full
        assert live == full
        batch_update(g, delta, g.edges()[:30], [], live, stats=stats)
        rest = oracle_count(build_plain(batch[30:]), delta)
        assert rest.total() > 0
        assert stats["removed"] == full - rest
        assert live == rest == oracle_count(g, delta)

    def test_non_prefix_deletion_rejected(self):
        g = build_time(F1)
        with pytest.raises(ValueError, match="oldest-timestamp prefix"):
            batch_update(g, 3, [g.edges()[3]], [], CountVector.zeros())

    def test_non_suffix_insertion_rejected(self):
        g = build_time(F1)
        with pytest.raises(ValueError, match="newest-timestamp suffix"):
            batch_update(g, 3, [], [("u9", "v9", 0)], CountVector.zeros())

    def test_unordered_batches_rejected(self):
        g = build_time(F1)
        e0, e1 = g.edges()[:2]
        with pytest.raises(ValueError, match="deletion batch is not chronologically ordered"):
            batch_update(g, 3, [e1, e0], [], CountVector.zeros())
        with pytest.raises(ValueError, match="insertion batch is not chronologically ordered"):
            batch_update(g, 3, [], [("a", "x", 9), ("a", "y", 8)], CountVector.zeros())

    def test_absent_deletion_rejected(self):
        g = build_time(F1)
        with pytest.raises(ValueError, match="not in the graph"):
            batch_update(g, 3, [TemporalEdge(0, 0, 1, uid=50)], [], CountVector.zeros())

    @pytest.mark.parametrize(
        "absent",
        [
            pytest.param(TemporalEdge(0, 1, 1, uid=0), id="wrong-lower-endpoint"),
            pytest.param(TemporalEdge(-1, 1, 4, uid=3), id="negative-upper-id"),
            pytest.param(TemporalEdge(0, -1, 1, uid=0), id="negative-lower-id"),
        ],
    )
    def test_deletion_with_a_wrong_endpoint_rejected_before_any_change(self, absent):
        # each absent edge shares its stamp and uid with a real F1 edge
        g = build_time(F1)
        live = CountVector([0, 1, 0, 0, 0, 0])
        edges_before = g.edges()
        with pytest.raises(ValueError, match="not in the graph"):
            batch_update(g, 3, [absent], [("u9", "v9", 9)], live)
        assert g.edges() == edges_before
        assert g.edge_count == 4
        assert live == [0, 1, 0, 0, 0, 0]
        assert_times_match_rows(g)

    def test_live_below_zero_raises(self):
        g = build_time(F1)
        with pytest.raises(ValueError, match="negative"):
            batch_update(g, 3, g.edges()[:2], [], CountVector.zeros())

    def test_sixty_four_slices_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
        threads_before = threading.active_count()
        insertions = [("u9", "v9", 9), ("u9", "v8", 10), ("u8", "v9", 11), ("u8", "v8", 12)]
        g = build_time(F1)
        live = CountVector([0, 1, 0, 0, 0, 0])
        batch_update(g, 3, g.edges()[:2], insertions, live, workers=64)
        assert started == []
        assert threading.active_count() == threads_before
        assert live == exact_counts(list(F1[2:]) + insertions, 3) == [0, 1, 0, 0, 0, 0]

    def test_ten_million_workers_cost_what_one_does(self, monkeypatch):
        # a step runs serially and workers changes nothing in it, so ten million start no thread and cost what one does
        one, many = [], []
        run_sliding_window(list(F1), 3, window=4, stride=2, workers=1, sink=lambda *a: one.append(a))
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
        began = time.perf_counter()
        run_sliding_window(list(F1), 3, window=4, stride=2, workers=10**7, sink=lambda *a: many.append(a))
        assert time.perf_counter() - began < 0.5
        assert started == []
        assert many == one
        assert one[-1][3] == [0, 1, 0, 0, 0, 0]

    def test_negative_live_leaves_state_untouched(self):
        # deleting F1's two oldest wings removes its butterfly, which a zero live cannot hold
        insertions = [("u9", "v9", 9), ("u1", "v9", 10)]
        g = build_time(F1)
        live = CountVector.zeros()
        edges_before = g.edges()
        with pytest.raises(ValueError, match="negative"):
            batch_update(g, 3, edges_before[:2], insertions, live)
        assert g.edge_count == 4
        assert g.edges() == edges_before
        assert live == [0] * 6
        assert_times_match_rows(g)
        # a window's live vector: the butterfly sits in its oldest edge's tally, live is zeroed beside it
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1), 1)
        tallies = {uid: c[:] for uid, c in win.live.tallies.items()}
        assert tallies == {edges_before[0].uid: [0, 1, 0, 0, 0, 0]}
        win.live[1] = 0
        with pytest.raises(ValueError, match="negative"):
            batch_update(win.graph, 3, list(win.buffer)[:2], insertions, win.live)
        assert win.graph.edges() == edges_before
        assert win.live == [0] * 6
        assert win.live.tallies == tallies
        assert_times_match_rows(win.graph)

    @pytest.mark.parametrize("tallied", [True, False], ids=["window-live", "plain-live"])
    def test_butterfly_in_and_out_within_one_step_is_counted_in_neither(self, tallied):
        # a window of 3 never holds all four of F1's wings: the step that inserts
        # the last two evicts the first, so the butterfly is neither added nor removed
        win = SlidingWindow(3, window=3)
        win.advance_batch(list(F1[:2]), 1)
        live = win.live if tallied else CountVector.zeros()
        stats: dict = {}
        batch_update(win.graph, 3, [win.buffer[0]], list(F1[2:]), live, stats=stats)
        assert stats["added"] == stats["removed"] == live == [0] * 6
        assert getattr(live, "tallies", {}) == {}

    def test_string_insertion_stamp_read_as_int_before_the_suffix_check(self):
        g = build_time([("a", "x", 10)])
        with pytest.raises(ValueError, match="newest-timestamp suffix"):
            batch_update(g, 5, [], [("a", "y", "9")], CountVector.zeros())
        live = CountVector.zeros()
        batch_update(g, 5, [], [("a", "y", "11")], live)
        assert [e.t for e in g.edges()] == [10, 11]

    def test_edge_deleted_twice_rejected_before_any_change(self):
        g = build_time(F1)
        live = CountVector([5] * 6)
        edges_before = g.edges()
        e = edges_before[0]
        with pytest.raises(ValueError, match="twice"):
            batch_update(g, 3, [e, e], [("u3", "v3", 9)], live)
        assert g.edges() == edges_before
        assert g.edge_count == 4
        assert live == [5] * 6

    def test_worker_count_validated(self):
        g = build_time(F1)
        with pytest.raises(ValueError, match="workers"):
            batch_update(g, 3, [], [], CountVector.zeros(), workers=0)

    def test_negative_delta_raises_before_any_change(self):
        # with a negative delta, a run ends before its first edge, so the batch would be cut into empty runs without end
        g = TemporalBipartiteGraph()
        live = CountVector.zeros()
        with pytest.raises(ValueError, match="delta must be non-negative"):
            batch_update(g, -1, [], [("a", "x", 1)], live)
        assert g.edge_count == 0 and g.edges() == []
        assert live == [0] * 6

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy, st.integers(0, 20))
    def test_removed_tally_counts_each_lost_butterfly_once(self, triples, delta, k):
        triples = sorted(triples, key=lambda e: e[2])
        g = build_time(triples)
        k = min(k, len(triples))
        before = oracle_count(g, delta)
        after_expected = oracle_count(build_plain(triples[k:]), delta)
        live = before.copy()
        stats: dict = {}
        batch_update(g, delta, g.edges()[:k], [], live, stats=stats)
        assert stats["removed"] == before - after_expected
        assert live == after_expected

    @PROPERTY_SETTINGS
    @given(triples_strategy, delta_strategy, st.integers(0, 20))
    def test_added_tally_counts_each_new_butterfly_once(self, triples, delta, k):
        triples = sorted(triples, key=lambda e: e[2])
        split = max(0, len(triples) - min(k, len(triples)))
        old, new = triples[:split], triples[split:]
        g = build_time(old)
        before = oracle_count(g, delta)
        live = before.copy()
        stats: dict = {}
        batch_update(g, delta, [], new, live, stats=stats)
        assert stats["added"] == oracle_count(build_plain(triples), delta) - before
        assert live == oracle_count(g, delta)



def window_state(win):
    """A window's buffer, graph edges, live counts and tallies, copied."""
    return list(win.buffer), win.graph.edges(), win.live.copy(), {uid: row[:] for uid, row in win.live.tallies.items()}


class TestSlidingWindow:
    def test_fixture_walkthrough(self):
        stream = list(F1) + [("u3", "v3", 5)]
        emissions = []
        run_sliding_window(stream, 3, window=4, stride=1, sink=lambda *a: emissions.append(a))
        counts = [list(c) for _, _, _, c in emissions]
        assert counts == [[0] * 6, [0] * 6, [0] * 6, [0, 1, 0, 0, 0, 0], [0] * 6]
        assert [(s, lo, hi) for s, lo, hi, _ in emissions] == [
            (0, 1, 1),
            (1, 1, 2),
            (2, 1, 3),
            (3, 1, 4),
            (4, 2, 5),
        ]

    def test_window_covering_the_whole_stream(self):
        emissions = []
        run_sliding_window(list(F1), 3, window=4, stride=4, sink=lambda *a: emissions.append(a))
        assert len(emissions) == 1
        assert emissions[0][3] == [0, 1, 0, 0, 0, 0]

    def test_tumbling_blocks_count_independently(self):
        second = [("u3", "v3", 11), ("u3", "v4", 12), ("u4", "v3", 13), ("u4", "v4", 14)]
        emissions = []
        run_sliding_window(list(F1) + second, 3, window=4, stride=4, sink=lambda *a: emissions.append(a))
        assert [c.counts for _, _, _, c in emissions] == [[0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]

    def test_short_final_chunk_still_emits(self):
        stream = [("a", "x", t) for t in range(5)]
        emissions = []
        run_sliding_window(stream, 3, window=4, stride=2, sink=lambda *a: emissions.append(a))
        assert [s for s, _, _, _ in emissions] == [0, 1, 2]

    def test_unordered_stream_names_the_edge(self):
        stream = [("a", "x", 5), ("a", "y", 1)]
        with pytest.raises(StreamOrderError, match=r"edge \(a, y, 1\) arrived after an edge with timestamp 5"):
            run_sliding_window(stream, 3, window=4, stride=1)

    @pytest.mark.parametrize(
        "first,second", [("10", "9"), (10, "9"), ("10", 9)], ids=["str-str", "int-str", "str-int"]
    )
    def test_stamps_ordered_as_ints(self, first, second):
        with pytest.raises(StreamOrderError, match=r"edge \(a, y, 9\) arrived after an edge with timestamp 10"):
            run_sliding_window([("a", "x", first), ("a", "y", second)], delta=5, window=3, stride=1, sink=lambda *a: None)

    def test_string_stamps_in_order_are_accepted(self):
        emissions = []
        run_sliding_window([("a", "x", "9"), ("a", "y", "10")], delta=5, window=3, stride=1, sink=lambda *a: emissions.append(a))
        assert [(lo, hi) for _, lo, hi, _ in emissions] == [(9, 9), (9, 10)]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="window must be at least 1"):
            SlidingWindow(3, window=0)
        with pytest.raises(ValueError, match="delta"):
            SlidingWindow(-1, window=4)
        with pytest.raises(ValueError, match="engine"):
            run_sliding_window([], 3, window=4, stride=1, engine="fast")

    @pytest.mark.parametrize(
        "window, stride, message",
        [(4, 0, "stride must be at least 1"), (2, 3, r"window \(2\) must be at least the stride \(3\)")],
        ids=["stride-zero", "stride-above-window"],
    )
    def test_stride_is_checked_before_any_step(self, window, stride, message):
        emissions = []
        with pytest.raises(ValueError, match=message):
            run_sliding_window(list(F1), 3, window=window, stride=stride, sink=lambda *a: emissions.append(a))
        assert emissions == []

    @pytest.mark.parametrize("engine", ["stbc", "stbc+"])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_are_checked_before_any_step(self, engine, workers):
        emissions = []
        for stream in ([], list(F1)):
            with pytest.raises(ValueError, match="workers must be positive"):
                run_sliding_window(stream, 3, window=4, stride=1, engine=engine, workers=workers, sink=lambda *a: emissions.append(a))
        assert emissions == []

    def test_single_edge_eviction_checks_live_before_any_change(self):
        # the step evicts first, so the raise comes before the chunk enters
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1))
        assert win.live == [0, 1, 0, 0, 0, 0]
        oldest = win.buffer[0]
        assert win.live.tallies == {oldest.uid: [0, 1, 0, 0, 0, 0]}
        win.live[1] = 0
        edges_before = win.graph.edges()
        with pytest.raises(ValueError, match="negative"):
            win.advance_batch([("u3", "v3", 5)])
        assert win.buffer[0] == oldest and len(win.buffer) == 4
        assert win.graph.edges() == edges_before
        assert win.live == [0] * 6
        assert win.live.tallies == {oldest.uid: [0, 1, 0, 0, 0, 0]}

    @pytest.mark.parametrize(
        "bad",
        [("u3 u4", "v3", 6), ("", "v3", 6), ("u3", "v3 v4", 6), ("u3", "", 6), ("u3", "v3", "6.5")],
        ids=["upper-space", "upper-empty", "lower-space", "lower-empty", "stamp"],
    )
    def test_bad_chunk_edge_raises_before_any_eviction(self, bad):
        # the chunk's second edge is bad; the step reads the whole chunk before evicting
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1), 1)
        assert win.live == [0, 1, 0, 0, 0, 0] and win.live.tallies
        before = window_state(win)
        chunk = [("u1", "v3", 5), bad]
        with pytest.raises(ValueError, match="token|timestamp"):
            win.advance_batch(chunk)
        assert window_state(win) == before

    @pytest.mark.parametrize("filled", [0, 1, 4], ids=["empty-window", "one-edge", "full-window"])
    def test_chunk_longer_than_the_window_raises_before_any_change(self, filled):
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1[:filled]))
        before = window_state(win)
        assert bool(before[3]) == (filled == 4)
        chunk = [("u3", f"v{t}", t) for t in range(5, 10)]
        with pytest.raises(ValueError, match="chunk of 5 edges does not fit a window of 4"):
            win.advance_batch(chunk)
        assert window_state(win) == before

    @pytest.mark.parametrize(
        "filled,chunk",
        [
            (0, [("u1", "v1", 4), ("u1", "v2", 3)]),
            (4, [("u3", "v3", 6), ("u3", "v4", 5)]),
            (4, [("u3", "v3", 3)]),
            (4, [("u3", "v3", 3), ("u3", "v4", 3), ("u4", "v3", 3), ("u4", "v4", 3)]),
        ],
        ids=["descending-fill", "descending-chunk", "older-than-the-window", "older-than-an-evicted-window"],
    )
    def test_out_of_order_chunk_raises_before_any_change(self, filled, chunk):
        # the chunk's order is checked against the window as it stands, even when the step would evict all of it
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1[:filled]))
        before = window_state(win)
        with pytest.raises(ValueError, match="chronologically ordered|newest-timestamp suffix"):
            win.advance_batch(chunk)
        assert window_state(win) == before

    def test_chunk_of_a_whole_window_replaces_it(self):
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1))
        second = [("u3", "v3", 11), ("u3", "v4", 12), ("u4", "v3", 13), ("u4", "v4", 14)]
        win.advance_batch(second)
        assert [e.t for e in win.buffer] == [11, 12, 13, 14]
        assert win.graph.edge_count == 4 and win.bounds() == (11, 14)
        assert win.live == [0, 1, 0, 0, 0, 0]
        assert win.live.tallies == {win.buffer[0].uid: [0, 1, 0, 0, 0, 0]}

    def test_single_edge_eviction_counts_a_plain_live_on_the_graph(self):
        # a live vector without tallies: the evicted edge's butterflies are counted on the graph, then checked
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1))
        win.live = CountVector([0, 1, 0, 0, 0, 0])
        win.advance_batch([("u3", "v3", 5)])
        assert win.live == [0] * 6 and len(win.buffer) == 4
        win = SlidingWindow(3, window=4)
        win.advance_batch(list(F1))
        win.live = CountVector.zeros()
        edges_before = win.graph.edges()
        with pytest.raises(ValueError, match="negative"):
            win.advance_batch([("u3", "v3", 5)])
        assert win.graph.edges() == edges_before and len(win.buffer) == 4
        assert win.live == [0] * 6

    def test_window_counted_in_place_between_steps(self):
        # the static engines count the live window graph where it is, from
        # its time rows and a priority of the moment, and the stream goes on
        # as if nothing had read it
        rng = random.Random(2024)
        triples = sorted(
            ((f"u{rng.randrange(6)}", f"v{rng.randrange(6)}", rng.randint(0, 400)) for _ in range(240)),
            key=lambda e: e[2],
        )
        delta, window, stride = 40, 60, 10
        reference = []
        run_sliding_window(triples, delta, window, stride, engine="stbc+", sink=lambda *a: reference.append(a))
        win = SlidingWindow(delta, window)
        emissions = []
        counted = []
        for step, i in enumerate(range(0, len(triples), stride)):
            win.advance_batch(triples[i:i + stride], 1)
            emissions.append((step, *win.bounds(), win.live.copy()))
            if step % 4 == 1:
                priority = compute_vertex_priority(win.graph)
                for engine in (count_baseline, count_optimized, count_extreme):
                    assert engine(win.graph, priority, delta) == win.live
                counted.append(win.live.total())
        assert len(counted) == 6 and min(counted) > 0
        assert emissions == reference

    def test_single_edge_phase_maps_stay_current(self):
        # stride 4, window 8, delta 10.  In the second chunk, (a, z, 10) walks z and
        # builds hub a's map; (a, y, 13), which walks y and looks a up again, must
        # find (a, x, 11) in it, or it misses the butterfly a-x, b-x, b-y, a-y.
        # The fifth chunk evicts the third: (a, p, 21) builds p's map, and
        # (b, p, 21), evicted next with the same stamp, reads a's evicted edge in
        # it, which its range leaves out.
        triples = [
            ("a", "s1", 2), ("a", "s2", 3), ("c", "z", 7), ("b", "x", 8),
            ("a", "z", 10), ("a", "x", 11), ("b", "y", 12), ("a", "y", 13),
            ("h", "m", 20), ("a", "p", 21), ("b", "p", 21), ("c", "p", 22),
            ("b", "q", 23), ("a", "q", 24), ("c", "q", 25), ("h", "n", 26),
            ("d", "p", 33), ("d", "q", 34), ("e", "r", 40), ("f", "r", 41),
        ]
        delta, window, stride = 10, 8, 4
        runs = {}
        for engine in ("stbc", "stbc+"):
            runs[engine] = emissions = []
            run_sliding_window(triples, delta, window, stride, engine=engine, sink=lambda *a: emissions.append(a))
        recounts = [exact_counts(triples[max(0, i + stride - window):i + stride], delta) for i in range(0, 20, stride)]
        assert [live for *_, live in runs["stbc"]] == recounts
        assert runs["stbc"] == runs["stbc+"]
        assert [live.total() for live in recounts] == [0, 1, 0, 2, 0]

    def test_sink_is_optional(self):
        run_sliding_window(list(F1), 3, window=2, stride=1)

    @pytest.mark.parametrize("engine,workers", [("stbc", 1), ("stbc+", 1), ("stbc+", 3)])
    def test_every_emission_matches_the_offline_count(self, engine, workers):
        rng = random.Random(1234)
        for _ in range(12):
            ne = rng.randint(0, 30)
            triples = sorted(
                (
                    (f"u{rng.randrange(5)}", f"v{rng.randrange(5)}", rng.randint(0, 40))
                    for _ in range(ne)
                ),
                key=lambda e: e[2],
            )
            delta = rng.randint(0, 30)
            window = rng.randint(1, 16)
            stride = rng.randint(1, window)
            emissions = []
            run_sliding_window(
                triples, delta, window, stride, engine=engine, workers=workers,
                sink=lambda *a: emissions.append(a),
            )
            for step, _, _, live in emissions:
                taken = min(len(triples), (step + 1) * stride)
                expected = exact_counts(triples[max(0, taken - window):taken], delta)
                assert live == expected


def hub_triples(hub_upper: bool):
    """Chronological edges whose few hub vertices sit in one layer."""
    hub = st.integers(0, 1)
    spoke = st.integers(0, 5)
    ends = st.tuples(hub, spoke) if hub_upper else st.tuples(spoke, hub)
    edge = st.tuples(ends, st.integers(0, 30)).map(lambda p: (f"u{p[0][0]}", f"v{p[0][1]}", p[1]))
    return st.lists(edge, max_size=24).map(lambda ts: sorted(ts, key=lambda e: e[2]))


def extreme_by_oracle(g, delta, e, as_max):
    """Butterflies through e with e.t the strict extreme, by exhaustive search."""
    keep = [
        (g.upper_tokens[f.u], g.lower_tokens[f.v], f.t)
        for f in g.edges()
        if (f.t < e.t if as_max else f.t > e.t)
    ]
    sub = build_plain([(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t)] + keep)
    return oracle_contains(sub, delta, sub.edges()[0])


class TestExpansionDirections:
    """Both ways of expanding an edge's 2-paths give the same counts."""

    @pytest.mark.parametrize("hub_upper", [True, False], ids=["upper-hubs", "lower-hubs"])
    @PROPERTY_SETTINGS
    @given(data=st.data(), delta=st.integers(0, 30))
    def test_directions_agree_per_edge(self, hub_upper, data, delta):
        triples = data.draw(hub_triples(hub_upper))
        g = build_time(triples)
        for e in g.edges():
            for as_max in (False, True):
                through_u = _count_edge_extreme(g, delta, e, as_max, from_upper=True)
                through_v = _count_edge_extreme(g, delta, e, as_max, from_upper=False)
                assert through_u == through_v == _count_edge_extreme(g, delta, e, as_max)
                assert through_u == extreme_by_oracle(g, delta, e, as_max)

    @pytest.mark.parametrize("hub_upper", [True, False], ids=["upper-hubs", "lower-hubs"])
    @PROPERTY_SETTINGS
    @given(data=st.data(), delta=st.integers(0, 30), first_upper=st.booleans())
    def test_run_maps_serve_both_directions(self, hub_upper, data, delta, first_upper):
        # runs cut as batch_update cuts them, one looks dict per run, and the run's
        # edges walking alternate directions: a map built for a looked-up endpoint
        # is read again as a walked neighbour's, and the other way round
        triples = data.draw(hub_triples(hub_upper))
        g = build_time(triples)
        edges = g.edges()
        stamps = [e.t for e in edges]
        for as_max in (False, True):
            i = 0
            while i < len(edges):
                j = bisect_right(stamps, stamps[i] + delta, i)
                span = (stamps[i] - delta, stamps[j - 1] - 1) if as_max else (stamps[i] + 1, stamps[j - 1] + delta)
                looks: dict = {}
                for k, e in enumerate(edges[i:j]):
                    got = _count_edge_extreme(g, delta, e, as_max, looks, span, from_upper=(k % 2 == 0) == first_upper)
                    assert got == extreme_by_oracle(g, delta, e, as_max)
                i = j

    @pytest.mark.parametrize("hub_upper", [True, False], ids=["upper-hubs", "lower-hubs"])
    @PROPERTY_SETTINGS
    @given(data=st.data(), delta=st.integers(0, 30), window=st.integers(1, 12), stride=st.integers(1, 12))
    def test_sliding_window_matches_recounts(self, hub_upper, data, delta, window, stride):
        triples = data.draw(hub_triples(hub_upper))
        stride = min(stride, window)
        for engine in ("stbc", "stbc+"):
            emissions = []
            run_sliding_window(triples, delta, window, stride, engine=engine, sink=lambda *a: emissions.append(a))
            for step, _, _, live in emissions:
                taken = min(len(triples), (step + 1) * stride)
                assert live == exact_counts(triples[max(0, taken - window):taken], delta)


def tally_corpus(n: int, seed: int):
    """n tiny chronological streams with their (delta, window, stride, workers).

    Few vertices per layer give parallel edges, few stamps give ties, the
    hub layer is swapped in every other stream, and chunks often span more
    than delta, so a step's insertions split into several runs.
    """
    rng = random.Random(seed)
    for i in range(n):
        hubs, spokes = rng.randint(1, 3), rng.randint(2, 5)
        t_max = rng.choice((6, 15, 40))
        edges = [(rng.randrange(hubs), rng.randrange(spokes), rng.randint(0, t_max)) for _ in range(rng.randint(6, 30))]
        if i % 2:
            edges = [(s, h, t) for h, s, t in edges]
        triples = sorted(((f"u{a}", f"v{b}", t) for a, b, t in edges), key=lambda e: e[2])
        window = rng.randint(3, 16)
        yield triples, rng.randint(0, 20), window, rng.randint(1, window), rng.randint(1, 3)


class TestTallies:
    """Each window butterfly sits in exactly one tally, its oldest live edge's, after every window step."""

    CORPUS = list(tally_corpus(1000, seed=16))

    def test_tally_corpus_covers_ties_parallels_swaps_and_split_steps(self):
        ties = parallels = swapped = split = 0
        for triples, delta, _window, stride, _workers in self.CORPUS:
            stamps = [t for *_, t in triples]
            ties += len(set(stamps)) < len(stamps)
            parallels += len({(u, v) for u, v, _ in triples}) < len(triples)
            swapped += len({u for u, _, _ in triples}) > len({v for _, v, _ in triples})
            split += any(stamps[min(i + stride, len(stamps)) - 1] - stamps[i] > delta for i in range(0, len(stamps), stride))
        assert min(ties, parallels, swapped, split) >= 200

    def test_tallies_sum_to_live_after_every_step(self):
        butterflies = evicted_with_tally = 0
        for triples, delta, window, stride, workers in self.CORPUS:
            win = SlidingWindow(delta, window)
            for i in range(0, len(triples), stride):
                chunk = triples[i:i + stride]
                leaving = {e.uid for e in list(win.buffer)[:max(0, len(win.buffer) + len(chunk) - window)]}
                evicted_with_tally += bool(leaving & win.live.tallies.keys())
                win.advance_batch(chunk, workers)
                tallies = win.live.tallies
                assert [sum(col) for col in zip([0] * 6, *tallies.values())] == win.live.counts
                assert len(tallies) <= len(win.buffer)
                assert tallies.keys() <= {e.uid for e in win.buffer}
                taken = i + len(chunk)
                assert win.live == exact_counts(triples[max(0, taken - window):taken], delta)
                butterflies += win.live.total()
        assert butterflies > 5000 and evicted_with_tally > 300
