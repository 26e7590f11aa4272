"""Graph model, parsing, vertex priority, and adjacency layouts."""

from __future__ import annotations

import io
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tempobf import (
    GraphParseError,
    TemporalBipartiteGraph,
    TemporalEdge,
    compute_vertex_priority,
    iter_edge_stream,
    load_edge_list,
    save_edge_list,
    sort_adjacency_by_priority,
)
from tempobf import (
    CountVector,
    batch_update,
    count_baseline,
    count_extreme,
    count_optimized,
    count_sampled,
    enumerate_baseline,
    enumerate_optimized,
    null_sink,
    oracle_contains,
    oracle_count,
)
from conftest import F1, PROPERTY_SETTINGS, assert_times_match_rows, build_plain, build_priority, build_time, random_triples

triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 7).map("u{}".format),
        st.integers(0, 7).map("v{}".format),
        st.integers(0, 50),
    ),
    max_size=40,
)


# str and int tokens over a small alphabet, so tokens repeat, int 1 and "1"
# name one vertex, and vertex pairs carry parallel edges
mixed_token = st.one_of(st.integers(0, 3), st.integers(0, 3).map(str), st.sampled_from(["a", "b", "ü"]))
mixed_triples_strategy = st.lists(st.tuples(mixed_token, mixed_token, st.integers(-5, 30)), max_size=30)


def _graph(built):
    """The graph of a build_* helper's result."""
    return built[0] if isinstance(built, tuple) else built


# graph mutations at delta 3; the streaming ones keep live current
MUTATIONS = {
    "insert_edge": lambda g, live: g.insert_edge("c", "z", 9),
    "remove_edge": lambda g, live: g.remove_edge(g.edges()[0]),
    "batch_insert": lambda g, live: batch_update(g, 3, [], [("b", "z", 5)], live),
    "batch_delete": lambda g, live: batch_update(g, 3, g.edges()[:1], [], live),
    "batch_update": lambda g, live: batch_update(g, 3, g.edges()[:1], [("c", "x", 5), ("c", "y", 6)], live),
}

COUNTING_ENGINES = [
    lambda g, p: count_baseline(g, p, 3),
    lambda g, p: count_optimized(g, p, 3),
    lambda g, p: count_extreme(g, p, 3),
    lambda g, p: count_sampled(g, p, 3, 1.0),
    lambda g, p: enumerate_baseline(g, p, 3, null_sink),
    lambda g, p: enumerate_optimized(g, p, 3, null_sink),
]


class TestParsing:
    def test_two_lines(self):
        g = load_edge_list(io.StringIO("a x 15\na y 18\n"))
        assert (g.upper_count, g.lower_count, g.edge_count) == (1, 2, 2)
        assert g.upper_tokens == ["a"]
        assert g.lower_tokens == ["x", "y"]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n% matrix-market style\n  a x 1\n"
        g = load_edge_list(io.StringIO(text))
        assert g.edge_count == 1

    def test_four_field_weight_ignored(self):
        g = load_edge_list(io.StringIO("a x 2.5 7\n"))
        assert [(e.u, e.v, e.t) for e in g.edges()] == [(0, 0, 7)]

    def test_arity_error_names_line(self):
        with pytest.raises(GraphParseError, match=r"line 1"):
            load_edge_list(io.StringIO("u0 v0\n"))

    def test_bad_timestamp_names_line(self):
        with pytest.raises(GraphParseError, match=r"line 2.*'x'"):
            load_edge_list(io.StringIO("a x 1\na x x\n"))

    def test_empty_input_is_empty_graph(self):
        g = load_edge_list(io.StringIO(""))
        assert (g.upper_count, g.lower_count, g.edge_count) == (0, 0, 0)

    # indented comment, %-comment of three fields, CRLF endings, tabs, a
    # four-field line, a blank line and a line of only whitespace
    DIALECTS = "  # header\r\n%a x 1\r\na\tx\t5\r\n\r\nb y 2.5 6\r\n \t \r\n\tc  z 7 \r\n"

    def test_dialects_parse_to_triples(self):
        expected = [("a", "x", 5), ("b", "y", 6), ("c", "z", 7)]
        assert list(iter_edge_stream(io.StringIO(self.DIALECTS))) == expected
        assert list(iter_edge_stream(self.DIALECTS.splitlines(keepends=True))) == expected

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("d w\r\n", r"^line 8: expected 3 or 4 fields, got 2$"),
            ("d w 1 2 3\r\n", r"^line 8: expected 3 or 4 fields, got 5$"),
            ("d\tw\t1.5\r\n", r"^line 8: timestamp '1\.5' is not an integer$"),
            ("d w 0.5 x\r\n", r"^line 8: timestamp 'x' is not an integer$"),
        ],
    )
    def test_dialect_errors_name_the_line(self, bad, message):
        with pytest.raises(GraphParseError, match=message):
            load_edge_list(io.StringIO(self.DIALECTS + bad))

    @staticmethod
    def _f1_text() -> str:
        return "".join(f"{u} {v} {t}\n" for u, v, t in F1)

    @pytest.mark.parametrize("via_file", [False, True])
    def test_byte_order_mark_is_not_part_of_a_token(self, tmp_path, via_file):
        text = "\ufeff" + self._f1_text()
        source = io.StringIO(text)
        if via_file:
            source = tmp_path / "bom.txt"
            source.write_text(text, encoding="utf-8")
        g = load_edge_list(source)
        assert (g.upper_tokens, g.lower_tokens) == (["u1", "u2"], ["v1", "v2"])
        plain = load_edge_list(io.StringIO(self._f1_text()))
        assert (g.upper_adj, g.lower_adj) == (plain.upper_adj, plain.lower_adj)
        assert count_extreme(g, compute_vertex_priority(g), 3) == [0, 1, 0, 0, 0, 0]

    def test_byte_order_mark_before_a_comment_or_a_shared_vertex(self):
        g = load_edge_list(io.StringIO("\ufeffa x 1\na y 2\n"))
        assert g.upper_tokens == ["a"]
        assert list(iter_edge_stream(io.StringIO("\ufeff# header\na x 1\n"))) == [("a", "x", 1)]
        with pytest.raises(GraphParseError, match=r"^line 1: expected"):
            load_edge_list(io.StringIO("\ufeffa x\n"))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt"
        rng = random.Random(3)
        triples = random_triples(rng)
        save_edge_list(TemporalBipartiteGraph.from_edges(triples), path)
        reloaded = load_edge_list(path)
        assert [(reloaded.upper_tokens[e.u], reloaded.lower_tokens[e.v], e.t) for e in reloaded.edges()] == [
            (u, v, t) for u, v, t in triples
        ]

    @PROPERTY_SETTINGS
    @given(triples_strategy)
    def test_save_load_preserves_edges(self, triples):
        g = TemporalBipartiteGraph.from_edges(triples)
        buf = io.StringIO()
        save_edge_list(g, buf)
        reloaded = load_edge_list(io.StringIO(buf.getvalue()))
        original = [(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t) for e in g.edges()]
        copied = [(reloaded.upper_tokens[e.u], reloaded.lower_tokens[e.v], e.t) for e in reloaded.edges()]
        assert copied == original


class TestGraphModel:
    def test_tokens_interned_in_first_seen_order(self):
        g = TemporalBipartiteGraph.from_edges([("b", "y", 1), ("a", "y", 2), ("b", "x", 3)])
        assert g.upper_tokens == ["b", "a"]
        assert g.lower_tokens == ["y", "x"]

    def test_whitespace_token_rejected(self):
        g = TemporalBipartiteGraph()
        with pytest.raises(ValueError, match="token"):
            g.insert_edge("a b", "x", 1)
        with pytest.raises(ValueError, match="token"):
            g.insert_edge("a", "", 1)

    def test_insert_edge_reads_tokens_as_strings_and_stamps_as_ints(self):
        g = TemporalBipartiteGraph()
        first = g.insert_edge("5", "x", 1)
        # int 5 names the interned "5", and the stamp string "7" is read as 7
        again = g.insert_edge(5, "x", "7")
        assert again == TemporalEdge(first.u, first.v, 7, 1) and type(again) is TemporalEdge
        assert (again.u, again.v, again.t, again.uid) == (0, 0, 7, 1)
        assert (g.upper_tokens, g.lower_tokens, g.upper_times) == (["5"], ["x"], [[1, 7]])
        with pytest.raises(ValueError, match="token"):
            g.insert_edge("5", "x y", 8)
        assert (g.lower_tokens, g.edge_count) == (["x"], 2)

    @staticmethod
    def _state(g):
        return (
            g.upper_tokens,
            g.lower_tokens,
            g._upper_ids,
            g._lower_ids,
            g.upper_adj,
            g.lower_adj,
            g.edge_count,
            g._next_uid,
            g.upper_times,
            g.lower_times,
        )

    @PROPERTY_SETTINGS
    @given(mixed_triples_strategy)
    def test_from_edges_matches_an_insert_edge_loop(self, triples):
        triples = triples + triples[: len(triples) // 2]  # parallel copies
        g = TemporalBipartiteGraph.from_edges(triples)
        looped = build_time(triples)
        assert self._state(g) == self._state(looped)
        assert_times_match_rows(g)
        assert g.insert_edge("a", 0, 7) == looped.insert_edge("a", 0, 7)
        assert g.edges()[-1].uid == len(triples)
        assert self._state(g) == self._state(looped)

    @pytest.mark.parametrize(
        "bad",
        [1.5, "1.5", None, "", "7 8", True],
        ids=["float", "float-string", "none", "empty-string", "two-ints", "bool"],
    )
    def test_both_ways_of_adding_refuse_a_non_integer_stamp(self, bad):
        message = f"^timestamp {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            TemporalBipartiteGraph.from_edges([("a", "x", 1), ("b", "y", bad)])
        g = TemporalBipartiteGraph.from_edges([("a", "x", 1)])
        with pytest.raises(ValueError, match=message):
            g.insert_edge("a", "y", bad)
        # refused before either token is interned
        assert (g.upper_tokens, g.lower_tokens, g.edge_count) == (["a"], ["x"], 1)
        assert_times_match_rows(g)

    def test_both_ways_of_adding_read_a_stamp_string_as_its_int(self):
        g = TemporalBipartiteGraph.from_edges([("a", "x", 1), ("a", "y", "7"), ("a", "z", "-2")])
        looped = TemporalBipartiteGraph.from_edges([("a", "x", 1)])
        looped.insert_edge("a", "y", "7")
        looped.insert_edge("a", "z", "-2")
        assert self._state(g) == self._state(looped)
        assert g.upper_times == [[-2, 1, 7]]
        assert all(type(t) is int for _, t, _ in g.upper_adj[0])

    @pytest.mark.parametrize("bad", [("", "x", 1), ("a", "", 1), ("a b", "x", 1), ("a", "x\ty", 1), (" a", "x", 1)])
    def test_from_edges_rejects_bad_tokens(self, bad):
        with pytest.raises(ValueError, match="token"):
            TemporalBipartiteGraph.from_edges([("a", "x", 1), bad])

    def test_parallel_edges_get_distinct_uids(self):
        g = TemporalBipartiteGraph.from_edges([("a", "x", 5), ("a", "x", 5)])
        uids = [e.uid for e in g.edges()]
        assert uids == [0, 1]

    @PROPERTY_SETTINGS
    @given(triples_strategy)
    def test_adjacency_rows_partition_edges(self, triples):
        g = TemporalBipartiteGraph.from_edges(triples)
        assert sum(len(row) for row in g.upper_adj) == g.edge_count == len(triples)
        assert sum(len(row) for row in g.lower_adj) == g.edge_count
        upper_uids = sorted(uid for row in g.upper_adj for _, _, uid in row)
        lower_uids = sorted(uid for row in g.lower_adj for _, _, uid in row)
        assert upper_uids == lower_uids == list(range(len(triples)))


class TestVertexPriority:
    def test_degree_orders_ranks(self):
        # degrees: a=2, b=1, x=2, y=1
        g = TemporalBipartiteGraph.from_edges([("a", "x", 1), ("a", "y", 2), ("b", "x", 3)])
        p = compute_vertex_priority(g)
        ranks = {"a": p.upper[0], "b": p.upper[1], "x": p.lower[0], "y": p.lower[1]}
        assert ranks["b"] < ranks["y"] < ranks["a"] < ranks["x"]

    def test_equal_degrees_break_toward_lower_layer(self):
        # all degrees 1; global ids a=0, b=1, x=2, y=3, so ranks follow ids
        g = TemporalBipartiteGraph.from_edges([("a", "x", 1), ("b", "y", 2)])
        p = compute_vertex_priority(g)
        assert p.upper == [1, 2]
        assert p.lower == [3, 4]

    @PROPERTY_SETTINGS
    @given(triples_strategy)
    def test_ranks_are_a_bijection_onto_1_to_n(self, triples):
        g = TemporalBipartiteGraph.from_edges(triples)
        p = compute_vertex_priority(g)
        ranks = sorted(p.upper + p.lower)
        assert ranks == list(range(1, g.upper_count + g.lower_count + 1))

    @PROPERTY_SETTINGS
    @given(triples_strategy)
    def test_ranks_ascend_in_degree_then_global_id(self, triples):
        g = TemporalBipartiteGraph.from_edges(triples)
        p = compute_vertex_priority(g)
        nu = g.upper_count
        keyed = [(len(g.upper_adj[u]), u, p.upper[u]) for u in range(nu)]
        keyed += [(len(g.lower_adj[v]), nu + v, p.lower[v]) for v in range(g.lower_count)]
        keyed.sort()
        assert [rank for _, _, rank in keyed] == list(range(1, len(keyed) + 1))


class TestLayouts:
    def test_priority_sort_is_a_no_op(self):
        # x deg 3 > y deg 2 > z deg 1, but a's stamps climb z, y, x: the
        # rows stay in time order, the same lists holding the same entries
        triples = [("a", "z", 1), ("a", "x", 4), ("a", "y", 2), ("a", "x", 3), ("b", "x", 5), ("b", "y", 6)]
        g = build_time(triples)
        rows = (g.upper_adj, g.lower_adj, g.upper_times, g.lower_times)
        before = [[r[:] for r in layer] for layer in rows]
        assert sort_adjacency_by_priority(g, compute_vertex_priority(g)) is None
        after = (g.upper_adj, g.lower_adj, g.upper_times, g.lower_times)
        assert all(a is b for a, b in zip(after, rows))
        assert list(after) == before
        assert [(g.lower_tokens[v], t) for v, t, _ in g.upper_adj[0]] == [("z", 1), ("y", 2), ("x", 3), ("x", 4)]

    def test_time_layout_ascends(self):
        g = build_time([("a", "x", 9), ("a", "y", 1), ("a", "x", 5)])
        assert [t for _, t, _ in g.upper_adj[0]] == [1, 5, 9]
        assert g.upper_times == [[1, 5, 9]]

    def test_equal_timestamps_keep_arrival_order(self):
        g = build_time([("a", "x", 5), ("a", "y", 5), ("a", "z", 5)])
        assert [uid for _, _, uid in g.upper_adj[0]] == [0, 1, 2]

    @PROPERTY_SETTINGS
    @given(triples_strategy)
    def test_layouts_preserve_edge_multiset(self, triples):
        reference = Counter((u, v, t) for u, v, t in triples)
        for build in (build_priority, build_time):
            g = _graph(build(triples))
            seen = Counter((g.upper_tokens[e.u], g.lower_tokens[e.v], e.t) for e in g.edges())
            assert seen == reference


class TestStreamingMutation:
    @pytest.mark.parametrize("via", ["load_edge_list", "from_edges"])
    def test_built_in_time_order_streams_with_no_sort(self, via):
        # F1's edges arriving out of time order; nothing sorts the graph
        # before it is mutated and counted
        triples = [F1[3], F1[0], F1[2], F1[1]]
        if via == "load_edge_list":
            g = load_edge_list(io.StringIO("".join(f"{u} {v} {t}\n" for u, v, t in triples)))
        else:
            g = TemporalBipartiteGraph.from_edges(triples)
        assert_times_match_rows(g)
        assert g.upper_times == [[3, 4], [1, 2]] and g.lower_times == [[2, 4], [1, 3]]
        edges = g.edges()
        assert all(g.has_edge(e) for e in edges)
        for e in edges:
            assert oracle_contains(g, 3, e) == [0, 1, 0, 0, 0, 0]
        e = g.insert_edge("u3", "v1", 2)
        assert g.has_edge(e)
        g.remove_edge(e)
        assert not g.has_edge(e)
        live = CountVector(oracle_count(g, 3))
        # the two oldest edges leave and u1's two edges come back later, closing a butterfly of another type
        batch_update(g, 3, [edges[1], edges[3]], [("u1", "v2", 5), ("u1", "v1", 6)], live)
        assert live == oracle_count(g, 3) == [0, 0, 1, 0, 0, 0]
        assert_times_match_rows(g)

    def test_insert_remove_round_trip(self):
        g = build_time([("a", "x", 1), ("a", "x", 9)])
        e = g.insert_edge("a", "x", 5)
        assert [t for _, t, _ in g.upper_adj[0]] == [1, 5, 9]
        assert g.has_edge(e)
        g.remove_edge(e)
        assert not g.has_edge(e)
        assert [t for _, t, _ in g.upper_adj[0]] == [1, 9]

    def test_remove_picks_the_exact_uid_among_duplicates(self):
        g = build_time([("a", "x", 5), ("a", "x", 5)])
        first, second = g.edges()
        g.remove_edge(second)
        assert g.has_edge(first) and not g.has_edge(second)

    def test_remove_absent_edge_raises(self):
        g = build_time([("a", "x", 1)])
        with pytest.raises(KeyError):
            g.remove_edge(TemporalEdge(0, 0, 1, uid=7))

    @pytest.mark.parametrize(
        "absent",
        [
            pytest.param(TemporalEdge(0, 1, 1, uid=0), id="wrong-lower-endpoint"),
            pytest.param(TemporalEdge(-1, 1, 2, uid=1), id="negative-upper-id"),
            pytest.param(TemporalEdge(1, -1, 2, uid=1), id="negative-lower-id"),
        ],
    )
    def test_remove_absent_edge_changes_no_row(self, absent):
        # uid 0 is (a, x) at t=1 and uid 1 is (b, y) at t=2: each absent edge
        # matches a real one in all but one endpoint
        g = build_time([("a", "x", 1), ("b", "y", 2)])
        rows = ([r[:] for r in g.upper_adj], [r[:] for r in g.lower_adj])
        with pytest.raises(KeyError):
            g.remove_edge(absent)
        assert (g.upper_adj, g.lower_adj) == rows
        assert g.edge_count == 2
        assert_times_match_rows(g)

    def test_remove_with_its_lower_entry_missing_changes_no_row(self):
        # the upper entry of uid 1 is there, but the lower row holds it under another uid
        g = build_time([("a", "x", 1), ("a", "x", 1)])
        e = g.edges()[1]
        g.lower_adj[e.v][1] = (e.u, e.t, 9)
        rows = [[r[:] for r in rows] for rows in (g.upper_adj, g.upper_times, g.lower_adj, g.lower_times)]
        with pytest.raises(KeyError):
            g.remove_edge(e)
        assert [g.upper_adj, g.upper_times, g.lower_adj, g.lower_times] == rows
        assert g.edge_count == 2

    @pytest.mark.parametrize("build", [build_time, build_plain])
    def test_has_edge_checks_both_endpoints(self, build):
        g = _graph(build([("a", "x", 1), ("b", "y", 2)]))
        assert g.has_edge(TemporalEdge(0, 0, 1, uid=0)) and g.has_edge(TemporalEdge(1, 1, 2, uid=1))
        # wrong lower endpoint, then a negative id on either side
        assert not g.has_edge(TemporalEdge(0, 1, 1, uid=0))
        assert not g.has_edge(TemporalEdge(-1, 1, 2, uid=1))
        assert not g.has_edge(TemporalEdge(1, -1, 2, uid=1))

    @pytest.mark.parametrize("build", [build_time, build_priority])
    def test_has_edge_unknown_vertex(self, build):
        g = _graph(build([("a", "x", 1)]))
        assert not g.has_edge(TemporalEdge(5, 0, 1, uid=0))

    @pytest.mark.parametrize("build", [build_time, build_priority])
    def test_has_edge_present_absent_and_duplicates(self, build):
        g = _graph(build([("a", "x", 5), ("b", "x", 3), ("a", "y", 5), ("a", "x", 5), ("a", "x", 2)]))
        edges = g.edges()
        assert all(g.has_edge(e) for e in edges)
        first, dup = edges[0], edges[3]
        assert (first.u, first.v, first.t) == (dup.u, dup.v, dup.t) and first.uid != dup.uid
        # right endpoints and stamp, uid of no edge or of another edge
        assert not g.has_edge(first._replace(uid=9))
        assert not g.has_edge(first._replace(uid=edges[1].uid))
        # right uid, wrong stamp
        assert not g.has_edge(dup._replace(t=4))
        assert not g.has_edge(dup._replace(t=6))

    @PROPERTY_SETTINGS
    @given(triples_strategy, st.integers(0, 2**32 - 1))
    def test_random_insert_delete_keeps_rows_sorted(self, triples, seed):
        rng = random.Random(seed)
        g = build_time(triples)
        live = g.edges()
        for _ in range(20):
            if live and rng.random() < 0.5:
                g.remove_edge(live.pop(rng.randrange(len(live))))
            else:
                live.append(g.insert_edge(f"u{rng.randrange(4)}", f"v{rng.randrange(4)}", rng.randint(0, 50)))
        assert g.edge_count == len(live)
        for adj in (g.upper_adj, g.lower_adj):
            for row in adj:
                assert all(row[i][1] <= row[i + 1][1] for i in range(len(row) - 1))


class TestTimestampArrays:
    """Each time row's stamps are mirrored as plain ints."""

    @PROPERTY_SETTINGS
    @given(triples_strategy, st.integers(0, 2**32 - 1))
    def test_arrays_track_rows_through_inserts_and_removes(self, triples, seed):
        rng = random.Random(seed)
        g = build_time(triples)
        assert_times_match_rows(g)
        live = g.edges()
        for _ in range(30):
            if live and rng.random() < 0.4:
                g.remove_edge(live.pop(rng.randrange(len(live))))
            elif live and rng.random() < 0.3:
                # duplicate of a live edge: same endpoints and timestamp
                e = rng.choice(live)
                live.append(g.insert_edge(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t))
            else:
                live.append(g.insert_edge(f"u{rng.randrange(10)}", f"v{rng.randrange(10)}", rng.randint(0, 50)))
            assert_times_match_rows(g)
        assert all(g.has_edge(e) for e in live)

    @pytest.mark.parametrize("mutation", [None, *MUTATIONS])
    @pytest.mark.parametrize("build", [build_plain, build_time], ids=["from_edges", "insert_edge"])
    def test_engines_count_as_built_and_mutated_graphs_with_no_sort(self, build, mutation):
        # two butterflies on a, b and x, y share three edges; x ranks top, and
        # its row meets middles a, b, a, so its end bucket scatters a's wedges
        g = build([("a", "x", 1), ("a", "y", 2), ("b", "x", 3), ("b", "y", 4), ("a", "x", 5)])
        live = CountVector(oracle_count(g, 3))
        assert live == [0, 1, 0, 0, 1, 0]
        if mutation is not None:
            MUTATIONS[mutation](g, live)
        assert_times_match_rows(g)
        priority = compute_vertex_priority(g)
        expected = oracle_count(g, 3)
        for run in COUNTING_ENGINES:
            assert run(g, priority) == expected
        if mutation not in (None, "insert_edge", "remove_edge"):
            assert live == expected

