"""Temporal bipartite multigraph model and edge-list input/output.

Vertices live in two disjoint layers, called upper and lower.  Every edge
joins one upper vertex to one lower vertex and carries an integer timestamp;
parallel edges with different (or even equal) timestamps are allowed.  Input
tokens are interned to dense per-layer internal ids in order of first
appearance, and the original tokens are kept for output.

Every graph, from the moment it is built, keeps each adjacency row in
(t, uid) order, its time rows, with the row's stamps as a plain int array
beside it.  The streaming engines mutate these, and the counting engines
read them as they are, given a vertex priority that ranks every vertex.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple

class GraphParseError(ValueError):
    """Raised for malformed edge-list input; the message names the line."""


class TemporalEdge(NamedTuple):
    """One temporal edge, identified by endpoints, timestamp, and arrival index.

    The arrival index makes duplicate (u, v, t) edges distinguishable, so
    deleting one of them removes the oldest copy first.
    """

    u: int
    v: int
    t: int
    uid: int


@dataclass
class VertexPriority:
    """Rank in [1, |V|] per vertex, ascending in (temporal degree, global id).

    Global ids place the upper layer at [0, |U|) and the lower layer at
    [|U|, |U| + |L|), which fixes the tie-break between layers.
    """

    upper: list[int]
    lower: list[int]


class TemporalBipartiteGraph:
    """Adjacency-list temporal bipartite multigraph.

    Each adjacency entry is a (neighbor, t, uid) tuple and every edge appears
    in exactly two rows, one per endpoint.  upper_adj and lower_adj are time
    rows, ordered by (t, uid), and upper_times and lower_times hold each
    row's stamps as plain ints, so time ranges bisect at C speed.
    """

    __slots__ = (
        "upper_tokens",
        "lower_tokens",
        "_upper_ids",
        "_lower_ids",
        "upper_adj",
        "lower_adj",
        "edge_count",
        "_next_uid",
        "upper_times",
        "lower_times",
    )

    def __init__(self) -> None:
        self.upper_tokens: list[str] = []
        self.lower_tokens: list[str] = []
        self._upper_ids: dict[str, int] = {}
        self._lower_ids: dict[str, int] = {}
        self.upper_adj: list[list[tuple[int, int, int]]] = []
        self.lower_adj: list[list[tuple[int, int, int]]] = []
        self.edge_count = 0
        self._next_uid = 0
        self.upper_times: list[list[int]] = []
        self.lower_times: list[list[int]] = []

    @property
    def upper_count(self) -> int:
        return len(self.upper_tokens)

    @property
    def lower_count(self) -> int:
        return len(self.lower_tokens)

    def _intern(self, token: str, ids: dict[str, int], tokens: list[str], adj: list[list], times: list[list[int]]) -> int:
        vid = ids.get(token)
        if vid is None:
            _check_token(token)
            vid = len(tokens)
            ids[token] = vid
            tokens.append(token)
            adj.append([])
            times.append([])
        return vid

    @classmethod
    def from_edges(cls, triples: Iterable[tuple[str, str, int]]) -> "TemporalBipartiteGraph":
        """The graph an insert_edge loop builds from the triples: rows appended in one loop, then each sorted once."""
        g = cls()
        up_ids, lo_ids, up, lo = g._upper_ids, g._lower_ids, g.upper_adj, g.lower_adj
        for uid, (u, v, t) in enumerate(triples):
            u, v = str(u), str(v)
            if type(t) is not int:
                t = _stamp(t)
            a = up_ids.get(u)
            if a is None:
                a = g._intern(u, up_ids, g.upper_tokens, up, g.upper_times)
            b = lo_ids.get(v)
            if b is None:
                b = g._intern(v, lo_ids, g.lower_tokens, lo, g.lower_times)
            up[a].append((b, t, uid))
            lo[b].append((a, t, uid))
        g.upper_times, g.lower_times = _time_rows(up), _time_rows(lo)
        g.edge_count = g._next_uid = sum(map(len, up))
        return g

    def _subgraph(self, keep: bytearray) -> "TemporalBipartiteGraph":
        """The edges whose uid is set in keep, a bytearray by uid, filtered in one pass from the time rows onto the same vertex ids."""
        sub = TemporalBipartiteGraph()
        sub.upper_tokens, sub.lower_tokens = self.upper_tokens[:], self.lower_tokens[:]
        sub._upper_ids, sub._lower_ids = dict(self._upper_ids), dict(self._lower_ids)
        sub.upper_adj = [[e for e in row if keep[e[2]]] for row in self.upper_adj]
        sub.lower_adj = [[e for e in row if keep[e[2]]] for row in self.lower_adj]
        # rows filtered from time rows are time rows already
        sub.upper_times, sub.lower_times = _stamp_rows(sub.upper_adj), _stamp_rows(sub.lower_adj)
        sub.edge_count, sub._next_uid = sum(map(len, sub.upper_adj)), self._next_uid
        return sub

    def edges(self) -> list[TemporalEdge]:
        """All edges in ingestion order."""
        out = [TemporalEdge(u, v, t, uid) for u, row in enumerate(self.upper_adj) for v, t, uid in row]
        out.sort(key=itemgetter(3))
        return out

    # Mutation; both keep the time rows sorted.

    def insert_edge(self, u_token: str, v_token: str, t: int | str) -> TemporalEdge:
        """Add one edge after any equal stamps in its time rows; t is an int or a string holding one."""
        if type(t) is not int:
            t = _stamp(t)
        u = self._upper_ids.get(u_token) if type(u_token) is str else None
        if u is None:
            u = self._intern(str(u_token), self._upper_ids, self.upper_tokens, self.upper_adj, self.upper_times)
        v = self._lower_ids.get(v_token) if type(v_token) is str else None
        if v is None:
            v = self._intern(str(v_token), self._lower_ids, self.lower_tokens, self.lower_adj, self.lower_times)
        uid = self._next_uid
        self._next_uid = uid + 1
        row, times = self.upper_adj[u], self.upper_times[u]
        i = bisect_right(times, t)
        row.insert(i, (v, t, uid))
        times.insert(i, t)
        row, times = self.lower_adj[v], self.lower_times[v]
        i = bisect_right(times, t)
        row.insert(i, (u, t, uid))
        times.insert(i, t)
        self.edge_count += 1
        return tuple.__new__(TemporalEdge, (u, v, t, uid))

    def remove_edge(self, e: TemporalEdge) -> None:
        """Delete e from both its rows, or raise KeyError and delete nothing."""
        u, v, t, uid = e
        up, lo = self.upper_adj, self.lower_adj
        i = _find_entry(up[u], self.upper_times[u], v, t, uid) if 0 <= u < len(up) else None
        j = _find_entry(lo[v], self.lower_times[v], u, t, uid) if i is not None and 0 <= v < len(lo) else None
        if j is None:
            raise KeyError(f"edge {e} not present")
        del up[u][i], self.upper_times[u][i], lo[v][j], self.lower_times[v][j]
        self.edge_count -= 1

    def has_edge(self, e: TemporalEdge) -> bool:
        if not (0 <= e.u < self.upper_count and 0 <= e.v < self.lower_count):
            return False
        return _find_entry(self.upper_adj[e.u], self.upper_times[e.u], e.v, e.t, e.uid) is not None


def _check_token(token: str) -> None:
    if not token or token.split() != [token]:
        raise ValueError(f"vertex token {token!r} is empty or contains whitespace")


def _stamp(t: int | str) -> int:
    """t as an int: an int, or a string holding one; ValueError naming t otherwise."""
    if isinstance(t, (int, str)) and not isinstance(t, bool):
        try:
            return int(t)
        except ValueError:
            pass
    raise ValueError(f"timestamp {t!r} is not an integer")


def _time_rows(adj: list[list[tuple[int, int, int]]]) -> list[list[int]]:
    """Sort each row stably by t, so rows grown in uid order become time rows; return their stamp arrays."""
    by_t = itemgetter(1)
    for row in adj:
        row.sort(key=by_t)
    return _stamp_rows(adj)


def _stamp_rows(adj: list[list[tuple[int, int, int]]]) -> list[list[int]]:
    """The stamp array of each time row."""
    by_t = itemgetter(1)
    return [list(map(by_t, row)) for row in adj]


def _find_entry(row: list[tuple[int, int, int]], stamps: list[int], nbr: int, t: int, uid: int) -> int | None:
    """Index of the entry (nbr, t, uid) in a time row, or None; stamps is the row's stamp array."""
    i = bisect_left(stamps, t)
    while i < len(row) and row[i][1] == t:
        if row[i][2] == uid:
            return i if row[i][0] == nbr else None
        i += 1
    return None


def compute_vertex_priority(g: TemporalBipartiteGraph) -> VertexPriority:
    """Assign ranks 1..|V| ascending in (temporal degree, global id)."""
    nu = g.upper_count
    order = sorted(
        [(len(g.upper_adj[u]), u) for u in range(nu)]
        + [(len(g.lower_adj[v]), nu + v) for v in range(g.lower_count)]
    )
    upper = [0] * nu
    lower = [0] * g.lower_count
    for rank, (_, gid) in enumerate(order, 1):
        if gid < nu:
            upper[gid] = rank
        else:
            lower[gid - nu] = rank
    return VertexPriority(upper, lower)


def sort_adjacency_by_priority(g: TemporalBipartiteGraph, priority: VertexPriority) -> None:
    """Do nothing: kept so callers written for priority rows still run.

    The counting engines read the time rows every graph keeps, skipping
    neighbors that do not rank below the start vertex, so no second copy of
    the rows is needed.  Calling it is never required.
    """


def iter_edge_stream(source: str | os.PathLike | IO[str] | Iterable[str]) -> Iterator[tuple[str, str, int]]:
    """Yield (u, v, t) token triples from edge-list text.

    Lines hold either `u v t` or the four-field `u v w t` dialect, where the
    third field is a weight and is ignored.  Blank lines and lines starting
    with `#` or `%` are skipped, and so is a byte-order mark opening the
    input.  Malformed lines raise GraphParseError naming the line number.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from _iter_lines(fh)
    else:
        yield from _iter_lines(source)


def _iter_lines(lines: Iterable[str]) -> Iterator[tuple[str, str, int]]:
    lines = iter(lines)
    # a leading byte-order mark is not whitespace, so split would glue it to the first token
    first = next(lines, "").removeprefix("\ufeff")
    for lineno, raw in enumerate(chain((first,), lines), 1):
        parts = raw.split()
        if not parts or parts[0][0] in "#%":
            continue
        if len(parts) == 3:
            u, v, ts = parts
        elif len(parts) == 4:
            u, v, _, ts = parts
        else:
            raise GraphParseError(f"line {lineno}: expected 3 or 4 fields, got {len(parts)}")
        try:
            t = int(ts)
        except ValueError:
            raise GraphParseError(f"line {lineno}: timestamp {ts!r} is not an integer") from None
        yield u, v, t


def load_edge_list(source: str | os.PathLike | IO[str] | Iterable[str]) -> TemporalBipartiteGraph:
    """Parse an edge list into a graph, `_iter_lines` feeding `from_edges` directly; an empty input is a valid empty graph."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    return TemporalBipartiteGraph.from_edges(_iter_lines(source))


def save_edge_list(g: TemporalBipartiteGraph, sink: str | os.PathLike | IO[str]) -> None:
    """Write `u v t` lines in ingestion order; reloading gives the same edges."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            save_edge_list(g, fh)
        return
    for e in g.edges():
        sink.write(f"{g.upper_tokens[e.u]} {g.lower_tokens[e.v]} {e.t}\n")
