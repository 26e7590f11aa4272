"""Shared fixtures: the two hand fixtures, graph builders, random corpora."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, settings

from tempobf import (
    TemporalBipartiteGraph,
    compute_vertex_priority,
    sort_adjacency_by_priority,
    sort_adjacency_by_time,
)
from tempobf.graph import LAYOUT_PRIORITY, LAYOUT_TIME

# one 2x2 biclique whose four stamps climb 1..4; butterfly span 3
F1 = (("u1", "v1", 1), ("u1", "v2", 2), ("u2", "v1", 3), ("u2", "v2", 4))
# F1 plus a parallel (u1, v1) edge at t=5, adding one mixed-direction butterfly
F2 = F1 + (("u1", "v1", 5),)

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_priority(triples):
    """Graph in counting layout plus its vertex priority."""
    g = TemporalBipartiteGraph.from_edges(triples)
    priority = compute_vertex_priority(g)
    sort_adjacency_by_priority(g, priority)
    return g, priority


def build_time(triples):
    """Graph in streaming layout."""
    g = TemporalBipartiteGraph.from_edges(triples)
    sort_adjacency_by_time(g)
    return g


def assert_times_match_rows(g):
    """The chronological copy of every row matches the row.

    In the time layout it is the row's timestamps, in order; in the priority
    layout it is the row's time view, exactly its entries in (t, uid) order.
    """
    assert g.layout in (LAYOUT_TIME, LAYOUT_PRIORITY)
    assert len(g.upper_times) == len(g.upper_adj)
    assert len(g.lower_times) == len(g.lower_adj)
    for times, adj in ((g.upper_times, g.upper_adj), (g.lower_times, g.lower_adj)):
        for row_times, row in zip(times, adj):
            if g.layout == LAYOUT_TIME:
                assert row_times == [t for _, t, _ in row]
            else:
                assert row_times == sorted(row, key=lambda e: (e[1], e[2]))


def build_plain(triples):
    return TemporalBipartiteGraph.from_edges(triples)


def random_triples(rng: random.Random, max_side: int = 8, max_edges: int = 40, t_max: int = 50):
    nu = rng.randint(1, max_side)
    nl = rng.randint(1, max_side)
    ne = rng.randint(0, max_edges)
    return [
        (f"u{rng.randrange(nu)}", f"v{rng.randrange(nl)}", rng.randint(0, t_max))
        for _ in range(ne)
    ]
