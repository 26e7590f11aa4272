"""Shared fixtures: the two hand fixtures, graph builders, random corpora."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, settings

from tempobf import TemporalBipartiteGraph, compute_vertex_priority

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
    """Graph straight from from_edges, plus its vertex priority."""
    g = TemporalBipartiteGraph.from_edges(triples)
    return g, compute_vertex_priority(g)


def build_time(triples):
    """Graph grown edge by edge through insert_edge, as streaming grows it."""
    g = TemporalBipartiteGraph()
    for u, v, t in triples:
        g.insert_edge(u, v, t)
    return g


def assert_times_match_rows(g):
    """Every time row is in (t, uid) order and its stamp array matches it."""
    assert len(g.upper_times) == len(g.upper_adj)
    assert len(g.lower_times) == len(g.lower_adj)
    for times, adj in ((g.upper_times, g.upper_adj), (g.lower_times, g.lower_adj)):
        for row_times, row in zip(times, adj):
            assert row == sorted(row, key=lambda e: (e[1], e[2]))
            assert row_times == [t for _, t, _ in row]


def build_plain(triples):
    """Graph straight from from_edges, without its vertex priority."""
    return TemporalBipartiteGraph.from_edges(triples)


def random_triples(rng: random.Random, max_side: int = 8, max_edges: int = 40, t_max: int = 50):
    nu = rng.randint(1, max_side)
    nl = rng.randint(1, max_side)
    ne = rng.randint(0, max_edges)
    return [
        (f"u{rng.randrange(nu)}", f"v{rng.randrange(nl)}", rng.randint(0, t_max))
        for _ in range(ne)
    ]
