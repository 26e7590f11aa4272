"""Shared fixtures: the two hand fixtures, graph builders, random corpora, fork pool doubles, a timer that raises."""

from __future__ import annotations

import os
import random
import signal
import threading
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

import tempobf._pool as pool_module
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


# -- the fork pool -------------------------------------------------------------


def hub_triples(rng: random.Random):
    """Upper hub u0 holds 120 of the 200 edges, 7 other upper vertices the rest, all on 12 lower vertices."""
    hub = [("u0", f"v{rng.randrange(12)}", rng.randint(0, 400)) for _ in range(120)]
    return hub + [(f"u{rng.randint(1, 7)}", f"v{rng.randrange(12)}", rng.randint(0, 400)) for _ in range(80)]


HUB_TRIPLES = hub_triples(random.Random(11))
HUB_DELTA = 60


class Alarm(Exception):
    """Raised by alarm's timer."""


@contextmanager
def alarm(seconds: float):
    """Raise Alarm in the main thread once seconds of wall time have passed in the block."""

    def on_alarm(_signum, _frame):
        raise Alarm

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_fork(calls: list):
    """An os.fork that records each call in calls and fails as an exhausted process table does, so none starts a process."""

    def fake_fork():
        calls.append(1)
        raise BlockingIOError("fake fork")

    return fake_fork


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork call, recorded; each one fails, so every part is walked in the calling process."""
    calls = []
    monkeypatch.setattr(os, "fork", failing_fork(calls))
    return calls


@pytest.fixture
def real_pool(monkeypatch):
    """Two processes, the caller and one forked child, on any input; yields the pids of the children forked."""
    monkeypatch.setattr(pool_module, "_EDGES_PER_PART", 1)
    monkeypatch.setattr(pool_module, "_usable_cpus", lambda: 2)
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    assert threading.active_count() == 1
    assert_no_child_left()
    yield pids
    assert_no_child_left()
