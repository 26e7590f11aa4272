"""The fork pool the engines walk on, and _Child, the one place the package forks.

count_optimized, count_extreme and count_sampled count on the pool, and both
enumerators walk on it, on the n processes _processes allows, in the chunks
of starts _chunks cuts from the graph alone.  The caller writes one byte
per chunk id into a pipe and closes its write end before it forks; then
every process, the caller too, claims its next chunk by reading one byte
until the pipe runs dry, so each chunk is walked once and no process waits
on another while chunks remain.  A counting child sends the tallies of its
chunks in one reply; an enumerating child sends each chunk's id as it
claims it, then its end buckets as it walks them, and the caller emits the
chunks in id order, the same at every n.  An exception in the parent, a
sink's or a KeyboardInterrupt among them, kills and reaps every child and
closes the pipes first.  _in_child runs one function, as tempobf bench runs
each engine, in a _Child leading its own process group, so that killing the
group also ends the engine's pool.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import threading
import time
from array import array
from bisect import bisect_left
from contextlib import suppress
from functools import partial
from itertools import accumulate, chain, islice
from typing import Callable, Iterable, Iterator

from .graph import TemporalBipartiteGraph

# Each process walks a share of at least this many of the graph's edges, so
# graphs of fewer than twice as many are walked in the calling process.  A
# fork and pipe round trip takes 1.5-2 ms from a 40 MB process, the parent
# forks its children one after another, and a child runs its part about 10%
# slower than the parent would, on copy-on-write faults; so two parts lost
# on a 5,000-edge window (2.7 -> 6.8 ms) and on a sparse 15,000-edge sample
# (16 -> 17 ms), while generated graphs of 30,000 edges and more, skewed or
# uniform, gained 18-38% (2 CPUs; more parts were not timed).
_EDGES_PER_PART = 15_000

# A graph the pool may fork for is walked in this many chunks at every n, so
# the processes end together on the lightest: 32, 64 and 255 timed within
# noise at 2 processes (2 CPUs).  A chunk's id is one byte in the token pipe.
_CHUNKS = 64

# A child pickles a chunk's items this many at a time, and its parent hands
# on one reply at a time.  On skew-narrow, whose hub buckets are large,
# replies of 256 buckets cost the parent 0.7 MB of peak RSS over a serial
# run and replies of 64 0.4 MB.
_REPLY_CHUNK = 64

# A child's pipe is grown to this size where the OS allows (Linux's default
# cap), so a child walks on while its parent is busy instead of stalling on
# a full 64 KiB pipe.  Enumerating into null_sink (2 CPUs), that took uniform
# from 0.085 to 0.078 s and the skew input at delta 10000 from 0.389 to 0.366 s.
_PIPE_BYTES = 1 << 20

# a child's records: a chunk it claimed, items of it with more to come, its
# last items (or a counting child's one reply), the text of its failure
_CLAIMED, _MORE, _END, _FAILED = range(4)

# held from a fork until its child is registered, so no handler can raise in between
_HELD_SIGNALS = signal.valid_signals()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether os.fork exists and no other thread is alive, whose locks would stay held in a forked child."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _processes(g: TemporalBipartiteGraph, workers: int | None) -> int:
    """The processes g's walk runs on: at most workers (None: every usable CPU), one per _EDGES_PER_PART edges."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    cpus = _usable_cpus()
    n = min(cpus if workers is None else workers, cpus, g.edge_count // _EDGES_PER_PART)
    return n if n > 1 and _can_fork() else 1


def _chunks(g: TemporalBipartiteGraph) -> list[tuple[array, array] | None]:
    """The starts of g's walk, (upper ids, lower ids), in at most _CHUNKS chunks, heaviest first.

    A start weighs its time row's length, the degree priority ranks by.
    The starts of both layers, heaviest first with ties in (layer, id)
    order, are cut where their running weight reaches each multiple of
    total / _CHUNKS, so a start heavier than that sits alone.  A graph the
    pool never forks for is one chunk, None: every start in id order, as 64
    took serial counts of 5,000-edge stream windows 7-12% longer.
    """
    if g.edge_count < 2 * _EDGES_PER_PART:
        return [None]
    weights = list(map(len, chain(g.upper_adj, g.lower_adj)))
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    running = list(accumulate(map(weights.__getitem__, order)))
    # the last chunk also takes the starts of no weight
    ends = sorted({bisect_left(running, -(-running[-1] * k // _CHUNKS)) + 1 for k in range(1, _CHUNKS)} | {len(order)})
    up = g.upper_count
    cuts = [order[a:b] for a, b in zip([0] + ends, ends)]
    return [(array("l", [s for s in ids if s < up]), array("l", [s - up for s in ids if s >= up])) for ids in cuts]


class _Child:
    """The records of fn(), made in a forked child process and sent back pickled through a pipe.

    The child writes each record as fn makes it, so it blocks on a full
    pipe until its parent reads.  It ends in os._exit whatever happens, so
    it never unwinds into the caller's stack or flushes the caller's
    buffers; an exception in fn comes back as text, after the records made
    before it.  The child is appended to started before any signal that
    arrived since the fork is let in, so a caller that kills every started
    child in a finally leaves none behind.  records() yields the records as
    they arrive and reaps the child after the last; kill() ends and reaps a
    child still running.  A leader child leads a process group of its own,
    set on both sides, so kill() ends the children it forked too, and no
    terminal signal reaches it.
    """

    __slots__ = ("pid", "_pipe", "_leader")

    def __init__(self, fn: Callable[[], Iterable[tuple[int, object]]], started: list[_Child], leader: bool = False) -> None:
        self._pipe = None
        self._leader = leader
        read, write = os.pipe()
        with suppress(ImportError, AttributeError, OSError):
            import fcntl

            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD_SIGNALS)
        try:
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                code = 1
                try:
                    if leader:
                        os.setpgid(0, 0)
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(read)
                    with open(write, "wb") as out:
                        try:
                            for record in fn():
                                out.write(pickle.dumps(record))
                                out.flush()
                        except BaseException as exc:
                            out.write(pickle.dumps((_FAILED, f"{type(exc).__name__}: {exc}")))
                    code = 0
                finally:
                    os._exit(code)
            self.pid = pid
            started.append(self)
            if leader:
                with suppress(OSError):
                    os.setpgid(pid, pid)
            os.close(write)
            self._pipe = open(read, "rb")
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def records(self) -> Iterator[tuple[int, object]]:
        while True:
            try:
                status, payload = pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):
                break
            if status == _FAILED:
                raise ChildProcessError(f"child process {self.pid} failed: {payload}")
            yield status, payload
        self._pipe.close()
        pid, code = os.waitpid(self.pid, 0)
        self.pid = 0
        code = os.waitstatus_to_exitcode(code)
        if code != 0:
            raise ChildProcessError(f"child process {pid} ended with status {code} before its last reply")

    def kill(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
        if self.pid:
            with suppress(ProcessLookupError):
                (os.killpg if self._leader else os.kill)(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


def _run_pool(g: TemporalBipartiteGraph, workers: int | None, serve: Callable, gather: Callable):
    """gather(claims, children, chunk count), serve(claims) running in each child; see the module docstring.

    claims yields (id, starts) for each chunk of _chunks(g) this process
    claims, by one byte read from the token pipe.  Whatever ends the call,
    every child is killed and reaped and the pipe closed first.
    """
    n = _processes(g, workers)
    chunks = _chunks(g)
    tokens, write = os.pipe()
    children: list[_Child] = []

    def claims():
        return ((k, chunks[k]) for (k,) in iter(partial(os.read, tokens, 1), b""))

    try:
        try:
            os.write(write, bytes(range(len(chunks))))
        finally:
            os.close(write)
        for _ in range(1, n):
            # no process to spare: the others claim its share
            with suppress(OSError):
                _Child(lambda: serve(claims()), children)
        return gather(claims(), children, len(chunks))
    finally:
        for child in children:
            child.kill()
        os.close(tokens)


def _in_child(fn: Callable[[], object], cap: float) -> tuple[object, float, int]:
    """fn()'s value, wall seconds and peak RSS bytes above the RSS at fork, from a leader _Child.

    The peak is the child's or its largest reaped child's, not a sum.  With
    no reply within cap seconds (0: no cap) the value is None.  Whatever
    ends the call, the whole group is killed and the child reaped.  Without
    _can_fork, fn runs here, uncapped, with a peak of 0.
    """
    if not _can_fork():
        start = time.perf_counter()
        return fn(), time.perf_counter() - start, 0

    def measured():
        import resource  # POSIX, as os.fork is

        base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - start
        peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        # kibibytes, but bytes on macOS
        yield _END, (value, seconds, (peak - base) * (1 if sys.platform == "darwin" else 1024))

    started: list[_Child] = []
    try:
        child = _Child(measured, started, leader=True)
        if not select.select([child._pipe], [], [], cap or None)[0]:
            return None, cap, 0
        ((_, reply),) = child.records()
        return reply
    finally:
        for child in started:
            child.kill()


def _walk_in_chunk_order(g, workers: int | None, walk: Callable[[object], Iterable], take: Callable[[Iterable], None]) -> None:
    """take(walk(starts)) for each chunk of g's walk on the fork pool, in id order; see the module docstring."""

    def serve(claims):
        for k, starts in claims:
            yield _CLAIMED, k
            items = iter(walk(starts))
            while len(batch := list(islice(items, _REPLY_CHUNK))) == _REPLY_CHUNK:
                yield _MORE, batch
            yield _END, batch

    def gather(claims, children, count):
        # the records of children whose next record is a claim, or their end
        idle = [child.records() for child in children]
        owners = {}
        held = {}
        for k in range(count):
            # a chunk claimed ahead of its turn is walked into a list and held
            if not held:
                for j, starts in islice(claims, 1):
                    held[j] = walk(starts) if j == k else list(walk(starts))
            if k in held:
                take(held.pop(k))
                continue
            while k not in owners:
                records = idle.pop()
                for _, j in islice(records, 1):
                    owners[j] = records
            records = owners.pop(k)
            for status, items in records:
                take(items)
                if status == _END:
                    break
            idle.append(records)

    _run_pool(g, workers, serve, gather)
