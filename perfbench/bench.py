"""Workload bodies, run in the child process that run.py starts.

run_timed measures the end-to-end metrics with tracing off.  run_traced
records spans around calls into the public functions of graph, count,
enumeration and stream, and derives the per-layer metrics from them.  Both
check every result they time; each check is one attempted operation.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import hostspeed
import tempobf.stream as tempobf_stream
from tempobf import (
    TemporalBipartiteGraph,
    compute_vertex_priority,
    count_extreme,
    count_optimized,
    count_sampled,
    enumerate_optimized,
    iter_edge_stream,
    load_edge_list,
    null_sink,
    run_sliding_window,
    sort_adjacency_by_priority,
)

# Every timed operation runs at least this often per run, so each reported
# median rests on three samples even when one call outlasts --seconds, and
# one call slowed by the host cannot move it.
MIN_REPS = 3
# A static set-up takes about 0.3 s and parsing the stream about 25 ms; single
# set-ups on a shared two-core host vary by up to 1.8x, hence the medians.
STATIC_SETUP_REPS = 7
STREAM_SETUP_REPS = 30
# One 5000-edge window is too small a sample of the stream to time alone, so
# count_s on the stream recounts the window of every 8th step, 20 windows
# ending with the final one.
RECOUNT_EVERY = 8


class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


class Tracer:
    """Spans kept in memory: name, start, end, parent span, workload, attributes."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, attrs]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def seconds(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def children(self, parent: int, name: str) -> list[int]:
        return [i for i, (n, _, _, p, _) in enumerate(self.spans) if p == parent and n == name]

    def seconds_by_parent(self, name: str) -> dict[int, float]:
        """Summed duration of the spans called name, keyed by their parent span."""
        out: dict[int, float] = {}
        for n, start, end, parent, _ in self.spans:
            if n == name:
                out[parent] = out.get(parent, 0.0) + end - start
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                row = {
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "workload": self.workload,
                }
                row.update(attrs)
                fh.write(json.dumps(row) + "\n")


@contextmanager
def traced_layers(tracer: Tracer, io: dict):
    """Wrap the graph's streaming mutations and the stream's batch_update in spans.

    The sliding window calls both through their public names, so the spans
    nest as run_sliding_window > batch_update > insert_edge / remove_edge.
    batch_update also reports its edges and butterflies into io.
    """
    insert, remove, batch = (
        TemporalBipartiteGraph.insert_edge,
        TemporalBipartiteGraph.remove_edge,
        tempobf_stream.batch_update,
    )

    def insert_edge(self, u_token, v_token, t):
        with tracer.span("graph.insert_edge"):
            return insert(self, u_token, v_token, t)

    def remove_edge(self, e):
        with tracer.span("graph.remove_edge"):
            return remove(self, e)

    def batch_update(g, delta, deletions, insertions, live, workers=1, stats=None):
        stats = {} if stats is None else stats
        with tracer.span("stream.batch_update"):
            inserted = batch(g, delta, deletions, insertions, live, workers, stats)
        io["edges_in"] += len(insertions)
        io["edges_out"] += len(deletions)
        io["added"] += stats["added"].total()
        io["removed"] += stats["removed"].total()
        return inserted

    TemporalBipartiteGraph.insert_edge = insert_edge
    TemporalBipartiteGraph.remove_edge = remove_edge
    tempobf_stream.batch_update = batch_update
    try:
        yield
    finally:
        TemporalBipartiteGraph.insert_edge = insert
        TemporalBipartiteGraph.remove_edge = remove
        tempobf_stream.batch_update = batch


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def timed_scaled(fn, *args):
    """(result, seconds at the reference host speed, speed factor) of one call; see hostspeed."""
    out, seconds, factor = hostspeed.speed_around(lambda: timed(fn, *args))
    return out, seconds / factor, factor


def peak_alloc(fn, *args):
    """(result, peak traced MiB) of one call under tracemalloc; never used for timing."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def load_sorted(path: str):
    g = load_edge_list(path)
    priority = compute_vertex_priority(g)
    sort_adjacency_by_priority(g, priority)
    return g, priority


def priority_graph(triples):
    g = TemporalBipartiteGraph.from_edges(triples)
    priority = compute_vertex_priority(g)
    sort_adjacency_by_priority(g, priority)
    return g, priority


def sample_triples(g: TemporalBipartiteGraph, p: float, seed: int):
    """The edges count_sampled keeps: one draw per edge, in ingestion order."""
    rng = random.Random(seed)
    return [(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t) for e in g.edges() if rng.random() < p]


def chronological_triples(g: TemporalBipartiteGraph):
    """g's edges as the stable timestamp sort of their ingestion order."""
    triples = [(g.upper_tokens[e.u], g.lower_tokens[e.v], e.t) for e in g.edges()]
    triples.sort(key=lambda e: e[2])
    return triples


def wedge_stats(g: TemporalBipartiteGraph, priority, delta: int) -> tuple[int, int, int]:
    """(wedges, live wedges, end buckets with two or more middles) of the counters.

    The engines build a wedge from every start vertex s through a middle and
    on to an end vertex, both of strictly lower priority than s.  A wedge is
    live when its two timestamps differ by 1..delta; only end buckets whose
    live wedges span two or more middles reach the index probes.
    """
    wedges = live = multi = 0
    for starts, mids, sprio, mprio in (
        (g.upper_adj, g.lower_adj, priority.upper, priority.lower),
        (g.lower_adj, g.upper_adj, priority.lower, priority.upper),
    ):
        for s, row in enumerate(starts):
            ps = sprio[s]
            ends: dict[int, set[int]] = {}
            # rows are ordered by neighbor priority descending
            for v, t1, _ in reversed(row):
                if mprio[v] >= ps:
                    break
                for w, t2, _ in reversed(mids[v]):
                    if sprio[w] >= ps:
                        break
                    wedges += 1
                    d = t2 - t1
                    if d and -delta <= d <= delta:
                        live += 1
                        ends.setdefault(w, set()).add(v)
            multi += sum(1 for middles in ends.values() if len(middles) > 1)
    return wedges, live, multi


class StepClock:
    """Sink for run_sliding_window that times each step apart from its own work."""

    def __init__(self, after_step=None) -> None:
        self.seconds: list[float] = []
        self.lives: list = []
        self.after_step = after_step
        gc.collect()
        self._mark = time.perf_counter()

    def __call__(self, step, _start_t, _end_t, live) -> None:
        self.seconds.append(time.perf_counter() - self._mark)
        self.lives.append(live)
        if self.after_step is not None:
            self.after_step(step, live)
        self._mark = time.perf_counter()


def run_stream(src, delta: int, cfg: dict, workers: int, after_step=None) -> StepClock:
    clock = StepClock(after_step)
    run_sliding_window(src, delta, cfg["window"], cfg["stride"], "stbc+", workers, clock)
    return clock


def window_at(src, step: int, cfg: dict):
    """The live window after the given step: the newest `window` edges read so far."""
    end = min((step + 1) * cfg["stride"], len(src))
    return src[max(0, end - cfg["window"]):end]


# --- timed run ----------------------------------------------------------------


def run_timed(spec: dict, conf: dict, path: str, pinned: dict | None, seconds: float, tally: Tally):
    """(end-to-end metrics, median host speed factor); pinned holds the vectors at the default seed.

    Every timing is scaled to the reference host speed (see hostspeed).
    """
    if spec["task"] == "stream":
        return _timed_stream(spec, conf, path, pinned, seconds, tally)
    delta = spec["delta"]
    setups, factors = [], []
    for _ in range(STATIC_SETUP_REPS):
        g = priority = None  # each set-up starts from the same heap
        (g, priority), s, f = timed_scaled(load_sorted, path)
        setups.append(s)
        factors.append(f)
    if spec["task"] == "sample":
        p, seed = conf["sample"]["p"], conf["sample"]["seed"]
        task = lambda: count_sampled(g, priority, delta, p, seed)
    else:
        task = lambda: enumerate_optimized(g, priority, delta, null_sink)
    calls = {"count": lambda: count_extreme(g, priority, delta), "task": task}
    # Rounds of one call each repeat until --seconds have passed.
    scaled: dict[str, list[float]] = {name: [] for name in calls}
    outs: dict[str, list] = {name: [] for name in calls}
    start = time.perf_counter()
    while len(scaled["count"]) < MIN_REPS or time.perf_counter() - start < seconds:
        for name, call in calls.items():
            out, s, f = timed_scaled(call)
            scaled[name].append(s)
            outs[name].append(out)
            factors.append(f)
    # the reference results are computed after the RSS peak is read, so the
    # checks do not count in it
    rss = peak_rss_mb()
    expect = pinned["count"] if pinned else count_optimized(g, priority, delta)
    if spec["task"] == "enumerate":
        expect_task = expect
    elif pinned:
        expect_task = pinned["sample"]
    else:
        sg, sp = priority_graph(sample_triples(g, p, seed))
        expect_task = count_optimized(sg, sp, delta).scaled(p**-4)
    for counts in outs["count"]:
        tally.check(counts == expect, "count_extreme")
    for result in outs["task"]:
        tally.check(result == expect_task, spec["task"])
    metrics = {
        "setup_s": statistics.median(setups),
        "count_s": statistics.median(scaled["count"]),
        "task_s": statistics.median(scaled["task"]),
        "peak_rss_mb": rss,
    }
    return metrics, statistics.median(factors)


def _timed_stream(spec, conf, path, pinned, seconds, tally):
    delta, cfg = spec["delta"], conf["stream"]
    setups, factors = [], []
    for _ in range(STREAM_SETUP_REPS):
        src = None
        src, s, f = timed_scaled(lambda: list(iter_edge_stream(path)))
        setups.append(s)
        factors.append(f)
    # one row per pass (about 7.5 s): the scaled seconds of each step, and of
    # each recount; a timing sums each column's median across passes
    step_s, recount_s = [], []
    start = time.perf_counter()
    while len(step_s) < MIN_REPS or time.perf_counter() - start < seconds:
        # the sink times a reference loop after each step, outside the step's time
        step_factors: list[float] = []
        clock = run_stream(src, delta, cfg, 1, lambda _step, _live: step_factors.append(hostspeed.speed_factor()))
        local = hostspeed.local_medians(step_factors)
        step_s.append([s / f for s, f in zip(clock.seconds, local)])
        factors += step_factors
        steps = len(clock.seconds)
        if pinned:
            tally.check(clock.lives[-1] == pinned["count"], "stream final window (pinned)")
        recount_steps = range(steps - 1, -1, -RECOUNT_EVERY)
        # every step is an operation; the recounted ones are checked
        tally.attempted += steps - len(recount_steps)
        row = []
        for step in recount_steps:
            g, priority = priority_graph(window_at(src, step, cfg))
            counts, s, f = timed_scaled(count_extreme, g, priority, delta)
            row.append(s)
            factors.append(f)
            tally.check(counts == clock.lives[step], f"stream step {step} against a recount")
        recount_s.append(row)
    metrics = {
        "setup_s": statistics.median(setups),
        "count_s": sum_of_medians(recount_s),
        "task_s": sum_of_medians(step_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, statistics.median(factors)


def sum_of_medians(rows: list[list[float]]) -> float:
    """Sum over columns of each column's median: one pass, each part at its typical speed."""
    return sum(statistics.median(column) for column in zip(*rows))


# --- traced run ---------------------------------------------------------------


def run_traced(spec: dict, conf: dict, path: str, pinned: dict | None, tally: Tally, tracer: Tracer) -> dict:
    """Per-layer metrics.

    Every workload exercises all four layers.  The static workloads stream
    their first probe_edges edges in chronological order; the stream workload
    counts and enumerates its final window.  On skew-wide, enumeration runs
    on the edge sample that count_sampled counts.  On the static workloads,
    the count and enumeration allocation peaks are taken on that sample.
    """
    delta, cfg = spec["delta"], conf["stream"]
    m: dict[str, float] = {}
    is_stream = spec["task"] == "stream"
    gc.collect()
    if is_stream:
        with tracer.span("graph.iter_edge_stream") as sp:
            src = list(iter_edge_stream(path))
        g = TemporalBipartiteGraph.from_edges(window_at(src, len(src), cfg))
    else:
        with tracer.span("graph.load_edge_list") as sp:
            g = load_edge_list(path)
    m["graph.load_s"] = tracer.seconds(sp)
    with tracer.span("graph.compute_vertex_priority") as sp:
        priority = compute_vertex_priority(g)
    m["graph.priority_s"] = tracer.seconds(sp)
    with tracer.span("graph.sort_adjacency_by_priority") as sp:
        sort_adjacency_by_priority(g, priority)
    m["graph.sort_s"] = tracer.seconds(sp)
    if not is_stream:
        src = chronological_triples(g)[: cfg["probe_edges"]]

    # count
    wedges, live, multi = wedge_stats(g, priority, delta)
    m["count.wedges"] = wedges
    m["count.live_wedge_ratio"] = live / wedges if wedges else 0.0
    m["count.multi_mid_buckets"] = multi
    plain, untraced_s = timed(count_extreme, g, priority, delta)
    gc.collect()
    with tracer.span("count.count_extreme") as sp:
        counts = count_extreme(g, priority, delta)
    m["count.tbcpp_s"] = tracer.seconds(sp)
    gc.collect()
    with tracer.span("count.count_optimized") as sp:
        counts_opt = count_optimized(g, priority, delta)
    m["count.tbcp_s"] = tracer.seconds(sp)
    expect = pinned["count"] if pinned else counts_opt
    for name, got in (("untraced", plain), ("traced", counts), ("optimized", counts_opt)):
        tally.check(got == expect, f"count ({name})")
    m["count.butterflies"] = counts.total()
    sample_p, sample_seed = conf["sample"]["p"], conf["sample"]["seed"]
    kept = sample_triples(g, sample_p, sample_seed)
    m["count.sample_edges"] = len(kept)
    # small: the graph that the allocation peaks are taken on, since
    # tracemalloc slows a call about 7x; the sample, or the stream's window
    small_g, small_p, small_expect = g, priority, expect
    if not is_stream:
        small_g, small_p = priority_graph(kept)
        small_expect = count_optimized(small_g, small_p, delta)
    enum_g, enum_p, enum_expect = g, priority, expect
    if spec["task"] == "sample":
        enum_g, enum_p, enum_expect = small_g, small_p, small_expect
        gc.collect()
        with tracer.span("count.count_sampled"):
            sampled = count_sampled(g, priority, delta, sample_p, sample_seed)
        expect_sample = pinned["sample"] if pinned else small_expect.scaled(sample_p**-4)
        tally.check(sampled == expect_sample, "count_sampled")
    if not is_stream:
        m["trace.overhead_ratio"] = m["count.tbcpp_s"] / untraced_s

    # enumeration
    instances = 0

    def counting_sink(_inst) -> None:
        nonlocal instances
        instances += 1

    gc.collect()
    with tracer.span("enumeration.enumerate_optimized") as sp:
        tallies = enumerate_optimized(enum_g, enum_p, delta, counting_sink)
    tally.check(tallies == enum_expect and instances == tallies.total(), "enumerate_optimized")
    m["enumeration.instances"] = instances
    m["enumeration.instances_per_s"] = instances / tracer.seconds(sp)

    # stream
    if is_stream:
        untraced = run_stream(src, delta, cfg, 1)
        tally.check(untraced.lives[-1] == expect, "stream final window (untraced)")
    recount_ms: list[float] = []

    def recount(step: int, live) -> None:
        with tracer.span("stream.recount", step=step):
            start = time.perf_counter()
            rg, rp = priority_graph(window_at(src, step, cfg))
            counts = count_extreme(rg, rp, delta)
            recount_ms.append((time.perf_counter() - start) * 1000)
        tally.check(live == counts, f"stream step {step}")

    io1 = dict.fromkeys(("edges_in", "edges_out", "added", "removed"), 0)
    io2 = dict(io1)
    with traced_layers(tracer, io1):
        with tracer.span("stream.run_sliding_window", workers=1) as run1:
            w1 = run_stream(src, delta, cfg, 1, recount)
    with traced_layers(tracer, io2):
        with tracer.span("stream.run_sliding_window", workers=2):
            w2 = run_stream(src, delta, cfg, 2)
    tally.check(w2.lives == w1.lives and io2 == io1, "stream with 2 workers")
    steps = tracer.children(run1, "stream.batch_update")
    insert_s = tracer.seconds_by_parent("graph.insert_edge")
    remove_s = tracer.seconds_by_parent("graph.remove_edge")
    inserts = [insert_s.get(i, 0.0) * 1000 for i in steps]
    removes = [remove_s.get(i, 0.0) * 1000 for i in steps]
    step_ms = [s * 1000 for s in w1.seconds]
    count_ms = [s - a - b for s, a, b in zip(step_ms, inserts, removes)]
    m["graph.insert_ms"] = statistics.median(inserts)
    m["graph.remove_ms"] = statistics.median([r for r in removes if r > 0])
    m["stream.step_ms_p50"] = statistics.median(step_ms)
    m["stream.step_ms_p90"] = p90(step_ms)
    m["stream.count_ms_p50"] = statistics.median(count_ms)
    m["stream.count_ms_p90"] = p90(count_ms)
    for key, value in io1.items():
        m[f"stream.{key}"] = value
    m["stream.recount_ms_p50"] = statistics.median(recount_ms)
    m["stream.eps"] = len(src) / sum(w1.seconds)
    m["stream.w2_step_ms_p50"] = statistics.median(s * 1000 for s in w2.seconds)
    m["stream.w2_eps"] = len(src) / sum(w2.seconds)
    if is_stream:
        m["trace.overhead_ratio"] = sum(w1.seconds) / sum(untraced.seconds)

    # allocation peaks, taken last and never timed
    got, m["count.peak_alloc_mb"] = peak_alloc(count_extreme, small_g, small_p, delta)
    tally.check(got == small_expect, "count_extreme (tracemalloc)")
    got, m["enumeration.peak_alloc_mb"] = peak_alloc(enumerate_optimized, small_g, small_p, delta, null_sink)
    tally.check(got == small_expect, "enumerate_optimized (tracemalloc)")
    _, m["stream.peak_alloc_mb"] = peak_alloc(
        run_sliding_window, src[: cfg["probe_edges"]], delta, cfg["window"], cfg["stride"], "stbc+", 1, None
    )
    return m
