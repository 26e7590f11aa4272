"""Command-line front end: counting, enumeration, streaming, benchmarks, fixtures.

Subcommands map onto the library engines one-to-one.  Counting and
enumeration read an edge list, sort it once, and run the selected engine;
streaming replays the file as a chronological stream through a sliding
window; bench times several engines on one loaded graph under an optional
per-engine wall-clock cap; gen writes seed-deterministic random edge lists
for experiments.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import IO, Callable, Iterator, Sequence

from .count import (
    CountVector,
    count_baseline,
    count_extreme,
    count_optimized,
    count_sampled,
)
from .enumeration import ButterflyInstance, enumerate_baseline, enumerate_optimized, null_sink
from .graph import (
    GraphParseError,
    TemporalBipartiteGraph,
    compute_vertex_priority,
    iter_edge_stream,
    load_edge_list,
    sort_adjacency_by_priority,
)
from .oracle import oracle_count, oracle_enumerate
from .stream import StreamOrderError, run_sliding_window

__all__ = [
    "RunConfig",
    "BenchReport",
    "gen_random_graph",
    "run_bench",
    "cmd_count",
    "cmd_enumerate",
    "cmd_stream",
    "cmd_bench",
    "cmd_gen",
    "main",
]

TIMEOUT_ENV_VAR = "TEMPO_BF_TIMEOUT_SECS"

COUNT_ALGOS = ("tbc", "tbc+", "tbc++", "oracle")
ENUM_ALGOS = ("tbe", "tbe+", "oracle")
STREAM_ENGINES = ("stbc", "stbc+")
BENCH_ALGOS = ("tbc", "tbc+", "tbc++", "tbe", "tbe+", "oracle")
DEFAULT_STRIDE_RATIO = 0.05

_SKEW_EXPONENT = 1.1
_BURST_FRACTION = 0.7
_BURST_WIDTH_DIVISOR = 100


@dataclass
class RunConfig:
    """One resolved invocation: input, engine selection, and output shape."""

    input: str = "-"
    delta: int = 0
    algo: str = "tbc++"
    window: int = 0
    stride: int = 0
    workers: int = 1
    sample_p: float | None = None
    seed: int = 0
    limit: int | None = None
    output: str = "-"
    fmt: str = "tsv"
    timeout_secs: float = 0.0
    algos: tuple[str, ...] = field(default_factory=tuple)


@dataclass
class BenchReport:
    """One engine's timing on a shared graph; counts are None on timeout."""

    algorithm: str
    seconds: float
    peak_bytes: int
    counts: CountVector | None
    timed_out: bool = False


# --- output helpers ---------------------------------------------------------


def _plain(c: int | float) -> int | float:
    """Collapse integral floats so sampled p=1 output matches exact output."""
    if isinstance(c, float) and c.is_integer():
        return int(c)
    return c


def write_counts(out: IO[str], counts: CountVector, fmt: str) -> None:
    if fmt == "json":
        out.write(json.dumps({f"T{i}": _plain(c) for i, c in enumerate(counts)}))
        out.write("\n")
    else:
        for i, c in enumerate(counts):
            out.write(f"T{i}\t{_plain(c)}\n")


@contextmanager
def _open_out(path: str) -> Iterator[IO[str]]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


# --- subcommands ------------------------------------------------------------


def _load_sorted(cfg: RunConfig):
    g = load_edge_list(cfg.input if cfg.input != "-" else sys.stdin)
    priority = compute_vertex_priority(g)
    sort_adjacency_by_priority(g, priority)
    return g, priority


def cmd_count(cfg: RunConfig) -> int:
    if cfg.algo == "oracle":
        g = load_edge_list(cfg.input if cfg.input != "-" else sys.stdin)
        counts = oracle_count(g, cfg.delta)
    else:
        g, priority = _load_sorted(cfg)
        if cfg.sample_p is not None:
            counts = count_sampled(g, priority, cfg.delta, cfg.sample_p, cfg.seed)
        else:
            engine = {"tbc": count_baseline, "tbc+": count_optimized, "tbc++": count_extreme}[cfg.algo]
            counts = engine(g, priority, cfg.delta)
    with _open_out(cfg.output) as out:
        write_counts(out, counts, cfg.fmt)
    return 0


class _LimitReached(Exception):
    """Raised by the enumerate sink once --limit instance lines are written."""


def cmd_enumerate(cfg: RunConfig) -> int:
    with _open_out(cfg.output) as out:
        emitted = 0

        def sink(inst: ButterflyInstance) -> None:
            nonlocal emitted
            out.write(inst.format_line(g) + "\n")
            emitted += 1
            if emitted == cfg.limit:
                raise _LimitReached

        if cfg.algo == "oracle":
            g = load_edge_list(cfg.input if cfg.input != "-" else sys.stdin)
            run = lambda: oracle_enumerate(g, cfg.delta, sink)
            tally = lambda: oracle_count(g, cfg.delta)
        else:
            g, priority = _load_sorted(cfg)
            engine = {"tbe": enumerate_baseline, "tbe+": enumerate_optimized}[cfg.algo]
            run = lambda: engine(g, priority, cfg.delta, sink)
            tally = lambda: count_extreme(g, priority, cfg.delta)
        # an engine stopped at --limit has partial tallies; count them instead
        try:
            tallies = tally() if cfg.limit == 0 else run()
        except _LimitReached:
            tallies = tally()
        write_counts(out, tallies, cfg.fmt)
    return 0


def cmd_stream(cfg: RunConfig) -> int:
    source = iter_edge_stream(cfg.input if cfg.input != "-" else sys.stdin)
    with _open_out(cfg.output) as out:

        def sink(step: int, start_t: int, end_t: int, live: CountVector) -> None:
            cells = [str(step), str(start_t), str(end_t)] + [str(c) for c in live]
            out.write("\t".join(cells))
            out.write("\n")

        run_sliding_window(
            source, cfg.delta, cfg.window, cfg.stride, cfg.algo, cfg.workers, sink
        )
    return 0


class _BenchTimeout(Exception):
    pass


def _env_timeout() -> float:
    """The cap in TEMPO_BF_TIMEOUT_SECS, 0 when unset or empty.

    Raises ValueError unless the value is a finite, non-negative number of
    seconds, the rule --timeout-secs follows.
    """
    raw = os.environ.get(TIMEOUT_ENV_VAR, "")
    if not raw:
        return 0.0
    try:
        secs = float(raw)
    except ValueError:
        secs = float("nan")
    if not 0 <= secs < float("inf"):
        raise ValueError(f"{TIMEOUT_ENV_VAR} must be non-negative and finite, got {raw!r}")
    return secs


@contextmanager
def _alarm(seconds: float) -> Iterator[None]:
    """Raise _BenchTimeout in the protected block after the given wall time.

    Alarm signals only reach the main thread; elsewhere the cap is a no-op.
    """
    if seconds <= 0 or threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_alarm(_signum, _frame):
        raise _BenchTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _traced_peak(run: Callable[[], CountVector], limit: float) -> int:
    """Peak bytes traced by tracemalloc over one more run under the same cap."""
    tracemalloc.start()
    try:
        with _alarm(limit):
            run()
    except _BenchTimeout:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak


def run_bench(cfg: RunConfig) -> list[BenchReport]:
    """Load and sort once, then time each requested engine on the same graph.

    Preprocessing (parse, priority, adjacency sort) happens before any clock
    starts.  Each engine runs twice: once untraced for its wall time and
    counts, then once under tracemalloc for its peak bytes, since tracing
    slows pure-Python code several times over.  The cap from
    cfg.timeout_secs (or the TEMPO_BF_TIMEOUT_SECS variable) applies to each
    run; a capped engine reports timed_out with no counts, and the peak its
    traced run reached by the cap.
    """
    g, priority = _load_sorted(cfg)
    runners: dict[str, Callable[[], CountVector]] = {
        "tbc": lambda: count_baseline(g, priority, cfg.delta),
        "tbc+": lambda: count_optimized(g, priority, cfg.delta),
        "tbc++": lambda: count_extreme(g, priority, cfg.delta),
        "tbe": lambda: enumerate_baseline(g, priority, cfg.delta, null_sink),
        "tbe+": lambda: enumerate_optimized(g, priority, cfg.delta, null_sink),
        "oracle": lambda: oracle_count(g, cfg.delta),
    }
    limit = cfg.timeout_secs
    if limit <= 0:
        limit = _env_timeout()
    reports = []
    for algo in cfg.algos or ("tbc", "tbc+", "tbc++"):
        counts: CountVector | None = None
        timed_out = False
        start = time.perf_counter()
        try:
            with _alarm(limit):
                counts = runners[algo]()
        except _BenchTimeout:
            timed_out = True
        seconds = time.perf_counter() - start
        peak = _traced_peak(runners[algo], limit)
        reports.append(BenchReport(algo, seconds, peak, counts, timed_out))
    return reports


def cmd_bench(cfg: RunConfig) -> int:
    reports = run_bench(cfg)
    with _open_out(cfg.output) as out:
        header = ["algorithm", "seconds", "peak_bytes"] + [f"T{i}" for i in range(6)]
        out.write("\t".join(header))
        out.write("\n")
        for r in reports:
            cells = [r.algorithm, f"{r.seconds:.3f}", str(r.peak_bytes)]
            if r.timed_out:
                cells += ["timeout"] * 6
            else:
                cells += [str(_plain(c)) for c in r.counts]
            out.write("\t".join(cells))
            out.write("\n")
    return 0


def gen_random_graph(
    upper: int,
    lower: int,
    edges: int,
    t_max: int,
    skew: bool = False,
    seed: int = 0,
    chronological: bool = False,
) -> list[tuple[str, str, int]]:
    """Seed-deterministic random edge triples over u0..u{upper-1} x v0..v{lower-1}.

    The plain mode draws everything uniformly: endpoints per layer, integer
    timestamps on [0, t_max].  skew makes the graph look like a real activity
    log instead: upper endpoints get weight (rank+1)**-1.1, a heavy tail that
    concentrates a large share of the edges on the first few upper vertices,
    and most timestamps fall in a narrow mid-range activity burst (normal
    around t_max/2, width t_max/100) while the rest stay uniform; lower
    endpoints stay uniform.  chronological sorts the result by timestamp,
    matching the stream subcommand's input assumption.
    """
    rng = random.Random(seed)
    if skew:
        cum = list(accumulate((i + 1) ** -_SKEW_EXPONENT for i in range(upper)))
        uppers = rng.choices(range(upper), cum_weights=cum, k=edges)
    else:
        uppers = rng.choices(range(upper), k=edges)
    lowers = rng.choices(range(lower), k=edges)
    if skew:
        center, width = t_max / 2, t_max / _BURST_WIDTH_DIVISOR
        stamps = [
            min(t_max, max(0, round(rng.gauss(center, width))))
            if rng.random() < _BURST_FRACTION
            else rng.randint(0, t_max)
            for _ in range(edges)
        ]
    else:
        stamps = [rng.randint(0, t_max) for _ in range(edges)]
    triples = [(f"u{u}", f"v{v}", t) for u, v, t in zip(uppers, lowers, stamps)]
    if chronological:
        triples.sort(key=lambda e: e[2])
    return triples


def cmd_gen(cfg: RunConfig, upper: int, lower: int, edges: int, t_max: int, skew: bool, chronological: bool) -> int:
    triples = gen_random_graph(upper, lower, edges, t_max, skew, cfg.seed, chronological)
    with _open_out(cfg.output) as out:
        for u, v, t in triples:
            out.write(f"{u} {v} {t}\n")
    return 0


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempobf",
        description="Count, enumerate, and stream temporal butterflies on bipartite edge lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_delta: bool = True) -> None:
        p.add_argument("--input", default="-", help="edge-list file, or - for stdin")
        p.add_argument("--output", default="-", help="output file, or - for stdout")
        if with_delta:
            p.add_argument("--delta", type=int, required=True, help="maximum timestamp span")

    p_count = sub.add_parser("count", help="six per-type butterfly counts")
    add_io(p_count)
    p_count.add_argument("--algo", choices=COUNT_ALGOS, default="tbc++")
    p_count.add_argument("--sample-p", type=float, default=None, help="edge sampling probability in (0, 1]")
    p_count.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_count.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")

    p_enum = sub.add_parser("enumerate", help="instance lines plus per-type tallies")
    add_io(p_enum)
    p_enum.add_argument("--algo", choices=ENUM_ALGOS, default="tbe+")
    p_enum.add_argument("--limit", type=int, default=None, help="instance lines to write (0 = tallies only)")
    p_enum.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")

    p_stream = sub.add_parser("stream", help="sliding-window per-step counts")
    add_io(p_stream)
    p_stream.add_argument("--window", type=int, required=True, help="window capacity in edges")
    p_stream.add_argument("--stride", type=int, default=None, help="edges per step (default 5%% of window)")
    p_stream.add_argument("--engine", choices=STREAM_ENGINES, default="stbc+")
    p_stream.add_argument("--workers", type=int, default=1, help="slices of each batch update, run in turn on one thread")

    p_bench = sub.add_parser("bench", help="time engines on one graph")
    add_io(p_bench)
    p_bench.add_argument("--algos", default="tbc,tbc+,tbc++", help="comma-separated engine list")
    p_bench.add_argument("--timeout-secs", type=float, default=0.0, help=f"per-engine cap (0 = {TIMEOUT_ENV_VAR} or none)")

    p_gen = sub.add_parser("gen", help="write a seed-deterministic random edge list")
    add_io(p_gen, with_delta=False)
    p_gen.add_argument("--upper", type=int, required=True, help="upper-layer vertex count")
    p_gen.add_argument("--lower", type=int, required=True, help="lower-layer vertex count")
    p_gen.add_argument("--edges", type=int, required=True, help="edge count")
    p_gen.add_argument("--t-max", type=int, required=True, help="inclusive timestamp upper bound")
    p_gen.add_argument("--skew", action="store_true", help="heavy-tailed upper endpoints")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--chronological", action="store_true", help="sort output by timestamp")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "delta", 0) < 0:
        parser.error(f"--delta must be non-negative, got {args.delta}")

    cfg = RunConfig(input=getattr(args, "input", "-"), output=getattr(args, "output", "-"))
    cfg.delta = getattr(args, "delta", 0)
    cfg.fmt = getattr(args, "fmt", "tsv")
    cfg.seed = getattr(args, "seed", 0)

    if args.command == "count":
        cfg.algo = args.algo
        if args.sample_p is not None:
            if not 0 < args.sample_p <= 1:
                parser.error(f"--sample-p must be in (0, 1], got {args.sample_p}")
            if cfg.algo != "tbc++":
                parser.error("--sample-p applies to the tbc++ engine only")
            cfg.sample_p = args.sample_p
    elif args.command == "enumerate":
        cfg.algo = args.algo
        if args.limit is not None and args.limit < 0:
            parser.error(f"--limit must be non-negative, got {args.limit}")
        cfg.limit = args.limit
    elif args.command == "stream":
        if args.window < 1:
            parser.error(f"--window must be positive, got {args.window}")
        stride = args.stride
        if stride is None:
            stride = max(1, round(DEFAULT_STRIDE_RATIO * args.window))
        if stride < 1:
            parser.error(f"--stride must be positive, got {stride}")
        if stride > args.window:
            parser.error(f"--stride ({stride}) must not exceed --window ({args.window})")
        if args.workers < 1:
            parser.error(f"--workers must be positive, got {args.workers}")
        cfg.algo = args.engine
        cfg.window = args.window
        cfg.stride = stride
        cfg.workers = args.workers
    elif args.command == "bench":
        algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())
        if not algos:
            parser.error("--algos must name at least one engine")
        for a in algos:
            if a not in BENCH_ALGOS:
                parser.error(f"unknown engine {a!r}; choose from {', '.join(BENCH_ALGOS)}")
        cfg.algos = algos
        if not 0 <= args.timeout_secs < float("inf"):
            parser.error(f"--timeout-secs must be non-negative and finite, got {args.timeout_secs}")
        if args.timeout_secs == 0:
            try:
                _env_timeout()
            except ValueError as exc:
                parser.error(str(exc))
        cfg.timeout_secs = args.timeout_secs
    elif args.command == "gen":
        if args.upper < 1 or args.lower < 1:
            parser.error("--upper and --lower must be positive")
        if args.edges < 0:
            parser.error(f"--edges must be non-negative, got {args.edges}")
        if args.t_max < 0:
            parser.error(f"--t-max must be non-negative, got {args.t_max}")

    try:
        if args.command == "count":
            return cmd_count(cfg)
        if args.command == "enumerate":
            return cmd_enumerate(cfg)
        if args.command == "stream":
            return cmd_stream(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
        return cmd_gen(cfg, args.upper, args.lower, args.edges, args.t_max, args.skew, args.chronological)
    except BrokenPipeError:  # the reader left early, as `| head` does; keep the flush at exit quiet
        sys.stdout = open(os.devnull, "w")
        return 0
    except (OSError, GraphParseError, StreamOrderError, ValueError) as exc:
        print(f"tempobf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
