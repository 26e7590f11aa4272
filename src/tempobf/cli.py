"""Command-line front end: counting, enumeration, streaming, benchmarks, fixtures.

Subcommands map onto the library engines one-to-one.  Counting and
enumeration read an edge list, rank its vertices once, and run the selected
engine; streaming replays the file as a chronological stream through a
sliding window; bench times several engines on one loaded graph under an
optional per-engine wall-clock cap; gen writes seed-deterministic random
edge lists for experiments.

Each flag's own rule is its argparse type, and each subcommand's function
reads the parsed namespace; main checks only the rules that span flags or
the environment, and refuses an --output that names the --input file,
reporting each through the chosen subcommand's parser, as it does an
unrecognized argument.  The exit status is 0 on success, 2 on a usage
error, and 1 on a runtime error, reported on stderr after `tempobf: `.
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
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import accumulate
from typing import IO, Any, Callable, Iterator, Sequence

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
    compute_vertex_priority,
    iter_edge_stream,
    load_edge_list,
)
from .oracle import oracle_count, oracle_enumerate
from .stream import StreamOrderError, run_sliding_window

__all__ = [
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
        print(json.dumps({f"T{i}": _plain(c) for i, c in enumerate(counts)}), file=out)
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


def _source(path: str) -> str | IO[str]:
    """An --input value as the parsers take it: stdin for -, else the path."""
    return sys.stdin if path == "-" else path


def _load_ranked(path: str):
    g = load_edge_list(_source(path))
    return g, compute_vertex_priority(g)


def cmd_count(args: argparse.Namespace) -> int:
    if args.algo == "oracle":
        counts = oracle_count(load_edge_list(_source(args.input)), args.delta)
    else:
        g, priority = _load_ranked(args.input)
        if args.sample_p is not None:
            counts = count_sampled(g, priority, args.delta, args.sample_p, args.seed, args.workers)
        elif args.algo == "tbc":
            counts = count_baseline(g, priority, args.delta)
        else:
            engine = {"tbc+": count_optimized, "tbc++": count_extreme}[args.algo]
            counts = engine(g, priority, args.delta, args.workers)
    with _open_out(args.output) as out:
        write_counts(out, counts, args.fmt)
    return 0


class _LimitReached(Exception):
    """Raised by the enumerate sink once --limit instance lines are written."""


def cmd_enumerate(args: argparse.Namespace) -> int:
    with _open_out(args.output) as out:
        emitted = 0

        def sink(inst: ButterflyInstance) -> None:
            nonlocal emitted
            out.write(inst.format_line(g) + "\n")
            emitted += 1
            if emitted == args.limit:
                raise _LimitReached

        if args.algo == "oracle":
            g = load_edge_list(_source(args.input))
            run = lambda: oracle_enumerate(g, args.delta, sink)
            tally = lambda: oracle_count(g, args.delta)
        else:
            g, priority = _load_ranked(args.input)
            engine = {"tbe": enumerate_baseline, "tbe+": enumerate_optimized}[args.algo]
            run = lambda: engine(g, priority, args.delta, sink, args.workers)
            tally = lambda: count_extreme(g, priority, args.delta, args.workers)
        # an engine stopped at --limit has partial tallies; count them instead
        try:
            tallies = tally() if args.limit == 0 else run()
        except _LimitReached:
            tallies = tally()
        write_counts(out, tallies, args.fmt)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    source = iter_edge_stream(_source(args.input))
    with _open_out(args.output) as out:

        def sink(step: int, start_t: int, end_t: int, live: CountVector) -> None:
            print(step, start_t, end_t, *live, sep="\t", file=out)

        run_sliding_window(
            source, args.delta, args.window, args.stride, args.engine, args.workers, sink
        )
    return 0


class _BenchTimeout(Exception):
    pass


def _env_timeout() -> float:
    """The cap in TEMPO_BF_TIMEOUT_SECS, 0 when unset or empty; ValueError unless it keeps --timeout-secs's rule."""
    raw = os.environ.get(TIMEOUT_ENV_VAR, "")
    return _cap(raw, TIMEOUT_ENV_VAR) if raw else 0.0


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


def _capped_run(run: Callable[[], CountVector], limit: float, traced: bool = False) -> tuple[CountVector | None, float, int]:
    """One run under the cap: its counts (None when capped), wall seconds, and tracemalloc's peak bytes when traced, else 0."""
    counts = None
    if traced:
        tracemalloc.start()
    try:
        start = time.perf_counter()
        with suppress(_BenchTimeout), _alarm(limit):
            counts = run()
        return counts, time.perf_counter() - start, tracemalloc.get_traced_memory()[1] if traced else 0
    finally:
        if traced:
            tracemalloc.stop()


def run_bench(path: str, delta: int, algos: Sequence[str], timeout_secs: float = 0.0) -> list[BenchReport]:
    """Load and rank the edge list at path (- for stdin) once, then time each engine in algos on the same graph.

    Preprocessing (parse, priority) happens before any clock starts.  Each
    engine runs twice: once untraced for its wall time and counts, then once
    under tracemalloc for its peak bytes, since tracing slows pure-Python
    code several times over.  The cap from timeout_secs or, when that is 0,
    the TEMPO_BF_TIMEOUT_SECS variable applies to each run; a capped engine
    reports timed_out with no counts, and the peak its traced run reached by
    the cap.
    """
    g, priority = _load_ranked(path)
    runners: dict[str, Callable[[], CountVector]] = {
        "tbc": lambda: count_baseline(g, priority, delta),
        "tbc+": lambda: count_optimized(g, priority, delta),
        "tbc++": lambda: count_extreme(g, priority, delta),
        "tbe": lambda: enumerate_baseline(g, priority, delta, null_sink),
        "tbe+": lambda: enumerate_optimized(g, priority, delta, null_sink),
        "oracle": lambda: oracle_count(g, delta),
    }
    limit = timeout_secs if timeout_secs > 0 else _env_timeout()
    reports = []
    for algo in algos:
        counts, seconds, _ = _capped_run(runners[algo], limit)
        _, _, peak = _capped_run(runners[algo], limit, traced=True)
        reports.append(BenchReport(algo, seconds, peak, counts, counts is None))
    return reports


def cmd_bench(args: argparse.Namespace) -> int:
    reports = run_bench(args.input, args.delta, args.algos, args.timeout_secs)
    with _open_out(args.output) as out:
        print("algorithm", "seconds", "peak_bytes", *(f"T{i}" for i in range(6)), sep="\t", file=out)
        for r in reports:
            counts = ["timeout"] * 6 if r.timed_out else map(_plain, r.counts)
            print(r.algorithm, f"{r.seconds:.3f}", r.peak_bytes, *counts, sep="\t", file=out)
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


def cmd_gen(args: argparse.Namespace) -> int:
    triples = gen_random_graph(args.upper, args.lower, args.edges, args.t_max, args.skew, args.seed, args.chronological)
    with _open_out(args.output) as out:
        for u, v, t in triples:
            out.write(f"{u} {v} {t}\n")
    return 0


# --- argument parsing -------------------------------------------------------


def _rule(convert: Callable[[str], Any], ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """An argparse type: the text read by convert, or a usage error saying the value must be rule."""

    def parse(text: str) -> Any:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


_non_negative = _rule(int, lambda n: n >= 0, "non-negative")
_positive = _rule(int, lambda n: n >= 1, "positive")
_probability = _rule(float, lambda p: 0 < p <= 1, "in (0, 1]")


class _RuleError(argparse.ArgumentTypeError, ValueError):
    """A value breaking a flag's rule: argparse reports it as a usage error, library callers see a ValueError."""


def _cap(text: str, name: str = "--timeout-secs") -> float:
    """A per-engine cap in seconds, finite and non-negative; name is the flag or variable it came from."""
    try:
        secs = float(text)
    except ValueError:
        secs = float("nan")
    if not 0 <= secs < float("inf"):
        raise _RuleError(f"{name} must be non-negative and finite, got {text!r}")
    return secs


def _engines(text: str) -> tuple[str, ...]:
    """A comma-separated list naming at least one engine, each in BENCH_ALGOS."""
    algos = tuple(a.strip() for a in text.split(",") if a.strip())
    if not algos:
        raise argparse.ArgumentTypeError("must name at least one engine")
    for a in algos:
        if a not in BENCH_ALGOS:
            raise argparse.ArgumentTypeError(f"unknown engine {a!r}; choose from {', '.join(BENCH_ALGOS)}")
    return algos


def _same_file(a: str, b: str) -> bool:
    """Whether two path flags name one existing file; - (stdin or stdout) names none."""
    try:
        return a != "-" and b != "-" and os.path.samefile(a, b)
    except OSError:
        return False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempobf",
        description="Count, enumerate, and stream temporal butterflies on bipartite edge lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run: Callable, help: str, reads_edges: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p)
        if reads_edges:
            p.add_argument("--input", default="-", help="edge-list file, or - for stdin")
        p.add_argument("--output", default="-", help="output file, or - for stdout")
        if reads_edges:
            p.add_argument("--delta", type=_non_negative, required=True, help="maximum timestamp span")
        return p

    p_count = add_command("count", cmd_count, "six per-type butterfly counts")
    p_count.add_argument("--algo", choices=COUNT_ALGOS, default="tbc++")
    p_count.add_argument("--sample-p", type=_probability, default=None, help="edge sampling probability in (0, 1]")
    p_count.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_count.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")
    p_count.add_argument(
        "--workers",
        type=_positive,
        default=None,
        help="processes counting tbc+ and tbc++ (default: the usable CPUs; 1 counts in this process); tbc and oracle run serially",
    )

    p_enum = add_command("enumerate", cmd_enumerate, "instance lines plus per-type tallies")
    p_enum.add_argument("--algo", choices=ENUM_ALGOS, default="tbe+")
    p_enum.add_argument("--limit", type=_non_negative, default=None, help="instance lines to write (0 = tallies only)")
    p_enum.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")
    p_enum.add_argument(
        "--workers",
        type=_positive,
        default=None,
        help="processes walking tbe and tbe+ (default: the usable CPUs; 1 walks in this process); oracle runs serially",
    )

    p_stream = add_command("stream", cmd_stream, "sliding-window per-step counts")
    p_stream.add_argument("--window", type=_positive, required=True, help="window capacity in edges")
    p_stream.add_argument("--stride", type=_positive, default=None, help="edges per step (default 5%% of window)")
    p_stream.add_argument("--engine", choices=STREAM_ENGINES, default="stbc+")
    p_stream.add_argument("--workers", type=_positive, default=1, help="accepted for compatibility; stream steps run serially")

    p_bench = add_command("bench", cmd_bench, "time engines on one graph")
    p_bench.add_argument("--algos", type=_engines, default="tbc,tbc+,tbc++", help="comma-separated engine list")
    p_bench.add_argument("--timeout-secs", type=_cap, default=0.0, help=f"per-engine cap (0 = {TIMEOUT_ENV_VAR} or none)")

    p_gen = add_command("gen", cmd_gen, "write a seed-deterministic random edge list", reads_edges=False)
    p_gen.add_argument("--upper", type=_positive, required=True, help="upper-layer vertex count")
    p_gen.add_argument("--lower", type=_positive, required=True, help="lower-layer vertex count")
    p_gen.add_argument("--edges", type=_non_negative, required=True, help="edge count")
    p_gen.add_argument("--t-max", type=_non_negative, required=True, help="inclusive timestamp upper bound")
    p_gen.add_argument("--skew", action="store_true", help="heavy-tailed upper endpoints")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--chronological", action="store_true", help="sort output by timestamp")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    error = args.parser.error
    if extra:
        error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "count" and args.sample_p is not None and args.algo != "tbc++":
        error("--sample-p applies to the tbc++ engine only")
    if args.command == "stream":
        if args.stride is None:
            args.stride = max(1, round(DEFAULT_STRIDE_RATIO * args.window))
        if args.stride > args.window:
            error(f"--stride ({args.stride}) must not exceed --window ({args.window})")
    if args.command == "bench" and args.timeout_secs == 0:
        try:
            _env_timeout()
        except ValueError as exc:
            error(str(exc))
    if "input" in args and _same_file(args.input, args.output):
        error(f"--output names the --input file {args.input!r}; refusing to overwrite it")

    try:
        return args.run(args)
    except BrokenPipeError:  # the reader left early, as `| head` does; keep the flush at exit quiet
        sys.stdout = open(os.devnull, "w")
        return 0
    except (OSError, GraphParseError, StreamOrderError, ValueError) as exc:
        print(f"tempobf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
