"""Temporal butterfly analytics on bipartite graphs.

Exact counting, enumeration, sampling, and sliding-window streaming of the
six temporal butterfly types, with a brute-force reference implementation
for validation and a command-line front end.
"""

from .count import (
    CountVector,
    TimestampIndex,
    TwinOrderedIndex,
    classify_type,
    count_baseline,
    count_extreme,
    count_optimized,
    count_sampled,
)
from .enumeration import ButterflyInstance, enumerate_baseline, enumerate_optimized, null_sink
from .graph import (
    GraphParseError,
    TemporalBipartiteGraph,
    TemporalEdge,
    VertexPriority,
    compute_vertex_priority,
    iter_edge_stream,
    load_edge_list,
    save_edge_list,
    sort_adjacency_by_priority,
)
from .oracle import oracle_contains, oracle_count, oracle_enumerate, oracle_static_pairings
from .stream import SlidingWindow, StreamOrderError, batch_update, run_sliding_window
from .cli import BenchReport, gen_random_graph, main, run_bench

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ButterflyInstance",
    "CountVector",
    "GraphParseError",
    "SlidingWindow",
    "StreamOrderError",
    "TemporalBipartiteGraph",
    "TemporalEdge",
    "TimestampIndex",
    "TwinOrderedIndex",
    "VertexPriority",
    "batch_update",
    "classify_type",
    "compute_vertex_priority",
    "count_baseline",
    "count_extreme",
    "count_optimized",
    "count_sampled",
    "enumerate_baseline",
    "enumerate_optimized",
    "gen_random_graph",
    "iter_edge_stream",
    "load_edge_list",
    "main",
    "null_sink",
    "oracle_contains",
    "oracle_count",
    "oracle_enumerate",
    "oracle_static_pairings",
    "run_bench",
    "run_sliding_window",
    "save_edge_list",
    "sort_adjacency_by_priority",
    "__version__",
]
