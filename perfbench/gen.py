"""The benchmark's own input generator.

It reproduces `tempobf gen` byte for byte as of the commit that added the
benchmark, so the workloads do not move when the library's generator
changes.  workloads.json pins the sha256 of each input at its default seed,
and run.py refuses to run when the generator no longer reproduces them.
"""

from __future__ import annotations

import hashlib
import random
from itertools import accumulate

_SKEW_EXPONENT = 1.1
_BURST_FRACTION = 0.7
_BURST_WIDTH_DIVISOR = 100


def edge_list_text(
    upper: int,
    lower: int,
    edges: int,
    t_max: int,
    skew: bool,
    seed: int,
    chronological: bool,
) -> str:
    """Edge list as `u v t` lines, identical to `tempobf gen` with the same flags.

    Uniform mode draws both endpoints and the timestamp uniformly.  Skew mode
    weights upper endpoint i by (i + 1) ** -1.1 and puts 70% of the
    timestamps in a normal burst around t_max / 2 of width t_max / 100.
    chronological sorts the edges stably by timestamp.
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
    triples = list(zip(uppers, lowers, stamps))
    if chronological:
        triples.sort(key=lambda e: e[2])
    return "".join(f"u{u} v{v} {t}\n" for u, v, t in triples)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
