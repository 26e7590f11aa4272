"""Host-speed scaling for the end-to-end timings.

On a shared host, other tenants slow this process by up to 50% in spells that
last from a fraction of a second to minutes, and CPU time rises with wall
time, so neither clock alone measures the program.  A fixed pure-Python
reference loop, timed right beside each measured call, slows with the same
spells: a call's seconds divided by the host's speed factor then read as
seconds at the reference speed, which no later change to tempobf can move.
NOTES.md has the figures.
"""

from __future__ import annotations

import random
import statistics
import time

# The reference loop's median time on the development host (2 shared vCPUs,
# Intel Xeon at 2.1 GHz, CPython 3.11).  It only sets the scale of the
# reported seconds.
REFERENCE_S = 0.0035
# Reference loops timed before and again after each scaled call.
SAMPLES_EACH_SIDE = 3

_rng = random.Random(1)
_EDGES = [(_rng.randrange(300), _rng.randrange(300), _rng.randrange(10**6)) for _ in range(6000)]


def _reference_work() -> int:
    """Group, sort and tally 6000 edges: the dict, list and tuple work the engines do."""
    adj: dict[int, list] = {}
    for u, v, t in _EDGES:
        adj.setdefault(u, []).append((v, t))
    total = 0
    for row in adj.values():
        row.sort()
        ends: dict[int, int] = {}
        for v, t in row:
            ends[v] = ends.get(v, 0) + t % 7
        total += sum(ends.values())
    return total


def speed_factor() -> float:
    """One reference loop's time as a share of REFERENCE_S: above 1 on a slow host."""
    start = time.perf_counter()
    _reference_work()
    return (time.perf_counter() - start) / REFERENCE_S


def speed_around(call):
    """(result, seconds, factor) of call(); factor is the median of the loops timed beside it."""
    factors = [speed_factor() for _ in range(SAMPLES_EACH_SIDE)]
    out, seconds = call()
    factors += [speed_factor() for _ in range(SAMPLES_EACH_SIDE)]
    return out, seconds, statistics.median(factors)


def local_medians(factors: list[float], reach: int = 2) -> list[float]:
    """Each factor replaced by the median of itself and up to `reach` neighbours on each side."""
    return [statistics.median(factors[max(0, i - reach) : i + reach + 1]) for i in range(len(factors))]
