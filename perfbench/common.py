"""Helpers shared by the workloads: closed-form references, percentiles,
digests, host calibration and the round loop.

The closed forms are written out here from the documented model
(catalog parameters and ``MemParams`` fields as data), not taken from
``nicperf.simulator``, so a check that compares the program against
them compares two separate computations.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Sequence

# --------------------------------------------------------------------------
# Closed-form references
# --------------------------------------------------------------------------


def own_wss(wss_base: float, wss_per_flow: float, wss_cap: float,
            flow_count: int) -> float:
    """Working set of a catalog NF: linear in flows, capped."""
    return min(wss_base + wss_per_flow * flow_count, wss_cap)


def wss_factor(total_wss: float, llc_bytes: float, ramp_bytes: float,
               floor_frac: float) -> float:
    """1 while the combined working set fits the LLC, falling linearly to
    ``floor_frac`` once it exceeds the LLC by ``ramp_bytes``."""
    if total_wss <= llc_bytes:
        return 1.0
    ramp = min(1.0, (total_wss - llc_bytes) / ramp_bytes)
    return 1.0 - (1.0 - floor_frac) * ramp


def car_factor(car: float, knee: float, sat: float, floor_frac: float) -> float:
    """1 up to ``knee`` refs/s, linear down to ``floor_frac`` at ``sat``."""
    if car <= knee:
        return 1.0
    if car >= sat:
        return floor_frac
    return 1.0 - (1.0 - floor_frac) * (car - knee) / (sat - knee)


def memory_rate(unit_time: float, wss_f: float, car_f: float) -> float:
    """Rate of a memory-only NF: ``1 / unit_time * wss_factor * car_factor``."""
    return 1.0 / unit_time * wss_f * car_f


def rr_equilibrium(queues: Sequence[int], times: Sequence[float]) -> list[float]:
    """Saturated round-robin rate of each NF: ``n_i / sum_j n_j^2 t_j``."""
    denom = sum(n * n * t for n, t in zip(queues, times))
    return [n / denom for n in queues]


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th
    percentile, when all samples are distinct."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values: Sequence[float], p: float, min_beyond: int = 10) -> float:
    """``percentile`` that refuses a tail with fewer than ``min_beyond``
    samples beyond it: such a percentile is no tail."""
    beyond = samples_beyond(len(values), p)
    if beyond < min_beyond:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {min_beyond}")
    return percentile(values, p)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def strata(rng, n: int, lo: float, hi: float, order_rng=None):
    """One uniform draw from each of ``n`` equal strata of ``[lo, hi)``,
    shuffled by ``order_rng`` (default ``rng``): every seed spans the
    range alike."""
    import numpy as np

    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * (order_rng or rng).permutation(u)


# --------------------------------------------------------------------------
# Host
# --------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed numpy kernel.

    Runs no nicperf code; its drift between runs is machine drift.
    """
    import numpy as np

    a = np.arange(256 * 256, dtype=float).reshape(256, 256) / 65536.0
    np.tanh(a @ a.T)  # first-call set-up of BLAS is not drift
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    for _ in range(40):
        a = np.tanh(a @ a.T / 256.0)
    return time.perf_counter() - start


def run_rounds(seconds: float, round_fn: Callable[[int], None],
               min_rounds: int = 1) -> int:
    """Runs rounds until ``seconds`` would be exceeded by one more.

    The next round starts only if the time used plus the longest round
    so far fits in ``seconds``; at least ``min_rounds`` rounds run.
    Returns the number of rounds.
    """
    start = time.perf_counter()
    longest = 0.0
    n = 0
    while n < min_rounds or time.perf_counter() - start + longest <= seconds:
        t = time.perf_counter()
        round_fn(n)
        longest = max(longest, time.perf_counter() - t)
        n += 1
    return n
