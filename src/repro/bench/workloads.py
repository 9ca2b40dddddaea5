"""Workload builders shared by the figure benchmarks.

Scaling
-------
The paper evaluates C/C++ code with ``N = 10^6`` windows on a 2.8 GHz
Pentium 4.  A pure-Python reproduction shrinks the default sizes so
the whole suite runs in minutes; every size below is multiplied by the
``REPRO_BENCH_SCALE`` environment variable (float, default ``1.0``), so

``REPRO_BENCH_SCALE=10 pytest benchmarks/ --benchmark-only``

runs a 10x larger study.  Shapes (who wins, growth trends, ordering of
the distributions) are scale-invariant; EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.core.n1n2 import N1N2Skyline
from repro.core.nofn import NofNSkyline
from repro.streams.generators import materialize

Point = Tuple[float, ...]

#: The distribution families, in the paper's reporting order.
DISTRIBUTIONS = ("correlated", "independent", "anticorrelated")

#: Abbreviations used in the paper's tables.
DIST_LABELS = {
    "correlated": "corr",
    "independent": "indep",
    "anticorrelated": "anti",
}


def bench_scale() -> float:
    """The global size multiplier from ``REPRO_BENCH_SCALE``."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be a float, got {raw!r}"
        ) from exc
    if scale <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {scale}")
    return scale


def scaled(base: int, minimum: int = 1) -> int:
    """``base * REPRO_BENCH_SCALE`` rounded, at least ``minimum``."""
    return max(minimum, round(base * bench_scale()))


def expected_maxima(n: int, dim: int) -> float:
    """``A(n, dim)``: the expected number of maxima among ``n`` i.i.d.
    points with continuous coordinates in ``dim`` dimensions (Bentley
    et al.): ``A(n, 1) = 1`` and ``A(n, d) = sum_{i <= n} A(i, d-1) / i``.

    On an independent stream, Theorem 2's mapping makes ``R_N`` a
    skyline in ``d + 1`` dimensions, so ``E|R_N| = A(N, d + 1)`` once
    the window is full, and the answer to ``query(n)`` has expected
    size ``A(n, d)``.
    """
    row: List[float] = [1.0] * (n + 1)  # A(i, 1) for i = 0..n
    for _ in range(dim - 1):
        total = 0.0
        nxt = [0.0] * (n + 1)
        for i in range(1, n + 1):
            total += row[i] / i
            nxt[i] = total
        row = nxt
    return row[n]


def stream_points(
    distribution: str, dim: int, count: int, seed: int = 0
) -> List[Point]:
    """Materialised benchmark stream (generation excluded from timing)."""
    return materialize(distribution, dim, count, seed)


def build_nofn(
    distribution: str,
    dim: int,
    capacity: int,
    prefill: Optional[int] = None,
    seed: int = 0,
) -> Tuple[NofNSkyline, List[Point]]:
    """An :class:`NofNSkyline` pre-filled with ``prefill`` elements
    (default: a full window), plus the fed points."""
    if prefill is None:
        prefill = capacity
    points = stream_points(distribution, dim, prefill, seed)
    engine = NofNSkyline(dim, capacity)
    for point in points:
        engine.append(point)
    return engine, points


def build_n1n2(
    distribution: str,
    dim: int,
    capacity: int,
    prefill: Optional[int] = None,
    seed: int = 0,
) -> Tuple[N1N2Skyline, List[Point]]:
    """An :class:`N1N2Skyline` pre-filled with ``prefill`` elements."""
    if prefill is None:
        prefill = capacity
    points = stream_points(distribution, dim, prefill, seed)
    engine = N1N2Skyline(dim, capacity)
    for point in points:
        engine.append(point)
    return engine, points
