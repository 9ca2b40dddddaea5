"""Ablation A1 — is the R-tree worth it?

Section 3.3 builds the maintenance path on an in-memory R-tree because
"most in-memory data structures for points are difficult to balance
when data are updated".  But Theorem 2 bounds ``|R_N|`` by
``O(log^d N)`` on independent data, so a plain scan over ``R_N`` is a
legitimate contender.  This bench feeds identical streams through the
same n-of-N engine over two dominance indexes and reports per-element
maintenance cost:

* ``dense`` — the engines' default, one NumPy scan over a dense
  kappa-ordered matrix (:mod:`repro.structures.dense_index`);
* ``scan`` — :class:`repro.core.nofn_linear.LinearScanNofNSkyline`,
  the same scans in pure Python.

The paper's pointer R-tree (:class:`repro.structures.rtree.RTree`) has
no column any more: the engines' one ingest path runs chunk-wide
searches (``report_dominated_batch`` and the rest) that it does not
offer, so no engine can host it.  Its last measurements, where it lost
to both scans everywhere, are kept in EXPERIMENTS.md with the commit
that produced them.

Expected shape: the NumPy scan beats the pure-Python one once
``|R_N|`` reaches the low hundreds.  EXPERIMENTS.md discusses this
candidly.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DISTRIBUTIONS,
    DIST_LABELS,
    feed_timed,
    format_seconds,
    render_table,
    scaled,
    stream_points,
)
from repro.core.nofn import NofNSkyline
from repro.core.nofn_linear import LinearScanNofNSkyline

DIMS = (2, 3, 5)
VARIANTS = ("dense", "scan")


def _engine(variant: str, dim: int, capacity: int) -> NofNSkyline:
    if variant == "scan":
        return LinearScanNofNSkyline(dim, capacity)
    return NofNSkyline(dim, capacity)


def _run(variant: str, dist: str, dim: int, capacity: int):
    points = stream_points(dist, dim, 2 * capacity, seed=71)
    engine = _engine(variant, dim, capacity)
    cost = feed_timed(engine, points, warmup=capacity)
    return cost, engine.rn_size


def test_ablation_rtree_vs_linear_scan(report, benchmark):
    """Per-element maintenance: dense NumPy scans vs flat Python scans."""
    capacity = scaled(1500)
    results = {}

    def run_figure():
        for dim in DIMS:
            for dist in DISTRIBUTIONS:
                for variant in VARIANTS:
                    results[(dim, dist, variant)] = _run(
                        variant, dist, dim, capacity
                    )

    benchmark.pedantic(run_figure, rounds=1, iterations=1)

    headers = ["config", "|R_N|"]
    headers += [f"{variant} avg" for variant in VARIANTS]
    headers += [f"{variant} max" for variant in VARIANTS]
    rows = []
    for dim in DIMS:
        for dist in DISTRIBUTIONS:
            costs = [results[(dim, dist, v)][0] for v in VARIANTS]
            rows.append(
                [f"d{dim}-{DIST_LABELS[dist]}", results[(dim, dist, "dense")][1]]
                + [format_seconds(cost.avg_seconds) for cost in costs]
                + [format_seconds(cost.max_seconds) for cost in costs]
            )
    report(
        "ablation_rtree",
        render_table(
            f"Ablation — dense vs linear scan maintenance (N={capacity})",
            headers,
            rows,
        ),
    )

    # Both engines must produce identical R_N sizes (they are the same
    # algorithm); this guards the ablation against silent divergence.
    for dim in DIMS:
        for dist in DISTRIBUTIONS:
            sizes = {results[(dim, dist, v)][1] for v in VARIANTS}
            assert len(sizes) == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_maintenance_variant_benchmark(benchmark, variant):
    """Micro-benchmark: steady-state append, anti-correlated d=3."""
    capacity = scaled(800)
    rounds = 300
    engine = _engine(variant, 3, capacity)
    for point in stream_points("anticorrelated", 3, capacity, seed=73):
        engine.append(point)
    points = iter(stream_points("anticorrelated", 3, rounds + 10, seed=79))
    benchmark.pedantic(lambda: engine.append(next(points)), rounds=rounds, iterations=1)
