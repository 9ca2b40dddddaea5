"""Ablation — R-tree fan-out and split policy.

The paper's R-tree (Figure 8) defaults to ``max_entries = 12`` per
node.  Fan-out trades per-node scan width against tree depth (and
split/condense frequency); these sweeps measure steady-state
maintenance cost across fan-outs and split policies on the workload
where the R-tree matters most (anti-correlated data, where ``|R_N|``
is largest).

The engines run the struct-of-arrays rebuild of the tree, whose blocks
ignore the split policy and coarsen fan-out to ``max(32, 4 * fanout)``
rows, so both sweeps swap the pointer tree
(:class:`repro.structures.rtree.RTree`) into an n-of-N engine — the
way :class:`repro.core.nofn_linear.LinearScanNofNSkyline` swaps in its
flat scan — and feed it per element (the pointer tree has no batch
surface).

Expected shape: a shallow bowl — tiny fan-outs pay for deep trees and
frequent splits, huge fan-outs degenerate toward linear node scans —
with a broad optimum; the default sits inside it.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    feed_timed,
    format_seconds,
    render_series,
    scaled,
    stream_points,
)
from repro.core.nofn import NofNSkyline
from repro.structures.rtree import RTree

FANOUTS = (4, 8, 12, 24, 48)
DIMS = (2, 4)


def _pointer_engine(
    dim: int, capacity: int, fanout: int = 12, split: str = "quadratic"
) -> NofNSkyline:
    """An n-of-N engine over the pointer R-tree with the given tuning."""
    engine = NofNSkyline(dim, capacity)
    engine._rtree = RTree(  # type: ignore[assignment]
        dim,
        max_entries=fanout,
        min_entries=max(2, fanout // 3),
        split=split,
    )
    return engine


def _run(dim: int, capacity: int, fanout: int):
    points = stream_points("anticorrelated", dim, 2 * capacity, seed=83)
    engine = _pointer_engine(dim, capacity, fanout)
    return feed_timed(engine, points, warmup=capacity)


def test_ablation_fanout_sweep(report, benchmark):
    """Maintenance cost across R-tree fan-outs (anti-correlated)."""
    capacity = scaled(1500)
    results = {}

    def run_figure():
        for dim in DIMS:
            for fanout in FANOUTS:
                results[(dim, fanout)] = _run(dim, capacity, fanout)

    benchmark.pedantic(run_figure, rounds=1, iterations=1)

    series = [
        (
            f"d{dim} avg",
            [format_seconds(results[(dim, f)].avg_seconds) for f in FANOUTS],
        )
        for dim in DIMS
    ]
    report(
        "ablation_fanout",
        render_series(
            f"Ablation — R-tree fan-out sweep "
            f"(anti-correlated, N={capacity})",
            "max_entries",
            list(FANOUTS),
            series,
        ),
    )

    # Sanity: every configuration completed and none is pathologically
    # (10x) worse than the default fan-out of 12.
    for dim in DIMS:
        baseline = results[(dim, 12)].avg_seconds
        for fanout in FANOUTS:
            assert results[(dim, fanout)].avg_seconds < baseline * 10 + 1e-6


def test_ablation_split_policy(report, benchmark):
    """Quadratic vs R* split on the anti-correlated maintenance load."""
    capacity = scaled(1500)
    results = {}

    def run_figure():
        for dim in DIMS:
            for policy in ("quadratic", "rstar"):
                points = stream_points(
                    "anticorrelated", dim, 2 * capacity, seed=83
                )
                engine = _pointer_engine(dim, capacity, split=policy)
                results[(dim, policy)] = feed_timed(
                    engine, points, warmup=capacity
                )

    benchmark.pedantic(run_figure, rounds=1, iterations=1)
    report(
        "ablation_split",
        render_series(
            f"Ablation — R-tree split policy (anti-correlated, N={capacity})",
            "dim",
            list(DIMS),
            [
                (
                    f"{policy} avg",
                    [
                        format_seconds(results[(d, policy)].avg_seconds)
                        for d in DIMS
                    ],
                )
                for policy in ("quadratic", "rstar")
            ],
        ),
    )
    # Neither policy should be pathologically worse than the other.
    for dim in DIMS:
        quad = results[(dim, "quadratic")].avg_seconds
        rstar = results[(dim, "rstar")].avg_seconds
        assert rstar < quad * 5 + 1e-6 and quad < rstar * 5 + 1e-6


@pytest.mark.parametrize("fanout", (4, 12, 48))
def test_fanout_append_benchmark(benchmark, fanout):
    """Micro-benchmark: append cost at selected fan-outs (d=4 anti)."""
    capacity = scaled(800)
    rounds = 200
    engine = _pointer_engine(4, capacity, fanout)
    for point in stream_points("anticorrelated", 4, capacity, seed=89):
        engine.append(point)
    points = iter(stream_points("anticorrelated", 4, rounds + 10, seed=97))
    benchmark.pedantic(lambda: engine.append(next(points)), rounds=rounds, iterations=1)
