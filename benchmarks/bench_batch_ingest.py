"""Batched ingestion — ``append_many`` versus per-element ``append``.

Not a paper figure: the paper's Algorithm 1 is strictly per-element.
This benchmark quantifies the batched fast path added on top of it —
a vectorized intra-batch dominance prefilter drops batch members that
a younger same-batch element weakly dominates before any index work,
and the expiry sweep runs only at arrivals that can expire something.

Workload: uniform (independent) streams at ``d = 2..5`` into an
``N = scaled(100_000)`` window, fed once per element and once through
``append_many`` with 1024-point batches.  Expected shape: the speedup
is largest at ``d = 2`` (intra-batch kill rates near 100%) and decays
with ``d`` as dominance gets rarer; the acceptance floor is a 2x
throughput win at ``d = 2``.

Both engines must agree exactly — the batched path is a fast path, not
an approximation — so every run cross-checks ``query(n)`` at random
``n`` before any timing is reported.
"""

from __future__ import annotations

import random

from repro.bench import (
    bench_scale,
    feed_many_timed,
    feed_timed,
    format_percent,
    format_rate,
    format_seconds,
    render_table,
    scaled,
    stream_points,
)
from repro.core.nofn import NofNSkyline

DIMS = (2, 3, 4, 5)
BATCH = 1024


def _assert_parity(elem_engine, batch_engine, capacity: int) -> None:
    rng = random.Random(51)
    samples = {1, capacity} | {rng.randint(1, capacity) for _ in range(16)}
    for n in sorted(samples):
        expected = sorted(e.kappa for e in elem_engine.query(n))
        got = sorted(e.kappa for e in batch_engine.query(n))
        assert got == expected, (
            f"append_many diverged from append at n={n}: "
            f"{got} != {expected}"
        )


def _run_pair(dim: int, capacity: int):
    points = stream_points("independent", dim, capacity, seed=23)
    elem_engine = NofNSkyline(dim, capacity)
    elem = feed_timed(elem_engine, points)
    batch_engine = NofNSkyline(dim, capacity)
    batched = feed_many_timed(batch_engine, points, BATCH)
    _assert_parity(elem_engine, batch_engine, capacity)
    return elem, batched, batch_engine.stats


def test_batch_ingest_throughput(report, benchmark):
    """append_many vs append throughput, d=2..5, uniform workload."""
    capacity = scaled(100_000)
    results = {}

    def run_study():
        for dim in DIMS:
            results[dim] = _run_pair(dim, capacity)

    benchmark.pedantic(run_study, rounds=1, iterations=1)

    rows = []
    for dim in DIMS:
        elem, batched, stats = results[dim]
        speedup = (
            batched.throughput / elem.throughput
            if elem.throughput not in (0.0, float("inf"))
            else float("inf")
        )
        rows.append(
            [
                dim,
                format_seconds(elem.avg_seconds),
                format_seconds(batched.avg_seconds),
                format_rate(elem.throughput),
                format_rate(batched.throughput),
                f"{speedup:.2f}x",
                format_percent(stats.prefilter_kill_rate),
            ]
        )
    report(
        "batch_ingest",
        render_table(
            f"Batched ingestion — append_many (B={BATCH}) vs append, "
            f"independent, N={capacity}",
            ["d", "elem avg", "batch avg", "elem thr", "batch thr",
             "speedup", "kill rate"],
            rows,
        ),
    )

    # Acceptance floor: >= 2x throughput at d=2 on the full-size (scale
    # >= 1) workload.  Tiny scaled-down windows leave too little work
    # per batch for the timing to be meaningful, so the bar only
    # applies at scale >= 1.
    if bench_scale() >= 1:
        elem, batched, _ = results[2]
        assert batched.throughput >= 2 * elem.throughput, (
            f"batched ingestion should be >= 2x per-element at d=2: "
            f"{batched.throughput:.0f}/s vs {elem.throughput:.0f}/s"
        )
