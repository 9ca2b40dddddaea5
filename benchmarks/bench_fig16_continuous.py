"""Figure 16 — continuous n-of-N queries: cnN versus re-running nN.

Paper: 20 continuous queries (10 on an ``N = 10K`` window, 10 on
``N = 1M``, with ``n = i*N/10``) run over 2d and 5d streams of all
three distributions; the average and maximum per-element *delay*
(maintenance + query upkeep) is compared between the trigger-based cnN
(Algorithm 2) and the brute alternative of re-running the nN stabbing
query for every registered query on every arrival.  Findings: cnN
sustains >1000 elements/second; plain re-running is also "very
reasonable", especially at low dimensionality — but cnN wins.

Reproduction: windows ``N_small = scaled(500)`` and
``N_large = scaled(2000)``, 5 continuous queries each (``n = i*N/5``),
streams of ``N_large + scaled(2000)`` elements.  Here cnN is
:class:`ContinuousQueryManager`, which keeps the same results as
Algorithm 2 but counts them from Proposition 1 in closed form instead
of firing triggers.  Expected shape: cnN's average delay at or below
nN-rerun's in every stream, with the gap widening where skylines are
larger (anti-correlated, d=5).
"""

from __future__ import annotations

import time

import pytest

from repro.bench import (
    DISTRIBUTIONS,
    DIST_LABELS,
    PerElementCost,
    format_seconds,
    render_table,
    scaled,
    stream_points,
)
from repro.core.continuous import ContinuousQueryManager
from repro.core.nofn import NofNSkyline

DIMS = (2, 5)
QUERIES_PER_WINDOW = 5


def _window_sizes():
    return scaled(500), scaled(2000)


def _query_plan(capacity: int):
    return [
        max(1, i * capacity // QUERIES_PER_WINDOW)
        for i in range(1, QUERIES_PER_WINDOW + 1)
    ]


def _run_cnn(dist: str, dim: int, points, capacities) -> PerElementCost:
    """Continuous maintenance (Proposition 1 in closed form)."""
    engine = NofNSkyline(dim, max(capacities))
    manager = ContinuousQueryManager(engine)
    for capacity in capacities:
        for n in _query_plan(capacity):
            manager.register(n)
    return _timed_loop(points, manager.append, warmup=max(capacities))


def _run_rerun(dist: str, dim: int, points, capacities) -> PerElementCost:
    """The comparison mode: re-run nN for every query on every arrival."""
    engine = NofNSkyline(dim, max(capacities))
    plan = [n for capacity in capacities for n in _query_plan(capacity)]

    def step(point):
        engine.append(point)
        for n in plan:
            engine.query(n)

    return _timed_loop(points, step, warmup=max(capacities))


def _timed_loop(points, step, warmup: int) -> PerElementCost:
    count = 0
    total = 0.0
    worst = 0.0
    for index, point in enumerate(points):
        start = time.perf_counter()
        step(point)
        elapsed = time.perf_counter() - start
        if index < warmup:
            continue
        count += 1
        total += elapsed
        if elapsed > worst:
            worst = elapsed
    return PerElementCost(count=count, total_seconds=total, max_seconds=worst)


def test_fig16_continuous_queries(report, benchmark):
    """Regenerate Figure 16: cnN vs nN-rerun per-element delay."""
    n_small, n_large = _window_sizes()
    stream_len = n_large + scaled(2000)
    results = {}

    def run_figure():
        for dim in DIMS:
            for dist in DISTRIBUTIONS:
                points = stream_points(dist, dim, stream_len, seed=37)
                results[(dim, dist, "cnN")] = _run_cnn(
                    dist, dim, points, (n_small, n_large)
                )
                results[(dim, dist, "nN-rerun")] = _run_rerun(
                    dist, dim, points, (n_small, n_large)
                )

    benchmark.pedantic(run_figure, rounds=1, iterations=1)

    headers = ["stream", "cnN avg", "cnN max", "nN-rerun avg", "nN-rerun max"]
    rows = []
    for dim in DIMS:
        for dist in DISTRIBUTIONS:
            cnn = results[(dim, dist, "cnN")]
            rerun = results[(dim, dist, "nN-rerun")]
            rows.append(
                [
                    f"d{dim}-{DIST_LABELS[dist]}",
                    format_seconds(cnn.avg_seconds),
                    format_seconds(cnn.max_seconds),
                    format_seconds(rerun.avg_seconds),
                    format_seconds(rerun.max_seconds),
                ]
            )
    report(
        "fig16_continuous",
        render_table(
            f"Figure 16 — continuous queries, {2 * QUERIES_PER_WINDOW} "
            f"registered (N={n_small} and N={n_large}), per-element delay",
            headers,
            rows,
        ),
    )

    # Shape assertion: the trigger algorithm does not lose to re-running
    # the stabbing query for every registered query.  On the cheapest
    # streams both sides are dominated by fixed per-arrival overhead and
    # timer noise, so the comparison is only meaningful where real work
    # happens (sub-millisecond streams get a generous noise allowance).
    for dim in DIMS:
        for dist in DISTRIBUTIONS:
            cnn = results[(dim, dist, "cnN")].avg_seconds
            rerun = results[(dim, dist, "nN-rerun")].avg_seconds
            tolerance = 1.25 if rerun > 1e-3 else 2.0
            assert cnn <= rerun * tolerance, (
                f"cnN should not be slower than nN-rerun at d{dim}/{dist}: "
                f"{cnn:.2e}s vs {rerun:.2e}s"
            )


QUERY_SWEEP = (4, 16, 64, 256)


def test_fig16_query_count_sweep(report, benchmark):
    """Per-arrival manager cost versus registered-query count Q.

    Feeds the same arrivals to one manager per Q, engine outcomes
    produced untimed, and times the manager's ``process`` alone.  Its
    cost must grow sublinearly: every window's changes come from one
    difference array over the sorted window axis, so the top-of-sweep
    ratio manager(Qmax)/manager(Qmin) has to stay well under the
    query-count ratio (64x here).  Figure 16's nN-rerun over the same
    engine state (one ``engine.query(n)`` per distinct window after
    each arrival) is reported beside it but not asserted — the
    committed ratios live in ``scripts/bench_snapshot.py``.
    """
    from repro.core.query_index import mixed_query_plan

    dim = 2
    capacity = scaled(1000)
    arrivals = scaled(150, minimum=60)
    prefill = stream_points("independent", dim, capacity, seed=41)
    points = stream_points("independent", dim, arrivals, seed=43)
    per_arrival = {}

    def run_sweep():
        for count in QUERY_SWEEP:
            engine = NofNSkyline(dim, capacity)
            for point in prefill:
                engine.append(point)
            manager = ContinuousQueryManager(engine)
            plan = mixed_query_plan(count, capacity)
            for n in plan:
                manager.register(n)
            windows = sorted(set(plan))
            timings = {"manager": 0.0, "rerun": 0.0}
            for point in points:
                outcome = engine.append(point)
                start = time.perf_counter()
                manager.process(outcome)
                timings["manager"] += time.perf_counter() - start
                start = time.perf_counter()
                for n in windows:
                    engine.query(n)
                timings["rerun"] += time.perf_counter() - start
            per_arrival[count] = {
                label: total / arrivals for label, total in timings.items()
            }

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    headers = ["Q", "manager avg", "nN-rerun avg", "rerun/manager"]
    rows = []
    for count in QUERY_SWEEP:
        entry = per_arrival[count]
        ratio = entry["rerun"] / max(entry["manager"], 1e-12)
        rows.append(
            [
                str(count),
                format_seconds(entry["manager"]),
                format_seconds(entry["rerun"]),
                f"x{ratio:.2f}",
            ]
        )
    report(
        "fig16_query_count_sweep",
        render_table(
            f"Figure 16 extension — per-arrival cost vs Q "
            f"(d{dim}, N={capacity}, mixed distinct/duplicate windows)",
            headers,
            rows,
        ),
    )

    lo, hi = QUERY_SWEEP[0], QUERY_SWEEP[-1]
    growth = per_arrival[hi]["manager"] / max(per_arrival[lo]["manager"], 1e-12)
    if growth > (hi / lo) / 2.0:
        raise AssertionError(
            f"manager per-arrival cost grew x{growth:.1f} from Q={lo} to "
            f"Q={hi} — dispatch should be sublinear in Q "
            f"(query-count ratio is x{hi // lo})"
        )


@pytest.mark.parametrize("dim", DIMS)
def test_cnn_step_benchmark(benchmark, dim):
    """Micro-benchmark: one arrival through a loaded continuous manager."""
    capacity = scaled(1000)
    rounds = 200
    points = stream_points("independent", dim, capacity + rounds + 10, seed=53)
    engine = NofNSkyline(dim, capacity)
    manager = ContinuousQueryManager(engine)
    warm = iter(points)
    for _ in range(capacity):
        manager.append(next(warm))
    for n in _query_plan(capacity):
        manager.register(n)

    benchmark.pedantic(lambda: manager.append(next(warm)), rounds=rounds, iterations=1)
