"""Figure 18 — mn12N maintenance cost per element versus ``N``.

Paper: the Figure 14 protocol repeated with Algorithm 4 (the
(n1,n2)-of-N structure maintenance) over independent and
anti-correlated data at ``d in {2, 5}``; the results "confirmed our
theoretical analysis that mn12N and mnN should have about the same
efficiency" — the extra work per arrival is one interval-tree move
(``I_RN`` to ``I_RN-``) per newly-dominated element, amortised
``O(log N)``; in this reproduction that move is one write to the
element's backward-ancestor column.

Reproduction: ten window sizes ``N = i * scaled(200)``, streams of
``2N``, per-element average and maximum after the window fills, plus
an mnN column for the same workload.  Expected shape: mn12N within a
small constant factor of mnN at every ``N``, same distribution
ordering, sub-linear growth in ``N``.
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
from repro.core.n1n2 import N1N2Skyline
from repro.core.nofn import NofNSkyline

DIMS = (2, 5)
DISTS = ("independent", "anticorrelated")
STEPS = 10


def _n_values():
    base = scaled(200)
    return [i * base for i in range(1, STEPS + 1)]


def _run(engine_cls, dist: str, dim: int, capacity: int):
    points = stream_points(dist, dim, 2 * capacity, seed=19)
    engine = engine_cls(dim, capacity)
    return feed_timed(engine, points, warmup=capacity)


def test_fig18_mn12n_maintenance(report, benchmark):
    """Regenerate Figure 18: mn12N (and mnN reference) cost vs N."""
    n_values = _n_values()
    results = {}

    def run_figure():
        for dim in DIMS:
            for dist in DISTS:
                for capacity in n_values:
                    results[(dim, dist, "mn12N", capacity)] = _run(
                        N1N2Skyline, dist, dim, capacity
                    )
                    results[(dim, dist, "mnN", capacity)] = _run(
                        NofNSkyline, dist, dim, capacity
                    )

    benchmark.pedantic(run_figure, rounds=1, iterations=1)

    for dim in DIMS:
        series = []
        for dist in DISTS:
            for algo in ("mn12N", "mnN"):
                series.append(
                    (
                        f"{dist[:4]} {algo} avg",
                        [
                            format_seconds(
                                results[(dim, dist, algo, n)].avg_seconds
                            )
                            for n in n_values
                        ],
                    )
                )
            series.append(
                (
                    f"{dist[:4]} mn12N max",
                    [
                        format_seconds(
                            results[(dim, dist, "mn12N", n)].max_seconds
                        )
                        for n in n_values
                    ],
                )
            )
        report(
            f"fig18_mn12n_d{dim}",
            render_series(
                f"Figure 18 — mn12N per-element maintenance, d={dim} "
                "(stream 2N, warm-up N excluded)",
                "N",
                n_values,
                series,
            ),
        )

    # Shape assertion: "mn12N and mnN should have about the same
    # efficiency" — within a modest constant factor at the largest N.
    top = n_values[-1]
    for dim in DIMS:
        for dist in DISTS:
            mn12n = results[(dim, dist, "mn12N", top)].avg_seconds
            mnn = results[(dim, dist, "mnN", top)].avg_seconds
            assert mn12n < mnn * 5 + 1e-6, (
                f"mn12N should be within ~constant factor of mnN "
                f"(d={dim}, {dist}): {mn12n:.2e}s vs {mnn:.2e}s"
            )


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("dim", DIMS)
def test_n1n2_append_benchmark(benchmark, n1n2_engine, dim, dist):
    """Micro-benchmark: steady-state appends into a warm (n1,n2) engine."""
    capacity = scaled(1000)
    rounds = 300
    engine = n1n2_engine(dist, dim, capacity, prefill=capacity, seed=61)
    points = iter(stream_points(dist, dim, rounds + 10, seed=67))

    benchmark.pedantic(lambda: engine.append(next(points)), rounds=rounds, iterations=1)
