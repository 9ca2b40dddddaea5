"""Figure 4 — the size of ``R_N``.

Paper: a table of ``|R_N|`` for dimensions 2-5, the three distribution
families, and ``N in {10^5, 10^6}``.  The paper observes that
``|R_N| << N`` at low dimensionality, smallest for correlated data and
largest for anti-correlated data, growing with both ``d`` and ``N``
(Theorem 2: ``E[|R_N|] = O(log^d N)`` under independence).

Reproduction: the same grid at scaled-down ``N`` (defaults 500 and
2000, times ``REPRO_BENCH_SCALE``); each engine ingests a ``2N``-long
stream and reports the final ``|R_N|``.  Expected shape: the
corr < indep < anti ordering per row and growth down the columns.
Beside the independent columns the table prints Theorem 2's exact
expectation for that family, ``E|R_N| = A(N, d + 1)``
(:func:`repro.bench.expected_maxima`); one stream per cell spreads
about 10% around it.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DISTRIBUTIONS,
    DIST_LABELS,
    build_nofn,
    expected_maxima,
    format_count,
    render_table,
    scaled,
)

DIMS = (2, 3, 4, 5)


def _n_values():
    return (scaled(500), scaled(2000))


def test_fig04_rn_size_table(report, nofn_engine, benchmark):
    """Regenerate the Figure 4 table at reproduction scale."""
    n_small, n_large = _n_values()
    headers = ["dim"]
    for dist in DISTRIBUTIONS:
        headers += [f"{DIST_LABELS[dist]} N={n}" for n in (n_small, n_large)]
        if dist == "independent":
            headers += [f"E|R_N| N={n}" for n in (n_small, n_large)]
    rows = []
    sizes = {}

    def run_figure():
        for dim in DIMS:
            row = [dim]
            for dist in DISTRIBUTIONS:
                for capacity in (n_small, n_large):
                    engine = nofn_engine(dist, dim, capacity, prefill=2 * capacity)
                    sizes[(dim, dist, capacity)] = engine.rn_size
                    row.append(format_count(engine.rn_size))
                if dist == "independent":
                    row += [
                        f"{expected_maxima(capacity, dim + 1):.1f}"
                        for capacity in (n_small, n_large)
                    ]
            rows.append(row)

    benchmark.pedantic(run_figure, rounds=1, iterations=1)
    report(
        "fig04_rn_size",
        render_table("Figure 4 — |R_N| (window N, stream 2N)", headers, rows),
    )

    # Shape assertions from the paper's discussion.
    for dim in DIMS:
        for capacity in (n_small, n_large):
            corr = sizes[(dim, "correlated", capacity)]
            anti = sizes[(dim, "anticorrelated", capacity)]
            assert corr <= anti, (
                f"correlated |R_N| should not exceed anti-correlated "
                f"(d={dim}, N={capacity}): {corr} vs {anti}"
            )
    # |R_N| is far below N for low dimensionality.
    assert sizes[(2, "independent", n_large)] < n_large / 10


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_rn_maintenance_benchmark(benchmark, dim, dist):
    """Micro-benchmark: one full window fill at small N (per config)."""
    capacity = scaled(200)
    from repro.bench import stream_points

    points = stream_points(dist, dim, capacity, seed=3)

    def fill():
        engine, _ = build_nofn(dist, dim, capacity, prefill=0)
        for point in points:
            engine.append(point)
        return engine.rn_size

    size = benchmark.pedantic(fill, rounds=2, iterations=1)
    assert 1 <= size <= capacity
