"""Shared harness for the paper-figure benchmarks (see ``benchmarks/``)."""

from repro.bench.measure import (
    PerElementCost,
    average_query_time,
    bucketed_query_times,
    feed_many_timed,
    feed_timed,
    time_batch,
    time_each,
)
from repro.bench.reporting import (
    format_count,
    format_percent,
    format_rate,
    format_seconds,
    machine_fingerprint,
    render_series,
    render_table,
)
from repro.bench.workloads import (
    DISTRIBUTIONS,
    DIST_LABELS,
    bench_scale,
    build_n1n2,
    build_nofn,
    expected_maxima,
    scaled,
    stream_points,
)

__all__ = [
    "DISTRIBUTIONS",
    "DIST_LABELS",
    "PerElementCost",
    "average_query_time",
    "bench_scale",
    "bucketed_query_times",
    "build_n1n2",
    "build_nofn",
    "expected_maxima",
    "feed_many_timed",
    "feed_timed",
    "format_count",
    "format_percent",
    "format_rate",
    "format_seconds",
    "machine_fingerprint",
    "render_series",
    "render_table",
    "scaled",
    "stream_points",
    "time_batch",
    "time_each",
]
