"""Plain-text table/series rendering for the figure benchmarks.

Each ``benchmarks/bench_fig*.py`` module prints the rows/series of its
paper figure through these helpers, so the reproduction's output can be
laid side by side with the paper's plots.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, List, Sequence

import numpy


def machine_fingerprint(**extra: object) -> Dict[str, str]:
    """Identity of the measuring machine, for benchmark snapshots.

    Includes ``cpu_count`` so no number is read without knowing how many
    cores produced it.  Keyword arguments (e.g. ``queries=...``) are
    stringified into the fingerprint so configuration rides along with
    machine identity.
    """
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": str(os.cpu_count() or 0),
    }
    info.update({key: str(value) for key, value in extra.items()})
    return info


def format_seconds(seconds: float) -> str:
    """Human scale: us / ms / s, three significant digits."""
    if seconds == float("inf"):
        return "inf"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3g}ms"
    return f"{seconds:.3g}s"


def format_rate(per_second: float) -> str:
    """Elements (or queries) per second, compact."""
    if per_second == float("inf"):
        return "inf"
    if per_second >= 1e6:
        return f"{per_second / 1e6:.3g}M/s"
    if per_second >= 1e3:
        return f"{per_second / 1e3:.3g}K/s"
    return f"{per_second:.3g}/s"


def format_percent(fraction: float) -> str:
    """A 0..1 fraction as a percentage (prefilter kill rates etc.)."""
    return f"{fraction * 100:.3g}%"


def format_count(value: float) -> str:
    """Counts the way the paper's Figure 4 prints them (1.3K, 14K...)."""
    if value >= 1e6:
        return f"{value / 1e6:.3g}M"
    if value >= 1e3:
        return f"{value / 1e3:.3g}K"
    return f"{value:.4g}"


def render_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """An aligned ASCII table with a title rule."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = [title, "=" * max(len(title), sum(widths) + 3 * (len(widths) - 1))]
    for i, row in enumerate(cells):
        lines.append("   ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-" * len(lines[-1]))
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: Sequence[tuple],
) -> str:
    """One table per figure *plot*: an x column plus one column per line.

    ``series`` is a sequence of ``(name, values)`` pairs, each value
    list aligned with ``xs``.
    """
    headers: List[str] = [x_label] + [name for name, _ in series]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [values[i] for _, values in series])
    return render_table(title, headers, rows)
