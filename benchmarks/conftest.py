"""Shared fixtures for the paper-figure benchmarks.

Every ``bench_fig*.py`` module regenerates one table/figure of the
paper's section 5.  Two fixtures do the heavy lifting:

``nofn_engine`` / ``n1n2_engine``
    Session-cached engine builders, so figures that share a workload
    (e.g. Figures 12 and 13 both use full-window engines at the same
    ``N``) pay the stream-feeding cost once.

``report``
    Prints a rendered table straight to the terminal (bypassing
    pytest's capture) *and* archives it under ``benchmarks/results/``
    so ``bench_output.txt`` and the per-figure files both carry the
    reproduced rows.

Scale: all sizes respect ``REPRO_BENCH_SCALE`` (see
:mod:`repro.bench.workloads`).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import build_n1n2, build_nofn, machine_fingerprint

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def archive_machine_fingerprint():
    """Archive the run's fingerprint in ``results/machine.txt``.

    Records cpu_count plus ``REPRO_BENCH_SCALE`` so archived numbers
    always say how many cores, at what scale, produced them.

    The file keeps one blank-line-separated block per *distinct*
    configuration ever benchmarked on this checkout (numbers from two
    scales or two machines are different measurements, and both
    fingerprints should survive).  Re-running an already-archived
    configuration rewrites the file byte-identically instead of
    appending a duplicate block.
    """
    info = machine_fingerprint(
        bench_scale=os.environ.get("REPRO_BENCH_SCALE", "1.0"),
    )
    block = "".join(f"{key}: {value}\n" for key, value in sorted(info.items()))
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "machine.txt"
    blocks = []
    if path.exists():
        blocks = [
            chunk.strip("\n") + "\n"
            for chunk in path.read_text().split("\n\n")
            if chunk.strip()
        ]
    if block not in blocks:
        blocks.append(block)
    path.write_text("\n".join(blocks))
    yield


@pytest.fixture(scope="session")
def _engine_cache():
    return {}


@pytest.fixture(scope="session")
def nofn_engine(_engine_cache):
    """Cached ``(distribution, dim, capacity[, prefill, seed]) -> engine``."""

    def _get(distribution: str, dim: int, capacity: int, prefill=None, seed: int = 0):
        key = ("nofn", distribution, dim, capacity, prefill, seed)
        if key not in _engine_cache:
            engine, _ = build_nofn(distribution, dim, capacity, prefill, seed)
            _engine_cache[key] = engine
        return _engine_cache[key]

    return _get


@pytest.fixture(scope="session")
def n1n2_engine(_engine_cache):
    """Cached ``(distribution, dim, capacity[, prefill, seed]) -> engine``."""

    def _get(distribution: str, dim: int, capacity: int, prefill=None, seed: int = 0):
        key = ("n1n2", distribution, dim, capacity, prefill, seed)
        if key not in _engine_cache:
            engine, _ = build_n1n2(distribution, dim, capacity, prefill, seed)
            _engine_cache[key] = engine
        return _engine_cache[key]

    return _get


@pytest.fixture
def report(capsys):
    """Emit a figure's reproduced rows to the terminal and to disk."""

    def _report(name: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report
