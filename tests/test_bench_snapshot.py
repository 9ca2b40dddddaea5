"""Tests for ``scripts/bench_snapshot.py``: the same-machine band on the
query kind's cached medians, with and without the speed probe; the
continuous kind's speed-scaled band, ratio band, growth ceiling and
shared run count; what ``--check`` compares against; and argument
checking."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"
MACHINE = {"platform": "test", "cpu_count": "2"}


@pytest.fixture(scope="module")
def bench_snapshot():
    saved = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _profile(cached_us, speed=None):
    entry = {
        "cached": {"median_us": cached_us, "p99_us": cached_us},
        "uncached": {"median_us": 100.0, "p99_us": 100.0},
        "speedup": 4.0,
    }
    if speed is not None:
        entry["speed"] = speed
    variants = {label: dict(entry) for label in ("warm", "cold", "stale")}
    return {"machine": MACHINE, "results": {"d2": variants}}


def _check(module, tmp_path, fresh, committed):
    path = tmp_path / "BENCH_query.json"
    path.write_text(json.dumps({"profiles": {"quick": committed}}))
    return module.check_regression(fresh, path, "query")


@pytest.mark.parametrize(
    "fresh_us, fresh_speed, failures",
    [
        (14.0, 2.0, 0),  # 40% slower, but on a machine running 2x slower
        (14.0, 1.0, 3),  # 40% slower at the same speed: every variant fails
        (12.0, 1.0, 0),  # inside the 25% band
    ],
)
def test_cached_medians_are_scaled_by_each_runs_speed(
    bench_snapshot, tmp_path, fresh_us, fresh_speed, failures
):
    found = _check(
        bench_snapshot,
        tmp_path,
        _profile(fresh_us, fresh_speed),
        _profile(10.0, 1.0),
    )
    assert len(found) == failures
    assert all("speed-scaled" in failure for failure in found)


def test_snapshot_without_speed_is_compared_unscaled(bench_snapshot, tmp_path):
    found = _check(
        bench_snapshot, tmp_path, _profile(14.0, 2.0), _profile(10.0)
    )
    assert len(found) == 3
    assert not any("speed-scaled" in failure for failure in found)


def test_check_compares_against_the_committed_profile_it_overwrites(
    bench_snapshot, tmp_path, monkeypatch
):
    path = tmp_path / "BENCH_query.json"
    path.write_text(json.dumps({
        "schema": bench_snapshot.SCHEMA,
        "kind": "query",
        "profiles": {"quick": _profile(10.0, 1.0)},
    }))
    monkeypatch.setattr(bench_snapshot, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(
        bench_snapshot, "run_profile", lambda name, kind: _profile(14.0, 1.0)
    )
    # No --out: the fresh profile is written over the committed one.
    assert bench_snapshot.main(["--quick", "--check", "--only", "query"]) == 1
    written = json.loads(path.read_text())
    assert written["profiles"]["quick"] == _profile(14.0, 1.0)


def test_main_rejects_the_retired_shard_kind(bench_snapshot, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        bench_snapshot.main(
            ["--quick", "--out", str(tmp_path), "--only", "shard"]
        )
    assert excinfo.value.code == 2
    assert not list(tmp_path.iterdir())


def _continuous_dim(manager_us, batch_us, speed, speedup=10.0, growth=2.0):
    entry = {
        "groups": 5,
        "manager": {"median_us": manager_us, "p99_us": manager_us},
        "manager_batch": {"median_us": batch_us, "p99_us": batch_us},
        "rerun": {"median_us": 100.0, "p99_us": 100.0},
        "speed": speed,
        "speedup": speedup,
        "batch_speedup": speedup,
    }
    dim = {f"q{count}": dict(entry) for count in (10, 100, 1000, 10000)}
    dim["growth_q100_to_q10000"] = growth
    dim["query_count_growth"] = 100.0
    return {"machine": MACHINE, "results": {"d2": dim}}


def _check_continuous(module, tmp_path, fresh, committed):
    path = tmp_path / "BENCH_continuous.json"
    path.write_text(json.dumps({"profiles": {"quick": committed}}))
    return module.check_regression(fresh, path, "continuous")


@pytest.mark.parametrize(
    "fresh_us, fresh_speed, failures",
    [
        (14.0, 2.0, 0),  # 40% slower, but on a machine running 2x slower
        (14.0, 1.0, 8),  # 40% slower at the same speed: both medians, 4 Qs
        (12.0, 1.0, 0),  # inside the 25% band
    ],
)
def test_continuous_medians_are_scaled_by_each_runs_speed(
    bench_snapshot, tmp_path, fresh_us, fresh_speed, failures
):
    found = _check_continuous(
        bench_snapshot,
        tmp_path,
        _continuous_dim(fresh_us, fresh_us, fresh_speed),
        _continuous_dim(10.0, 10.0, 1.0),
    )
    assert len(found) == failures
    assert all("speed-scaled" in failure for failure in found)


def test_continuous_medians_unbanded_on_another_machine(
    bench_snapshot, tmp_path
):
    fresh = _continuous_dim(50.0, 50.0, 1.0)
    fresh["machine"] = {"platform": "elsewhere", "cpu_count": "8"}
    assert _check_continuous(
        bench_snapshot, tmp_path, fresh, _continuous_dim(10.0, 10.0, 1.0)
    ) == []


def test_continuous_ratio_band_and_growth_ceiling(bench_snapshot, tmp_path):
    committed = _continuous_dim(10.0, 10.0, 1.0, speedup=10.0)
    inside = _continuous_dim(10.0, 10.0, 1.0, speedup=7.6, growth=49.0)
    assert _check_continuous(bench_snapshot, tmp_path, inside, committed) == []
    below = _continuous_dim(10.0, 10.0, 1.0, speedup=7.4, growth=51.0)
    found = _check_continuous(bench_snapshot, tmp_path, below, committed)
    assert sum("speedup" in failure for failure in found) == 8
    assert sum("grew 51.0x" in failure for failure in found) == 1


def test_continuous_profile_is_the_lower_median_of_the_shared_run_count(
    bench_snapshot, monkeypatch
):
    values = iter([3.0, 1.0, 2.0, 5.0, 4.0, 6.0, 9.0, 8.0, 7.0])
    calls = []

    def fake_run(dim, window, prefill, arrivals):
        calls.append(len(arrivals))
        return {"q10": {"speedup": next(values)}}

    monkeypatch.setattr(bench_snapshot, "_continuous_run", fake_run)
    monkeypatch.setattr(bench_snapshot, "CONTINUOUS_RUNS", 4)
    result = bench_snapshot.bench_continuous_dim(2, {"window": 50, "chunks": 2})
    assert calls == [2 * bench_snapshot.CONTINUOUS_CHUNK] * 4
    assert result == {"q10": {"speedup": 2.0}}  # lower median of 3, 1, 2, 5
