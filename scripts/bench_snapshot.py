"""Committed benchmark snapshots for the query fast path.

Produces three JSON files (default: the repository root):

``BENCH_query.json``
    n-of-N query latency with the versioned stab cache on vs off, per
    dimensionality — *warm* (repeated stab points, answered from the
    memo), *cold* (distinct stab points, answered by a flat scan) and
    *stale* (one ``append``, then one query: the first read after a
    write) — with medians, p99s and speedup ratios.  Cached and
    uncached queries are timed interleaved, point by point.

``BENCH_ingest.json``
    Per-arrival maintenance latency on a full window, across two
    variants: the engine fed per-element through ``append``
    (``per_element``) and through the frozen-tree ``append_many``
    pipeline (``batch``).  ``batch_speedup`` is batched vs per-element
    ingest.

``BENCH_continuous.json``
    Per-arrival continuous-query maintenance cost versus registered
    query count Q in {10, 100, 1000, 10000} (a deterministic mixed
    distinct/duplicate window plan).  Only the manager is timed: the
    engine produces each outcome untimed, then ``process`` (``manager``)
    or, chunk by chunk on a second engine, ``process_batch``
    (``manager_batch``, per arrival) consumes it.  The denominator of
    ``speedup`` and ``batch_speedup`` is Figure 16's nN-rerun
    (``rerun``): one ``engine.query(n)`` per distinct registered ``n``
    on the same engine state after an arrival, in the same run, so the
    ratios are machine-portable.  Chunks of the two paths interleave
    (which goes first alternates).  ``growth_q100_to_q10000`` is the
    manager's cost growth across a 100x query-count growth; it must
    stay far below 100.  This kind uses the ``independent``
    distribution, where result churn stays small and the dispatch term
    is what is measured.  Every profile is the field-wise lower median
    of ``CONTINUOUS_RUNS`` runs, and ``--check`` takes the same median.

Each file holds up to two profiles: ``full`` (the committed reference,
N = 100k) and ``quick`` (small, seconds-scale; what CI runs).  A run
only replaces the profile it executed, so ``--quick`` refreshes the
quick numbers without touching the committed full ones.

``--check`` compares the freshly measured quick profile against the
committed snapshot at the repository root and exits non-zero when a
speedup ratio regressed by more than ``REGRESSION_TOLERANCE``.  Ratios
are machine-portable; absolute latencies are compared only when the
machine fingerprint matches the committed one.  The ``query`` and
``continuous`` kinds run ``perfbench/speed.py``'s probe between their
timed points and record each variant's ``speed`` (probe time over
``REFERENCE_S``); when the committed entry carries one, both medians
are divided by their own run's speed before the band applies, so the
machine's drift between the two runs cancels.

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py            # full + quick
    PYTHONPATH=src python scripts/bench_snapshot.py --quick
    PYTHONPATH=src python scripts/bench_snapshot.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from repro.bench.reporting import machine_fingerprint  # noqa: E402
from repro.core.continuous import ContinuousQueryManager  # noqa: E402
from repro.core.nofn import NofNSkyline  # noqa: E402
from repro.core.query_index import mixed_query_plan  # noqa: E402
from repro.streams import make_stream  # noqa: E402
from speed import probe, speed  # noqa: E402

SCHEMA = 1
DIMS = (2, 5)
DISTRIBUTION = "anticorrelated"  # largest |R_N|: the hardest query load
SEED = 7
#: A quick-profile speedup may fall this far below the committed one
#: before ``--check`` fails (ratio-of-ratios, so machine-portable).
REGRESSION_TOLERANCE = 0.25
#: Speed probes (``perfbench/speed.py``) spread through each ``query``
#: variant's timed points, outside the timed regions.
PROBES_PER_VARIANT = 32
#: Ingest variants.  ``batch`` feeds the same stream through
#: ``append_many`` (the frozen-tree chunk pipeline) instead of
#: per-element ``append`` — same interleaving, bulk maintenance.
INGEST_VARIANTS = ("per_element", "batch")
#: ``batch_speedup`` floors per dimension: batched ingest must beat
#: per-element ingest by these machine-portable ratios (both sides
#: measured in the same run).  The quick floors sit below the measured
#: quick ratios (~1.5x at d=2, ~1.7x at d=5 on the dense index) so
#: scheduler noise cannot flake CI, while still catching the pipeline
#: losing its advantage.
BATCH_INGEST_FLOORS = {"d2": 1.3, "d5": 1.5}

PROFILES = {
    "full": {"window": 100_000, "warm_points": 16, "warm_repeats": 64,
             "cold_points": 2000, "stale_points": 200, "ingest_ops": 2000},
    "quick": {"window": 5_000, "warm_points": 8, "warm_repeats": 32,
              "cold_points": 400, "stale_points": 200, "ingest_ops": 400},
}

#: Registered-query counts swept by the ``continuous`` kind (mixed
#: distinct/duplicate windows via ``mixed_query_plan``).
CONTINUOUS_QUERY_COUNTS = (10, 100, 1000, 10000)
#: The continuous kind measures *dispatch*: how fast one arrival's
#: outcome reaches Q registered queries.  Anticorrelated streams bury
#: that term under enormous shared result churn, so this kind feeds
#: independent points at d=2 instead.
CONTINUOUS_DISTRIBUTION = "independent"
CONTINUOUS_DIMS = (2,)
#: Manager per-arrival cost growth over the Q=100 -> Q=10000 sweep
#: (a 100x query-count growth).  50 = half of linear is a generous
#: ceiling that still catches an accidental O(Q) path.
CONTINUOUS_GROWTH_MAX = 50.0
#: Runs behind every continuous profile, written and checked alike:
#: each stored number is the field-wise lower median of this many.
CONTINUOUS_RUNS = 3
#: Arrivals per chunk: one ``process_batch`` call on the batched path,
#: and one nN-rerun sample (after the chunk's last arrival) on the
#: per-arrival path.
CONTINUOUS_CHUNK = 25
#: The window must be large relative to the distinct-window pool
#: (``CONTINUOUS_QUERY_COUNTS[-1] / 2`` at the top sweep point), or
#: nearly every arrival churns nearly every window — shared work that
#: buries the dispatch term this kind exists to measure.
CONTINUOUS_PROFILES = {
    "full": {"window": 20000, "chunks": 40},
    "quick": {"window": 5000, "chunks": 20},
}


def summarize(samples_ns: List[int]) -> Dict[str, float]:
    ordered = sorted(samples_ns)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]
    return {
        "median_us": round(statistics.median(ordered) / 1000.0, 3),
        "p99_us": round(p99 / 1000.0, 3),
    }


def time_each(fn: Callable[[Any], Any], args: List[Any]) -> List[int]:
    samples = []
    for arg in args:
        start = time.perf_counter_ns()
        fn(arg)
        samples.append(time.perf_counter_ns() - start)
    return samples


def build_engine(dim: int, window: int) -> NofNSkyline:
    engine = NofNSkyline(dim=dim, capacity=window)
    points = list(make_stream(DISTRIBUTION, dim, window, SEED))
    for start in range(0, window, 1000):
        engine.append_many(points[start:start + 1000])
    return engine


def time_paired(
    engine: NofNSkyline,
    ns: List[int],
    before: Optional[Callable[[int], None]] = None,
) -> Tuple[List[int], List[int]]:
    """Time ``engine.query(n)`` with the stab cache on and off, point by
    point: both sides of a ratio see the same machine drift.

    Which side goes first alternates per point, so neither always meets
    the other's cache footprint.  ``before(i)``, if given, runs untimed
    ahead of point ``i`` (the ``stale`` variant's write).
    """
    cache = engine._stab_cache
    cached: List[int] = []
    uncached: List[int] = []
    try:
        for i, n in enumerate(ns):
            if before is not None:
                before(i)
            for use_cache in ((True, False) if i % 2 == 0 else (False, True)):
                engine._stab_cache = cache if use_cache else None
                start = time.perf_counter_ns()
                engine.query(n)
                took = time.perf_counter_ns() - start
                (cached if use_cache else uncached).append(took)
    finally:
        engine._stab_cache = cache
    return cached, uncached


def _probing(
    probes: List[float],
    points: int,
    write: Optional[Callable[[int], None]],
) -> Callable[[int], None]:
    """The untimed hook ahead of each of ``points`` timed points: a speed
    probe into ``probes`` every few points, then ``write(i)`` if any."""
    stride = max(1, points // PROBES_PER_VARIANT)

    def before(i: int) -> None:
        if i % stride == 0:
            probes.append(probe())
        if write is not None:
            write(i)

    return before


def bench_query_dim(dim: int, profile: Dict[str, int]) -> Dict[str, Any]:
    window = profile["window"]
    engine = build_engine(dim, window)

    warm_ns = [
        max(2, window * (i + 1) // (profile["warm_points"] + 1))
        for i in range(profile["warm_points"])
    ] * profile["warm_repeats"]
    cold_ns = [
        max(2, window * (i + 1) // (profile["cold_points"] + 1))
        for i in range(profile["cold_points"])
    ]
    stale_ns = [
        max(2, window * (i + 1) // (profile["stale_points"] + 1))
        for i in range(profile["stale_points"])
    ]
    # The arrivals the stale variant writes continue the window's own
    # stream, so each one meets the structure a live feed would.
    more = list(
        make_stream(DISTRIBUTION, dim, window + len(stale_ns), SEED)
    )[window:]

    def write(i: int) -> None:
        engine.append(more[i])

    results: Dict[str, Any] = {"rn_size": engine.rn_size}
    # ``stale`` runs last: its writes would change what the others read.
    for label, workload, warmup, write_before in (
        ("warm", warm_ns, warm_ns[: profile["warm_points"]], None),
        ("cold", cold_ns, cold_ns[:1], None),
        ("stale", stale_ns, [], write),
    ):
        probes: List[float] = []
        before = _probing(probes, len(workload), write_before)
        time_each(engine.query, warmup)  # snapshot (and memo) priming
        cached, uncached = time_paired(engine, workload, before)
        entry = {
            "cached": summarize(cached),
            "uncached": summarize(uncached),
        }
        entry["speedup"] = round(
            entry["uncached"]["median_us"]
            / max(entry["cached"]["median_us"], 1e-9),
            2,
        )
        # How much slower than the probe's reference machine this
        # variant ran; ``--check`` divides the cached median by it.
        entry["speed"] = round(speed(probes), 3)
        results[label] = entry
    return results


def bench_ingest_dim(dim: int, profile: Dict[str, int]) -> Dict[str, Any]:
    window = profile["window"]
    extra = list(
        make_stream(DISTRIBUTION, dim, profile["ingest_ops"], SEED + 1)
    )
    # All variants ingest the same stream in interleaved chunks so
    # that slow machine drift (thermal throttle, background load —
    # very visible on a 1-core container) hits every variant equally
    # instead of biasing whichever ran last.
    engines = {key: build_engine(dim, window) for key in INGEST_VARIANTS}
    samples: Dict[str, List[int]] = {key: [] for key in engines}
    keys = list(engines)
    chunk = 50
    for index, lower in enumerate(range(0, len(extra), chunk)):
        # Rotate which variant goes first: the chunk's lead engine
        # pays the cache-cold penalty for all of them.
        for key in keys[index % len(keys):] + keys[: index % len(keys)]:
            piece = extra[lower:lower + chunk]
            if key == "batch":
                # One bulk call per chunk; attribute the wall time
                # evenly so the per-arrival medians stay comparable
                # with the per-element variants.
                start = time.perf_counter_ns()
                engines[key].append_many(piece)
                per_element = (time.perf_counter_ns() - start) // len(piece)
                samples[key] += [per_element] * len(piece)
            else:
                samples[key] += time_each(engines[key].append, piece)
    results: Dict[str, Any] = {
        key: summarize(samples[key]) for key in engines
    }
    results["batch_speedup"] = round(
        results["per_element"]["median_us"]
        / max(results["batch"]["median_us"], 1e-9),
        2,
    )
    return results


def _prefilled_engine(dim: int, window: int, points: List[Any]) -> NofNSkyline:
    engine = NofNSkyline(dim=dim, capacity=window)
    for start in range(0, window, 1000):
        engine.append_many(points[start:start + 1000])
    return engine


def _continuous_run(
    dim: int, window: int, prefill: List[Any], arrivals: List[Any]
) -> Dict[str, Any]:
    """One timed pass over the Q sweep (see the module docstring)."""
    results: Dict[str, Any] = {}
    for count in CONTINUOUS_QUERY_COUNTS:
        plan = mixed_query_plan(count, window)
        windows = sorted(set(plan))
        engine = _prefilled_engine(dim, window, prefill)
        manager = ContinuousQueryManager(engine)
        batch_engine = _prefilled_engine(dim, window, prefill)
        batched = ContinuousQueryManager(batch_engine)
        for n in plan:
            manager.register(n)
            batched.register(n)
        manager_ns: List[int] = []
        batch_ns: List[int] = []
        rerun_ns: List[int] = []
        probes: List[float] = []

        def per_arrival_chunk(piece: List[Any]) -> None:
            for point in piece:
                outcome = engine.append(point)
                tick = time.perf_counter_ns()
                manager.process(outcome)
                manager_ns.append(time.perf_counter_ns() - tick)
            tick = time.perf_counter_ns()
            for n in windows:
                engine.query(n)
            rerun_ns.append(time.perf_counter_ns() - tick)

        def batch_chunk(piece: List[Any]) -> None:
            outcome_batch = batch_engine.append_many(piece)
            tick = time.perf_counter_ns()
            batched.process_batch(outcome_batch)
            batch_ns.append((time.perf_counter_ns() - tick) // len(piece))

        for index, lower in enumerate(
            range(0, len(arrivals), CONTINUOUS_CHUNK)
        ):
            piece = arrivals[lower:lower + CONTINUOUS_CHUNK]
            probes.append(probe())
            if index % 2:
                batch_chunk(piece)
                per_arrival_chunk(piece)
            else:
                per_arrival_chunk(piece)
                batch_chunk(piece)
        entry: Dict[str, Any] = {
            "groups": len(windows),
            "manager": summarize(manager_ns),
            "manager_batch": summarize(batch_ns),
            "rerun": summarize(rerun_ns),
            "speed": round(speed(probes), 3),
        }
        for ratio_key, variant in (("speedup", "manager"),
                                   ("batch_speedup", "manager_batch")):
            entry[ratio_key] = round(
                entry["rerun"]["median_us"]
                / max(entry[variant]["median_us"], 1e-9),
                2,
            )
        results[f"q{count}"] = entry
    top = CONTINUOUS_QUERY_COUNTS[-1]
    results["growth_q100_to_q10000"] = round(
        results[f"q{top}"]["manager"]["median_us"]
        / max(results["q100"]["manager"]["median_us"], 1e-9),
        2,
    )
    results["query_count_growth"] = round(top / 100, 1)
    return results


def _lower_median(runs: List[Any]) -> Any:
    """The field-wise lower median of equally shaped result trees, so
    every stored number is one measured value."""
    if isinstance(runs[0], dict):
        return {key: _lower_median([run[key] for run in runs])
                for key in runs[0]}
    return statistics.median_low(runs)


def bench_continuous_dim(dim: int, profile: Dict[str, int]) -> Dict[str, Any]:
    window = profile["window"]
    prefill = list(
        make_stream(CONTINUOUS_DISTRIBUTION, dim, window, SEED)
    )
    arrivals = list(make_stream(
        CONTINUOUS_DISTRIBUTION, dim,
        profile["chunks"] * CONTINUOUS_CHUNK, SEED + 3,
    ))
    return _lower_median([
        _continuous_run(dim, window, prefill, arrivals)
        for _ in range(CONTINUOUS_RUNS)
    ])


def run_profile(name: str, kind: str) -> Dict[str, Any]:
    if kind == "continuous":
        profile = CONTINUOUS_PROFILES[name]
        bench = bench_continuous_dim
        machine = machine_fingerprint(
            queries=",".join(str(q) for q in CONTINUOUS_QUERY_COUNTS),
        )
    else:
        profile = PROFILES[name]
        bench = bench_query_dim if kind == "query" else bench_ingest_dim
        machine = machine_fingerprint()
    distribution = (
        CONTINUOUS_DISTRIBUTION if kind == "continuous" else DISTRIBUTION
    )
    dims = CONTINUOUS_DIMS if kind == "continuous" else DIMS
    results = {}
    for dim in dims:
        print(f"[{kind}/{name}] d={dim} N={profile['window']} ...",
              file=sys.stderr)
        results[f"d{dim}"] = bench(dim, profile)
    config = dict(profile, distribution=distribution, seed=SEED)
    if kind == "continuous":
        config.update(chunk=CONTINUOUS_CHUNK, runs=CONTINUOUS_RUNS)
    return {"config": config, "machine": machine, "results": results}


def merge_snapshot(path: Path, kind: str,
                   profiles: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    snapshot: Dict[str, Any] = {"schema": SCHEMA, "kind": kind, "profiles": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if existing.get("schema") == SCHEMA and existing.get("kind") == kind:
                snapshot["profiles"].update(existing.get("profiles", {}))
        except (ValueError, OSError):
            pass  # unreadable snapshot: rewrite from scratch
    snapshot["profiles"].update(profiles)
    return snapshot


def check_regression(fresh: Dict[str, Any], committed_path: Path,
                     kind: str) -> List[str]:
    """Speedup-ratio regressions of the fresh quick profile vs the
    committed snapshot; absolute latencies only on the same machine."""
    if not committed_path.exists():
        return [f"{committed_path.name}: no committed snapshot to check against"]
    committed = json.loads(committed_path.read_text())
    baseline = committed.get("profiles", {}).get("quick")
    if baseline is None:
        return [f"{committed_path.name}: committed snapshot has no quick profile"]
    failures = []
    same_machine = baseline.get("machine") == fresh.get("machine")
    for dim_key, fresh_dim in fresh["results"].items():
        base_dim = baseline["results"].get(dim_key)
        if base_dim is None:
            continue
        if kind == "continuous":
            failures += _check_continuous(
                f"continuous/{dim_key}", fresh_dim, base_dim, same_machine
            )
            continue
        if kind == "ingest":
            where = f"ingest/{dim_key}"
            # Absolute floor first: the ratio compares two variants
            # measured in the same run, so it is machine-portable.
            batch_floor = BATCH_INGEST_FLOORS.get(dim_key)
            if batch_floor is not None and (
                fresh_dim["batch_speedup"] < batch_floor
            ):
                failures.append(
                    f"{where}: batched ingest is only "
                    f"{fresh_dim['batch_speedup']}x per-element "
                    f"(floor {batch_floor})"
                )
            # Then the committed-ratio regression (older snapshots
            # lack the key; the absolute floor above still applies).
            base_ratio = base_dim.get("batch_speedup")
            if base_ratio is not None:
                floor = base_ratio * (1 - REGRESSION_TOLERANCE)
                if fresh_dim["batch_speedup"] < floor:
                    failures.append(
                        f"{where}: batch_speedup "
                        f"{fresh_dim['batch_speedup']} fell below "
                        f"{floor:.2f} (committed {base_ratio})"
                    )
            continue
        for label in ("warm", "cold", "stale"):
            fresh_entry = fresh_dim[label]
            base_entry = base_dim.get(label)
            if base_entry is None:
                continue  # older snapshots predate the stale variant
            where = f"{kind}/{dim_key}/{label}"
            floor = base_entry["speedup"] * (1 - REGRESSION_TOLERANCE)
            if fresh_entry["speedup"] < floor:
                failures.append(
                    f"{where}: speedup {fresh_entry['speedup']} fell below "
                    f"{floor:.2f} (committed {base_entry['speedup']})"
                )
            if same_machine:
                cached = fresh_entry["cached"]["median_us"]
                base_cached = base_entry["cached"]["median_us"]
                scaled = ""
                if "speed" in base_entry:
                    # Both medians at the probe's reference speed, so
                    # the machine's drift between runs cancels.
                    cached /= fresh_entry["speed"]
                    base_cached /= base_entry["speed"]
                    scaled = ", speed-scaled"
                ceiling = base_cached * (1 + REGRESSION_TOLERANCE)
                if cached > ceiling:
                    failures.append(
                        f"{where}: cached median {cached:.2f}us exceeds "
                        f"{ceiling:.2f}us (same machine as "
                        f"committed{scaled})"
                    )
    return failures


def _check_continuous(where: str, fresh_dim: Dict[str, Any],
                      base_dim: Dict[str, Any],
                      same_machine: bool) -> List[str]:
    """The growth ceiling, the portable ratio band and, on the same
    machine, the speed-scaled band on the manager's medians."""
    failures = []
    growth = fresh_dim["growth_q100_to_q10000"]
    if growth > CONTINUOUS_GROWTH_MAX:
        failures.append(
            f"{where}: manager cost grew {growth}x from Q=100 to "
            f"Q=10000 (max {CONTINUOUS_GROWTH_MAX}: dispatch must stay "
            f"sublinear in Q)"
        )
    for count in CONTINUOUS_QUERY_COUNTS:
        q_key = f"q{count}"
        fresh_entry = fresh_dim[q_key]
        base_entry = base_dim.get(q_key, {})
        for ratio_key in ("speedup", "batch_speedup"):
            base_ratio = base_entry.get(ratio_key)
            if base_ratio is None:
                continue
            floor = base_ratio * (1 - REGRESSION_TOLERANCE)
            if fresh_entry[ratio_key] < floor:
                failures.append(
                    f"{where}/{q_key}: {ratio_key} "
                    f"{fresh_entry[ratio_key]} fell below {floor:.2f} "
                    f"(committed {base_ratio})"
                )
        if not same_machine or "speed" not in base_entry:
            continue
        for variant in ("manager", "manager_batch"):
            # Both medians at the probe's reference speed, so the
            # machine's drift between the runs cancels.
            median = fresh_entry[variant]["median_us"] / fresh_entry["speed"]
            base = base_entry[variant]["median_us"] / base_entry["speed"]
            ceiling = base * (1 + REGRESSION_TOLERANCE)
            if median > ceiling:
                failures.append(
                    f"{where}/{q_key}: {variant} median {median:.2f}us "
                    f"exceeds {ceiling:.2f}us (same machine as committed, "
                    f"speed-scaled)"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the quick profile (CI smoke)")
    parser.add_argument("--out", type=Path, default=REPO_ROOT,
                        help="directory for the BENCH_*.json files "
                             "(default: repository root)")
    parser.add_argument("--check", action="store_true",
                        help="compare the quick profile against the "
                             "committed snapshots; non-zero exit on "
                             "regression")
    parser.add_argument("--only", action="append", metavar="KIND",
                        choices=("query", "ingest", "continuous"),
                        help="run only the given benchmark kind(s); "
                             "repeatable (default: all three)")
    args = parser.parse_args(argv)

    profile_names = ["quick"] if args.quick else ["full", "quick"]
    kinds = (
        tuple(args.only) if args.only
        else ("query", "ingest", "continuous")
    )
    args.out.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    for kind, filename in (("query", "BENCH_query.json"),
                           ("ingest", "BENCH_ingest.json"),
                           ("continuous", "BENCH_continuous.json")):
        if kind not in kinds:
            continue
        profiles = {name: run_profile(name, kind) for name in profile_names}
        if args.check:
            # Before the write: with ``--out`` at the repository root it
            # replaces the committed quick profile.
            failures += check_regression(
                profiles["quick"], REPO_ROOT / filename, kind
            )
        snapshot = merge_snapshot(args.out / filename, kind, profiles)
        (args.out / filename).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.out / filename}", file=sys.stderr)

    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    if "query" in kinds:
        snapshot = json.loads((args.out / "BENCH_query.json").read_text())
        for name, profile in snapshot["profiles"].items():
            for dim_key, entry in profile["results"].items():
                stale = entry.get("stale")
                print(
                    f"query/{name}/{dim_key}: warm x{entry['warm']['speedup']}"
                    f" cold x{entry['cold']['speedup']}"
                    + (f" stale x{stale['speedup']}" if stale else "")
                    + f" (|R_N|={entry['rn_size']})"
                )
    if "ingest" in kinds:
        snapshot = json.loads((args.out / "BENCH_ingest.json").read_text())
        for name, profile in snapshot["profiles"].items():
            for dim_key, entry in profile["results"].items():
                if "batch_speedup" not in entry:
                    continue  # pre-batch profile carried over by merge
                print(
                    f"ingest/{name}/{dim_key}:"
                    f" batch x{entry['batch_speedup']}"
                    f" (per_element {entry['per_element']['median_us']}us,"
                    f" batch {entry['batch']['median_us']}us)"
                )
    if "continuous" in kinds:
        snapshot = json.loads(
            (args.out / "BENCH_continuous.json").read_text()
        )
        for name, profile in snapshot["profiles"].items():
            for dim_key, entry in profile["results"].items():
                sweep = " ".join(
                    f"q{count} x{entry[f'q{count}']['speedup']}"
                    for count in CONTINUOUS_QUERY_COUNTS
                )
                print(
                    f"continuous/{name}/{dim_key}: {sweep} | manager cost "
                    f"x{entry['growth_q100_to_q10000']} across "
                    f"Q x{entry['query_count_growth']}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
