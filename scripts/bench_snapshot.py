"""Committed benchmark snapshots for the query fast path.

Produces two JSON files (default: the repository root):

``BENCH_query.json``
    n-of-N query latency with the versioned stab cache on vs off, per
    dimensionality — *warm* (repeated stab points, answered from the
    memo) and *cold* (distinct stab points, answered from the flat
    snapshot) — with medians, p99s and speedup ratios.

``BENCH_ingest.json``
    Per-arrival maintenance latency on a full window, across two
    variants: the engine fed per-element (``soa``, after its
    struct-of-arrays dominance index) and through the frozen-tree
    ``append_many`` pipeline (``batch``).  ``batch_speedup`` is batched
    vs per-element ingest.

``BENCH_shard.json``
    Sharded-router throughput versus shard count relative to the single
    engine, plus n-of-N query latency measured *under concurrent
    ingest* (queries interleaved with the batched feed).  Three
    variants: ``serial``, ``process`` (command-queue IPC for every
    query), and ``process_replicas`` (the shared-memory zero-IPC read
    path, ``replicas="on"``/unbounded lag, where a query binary-searches
    the shards' published stab snapshots without touching the command
    queues).  The machine fingerprint records ``cpu_count`` alongside
    the swept shard counts, backends and replica modes: speedup numbers
    are meaningless without knowing how many cores produced them.

``BENCH_continuous.json``
    Per-arrival continuous-query maintenance cost versus registered
    query count Q in {10, 100, 1000, 10000} (a deterministic mixed
    distinct/duplicate window plan), comparing the seed per-handle
    O(Q) dispatch loop (``legacy``), the sorted query-index routing
    path (``indexed``) and the vectorised batch routing path
    (``indexed_batch``) — same engine outcomes drive every variant, so
    the speedups are machine-portable.  ``indexed_growth_q100_to_q10000``
    is the measured indexed-cost growth across a 100x query-count
    growth; sublinear dispatch keeps it far below 100.  This kind uses
    the ``independent`` distribution: the routing *dispatch* is what is
    measured, and the anticorrelated skylines' huge per-arrival change
    sets are shared work that would only mask the dispatch term.

Each file holds up to two profiles: ``full`` (the committed reference,
N = 100k) and ``quick`` (small, seconds-scale; what CI runs).  A run
only replaces the profile it executed, so ``--quick`` refreshes the
quick numbers without touching the committed full ones.

``--check`` compares the freshly measured quick profile against the
committed snapshot at the repository root and exits non-zero when a
speedup ratio regressed by more than ``REGRESSION_TOLERANCE``.  Ratios
are machine-portable; absolute latencies are compared only when the
machine fingerprint matches the committed one.

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py            # full + quick
    PYTHONPATH=src python scripts/bench_snapshot.py --quick
    PYTHONPATH=src python scripts/bench_snapshot.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.reporting import machine_fingerprint  # noqa: E402
from repro.core.continuous import ContinuousQueryManager  # noqa: E402
from repro.core.nofn import NofNSkyline  # noqa: E402
from repro.core.query_index import mixed_query_plan  # noqa: E402
from repro.parallel import ShardedNofNSkyline  # noqa: E402
from repro.streams import make_stream  # noqa: E402

SCHEMA = 1
DIMS = (2, 5)
DISTRIBUTION = "anticorrelated"  # largest |R_N|: the hardest query load
SEED = 7
#: A quick-profile speedup may fall this far below the committed one
#: before ``--check`` fails (ratio-of-ratios, so machine-portable).
REGRESSION_TOLERANCE = 0.25
#: Shard speedups are NOT machine-portable — they depend on core count
#: and scheduler load (on a 1-core box the process backend just
#: time-slices, so even a healthy run can land far below any floor).
#: ``--check`` therefore enforces this sanity floor only when the
#: machine has at least two cores; on fewer it logs a skip instead.
#: Below the floor signals a real pathology (quadratic merge, IPC
#: storm), not noise.
SHARD_SANITY_FLOOR = 0.25
#: With at least two real cores AND at least two shards, the process
#: backend must show an *actual* parallel ingest speedup, not merely
#: clear the sanity floor — workers spend most of their wall time in
#: R-tree maintenance, which parallelizes.  10% over the single engine
#: is deliberately conservative (IPC and merge overhead are real), but
#: falling below it on real cores means the parallel path regressed.
PARALLEL_INGEST_FLOOR = 1.1
#: Ingest variants.  ``batch`` feeds the same stream through
#: ``append_many`` (the frozen-tree chunk pipeline) instead of
#: per-element ``append`` — same interleaving, bulk maintenance.
INGEST_VARIANTS = ("soa", "batch")
#: ``batch_speedup`` floors per dimension: batched ingest must beat
#: per-element SoA ingest by these machine-portable ratios (both sides
#: measured in the same run).  The committed full profile shows >= 2x
#: at d=5; the quick floors sit below the measured quick ratios
#: (~3.2x at d=2, ~1.8x at d=5 at seed) so scheduler noise cannot
#: flake CI, while still catching the pipeline losing its advantage.
BATCH_INGEST_FLOORS = {"d2": 1.3, "d5": 1.5}
#: The zero-IPC read path must keep the process backend's query median
#: within this factor of the single engine's.  Unlike the speedup
#: floor this IS machine-portable — both sides are measured in the
#: same run — and it holds on any core count, because replica reads
#: never wait for a worker (at seed, the command-queue path sat at
#: ~3000x the single engine under a concurrent feed).
REPLICA_QUERY_MAX_RATIO = 20.0

PROFILES = {
    "full": {"window": 100_000, "warm_points": 16, "warm_repeats": 64,
             "cold_points": 2000, "ingest_ops": 2000},
    "quick": {"window": 5_000, "warm_points": 8, "warm_repeats": 32,
              "cold_points": 400, "ingest_ops": 400},
}

#: Shard counts swept by the ``shard`` kind (1 shows router overhead).
SHARD_COUNTS = (1, 2, 4)
SHARD_BACKENDS = ("serial", "process")
#: Router variants swept by the ``shard`` kind: constructor kwargs per
#: result key.  ``process`` pins ``replicas="off"`` so it keeps
#: measuring the command-queue path now that ``auto`` enables replicas.
SHARD_VARIANTS: Dict[str, Dict[str, Any]] = {
    "serial": {"backend": "serial"},
    "process": {"backend": "process", "replicas": "off"},
    "process_replicas": {
        "backend": "process", "replicas": "on", "replica_lag": None,
    },
}
SHARD_PROFILES = {
    "full": {"window": 100_000, "batch": 1000, "query_every": 10_000},
    "quick": {"window": 5_000, "batch": 500, "query_every": 1_000},
}

#: Registered-query counts swept by the ``continuous`` kind (mixed
#: distinct/duplicate windows via ``mixed_query_plan``).
CONTINUOUS_QUERY_COUNTS = (10, 100, 1000, 10000)
#: The continuous kind measures *dispatch*: how fast one arrival's
#: change records reach Q registered queries.  Anticorrelated streams
#: bury that term under enormous shared result churn, so this kind
#: feeds independent points instead.
CONTINUOUS_DISTRIBUTION = "independent"
#: Dim sweep for the continuous kind, again narrower than ``DIMS`` for
#: the same reason as the distribution: at d>=3 an independent-stream
#: skyline holds hundreds of members, so nearly every group's oldest
#: member sits at its window edge and fires a *genuine* trigger on
#: nearly every arrival.  That cascade work is identical on both sides
#: of the ratio, capping it near the dedupe factor regardless of how
#: fast dispatch is.  d=2 keeps result churn small (tens of members),
#: so the sweep isolates the O(Q) -> O(log Q + affected) term.
CONTINUOUS_DIMS = (2,)
#: At Q=1000 the indexed path must beat the seed per-handle loop by at
#: least this factor (both sides process identical outcomes in the same
#: run, so the ratio is machine-portable).  The measured quick ratio is
#: far higher; 5x is the committed acceptance floor.
CONTINUOUS_SPEEDUP_FLOOR = 5.0
#: Indexed per-arrival cost growth over the Q=100 -> Q=10000 sweep
#: (a 100x query-count growth).  Routing is O(log Q + affected), so the
#: measured growth must stay well below linear; 50 = half of linear is
#: a generous ceiling that still catches an accidental O(Q) path.
CONTINUOUS_GROWTH_MAX = 50.0
#: The window must be large relative to the distinct-group pool
#: (``CONTINUOUS_QUERY_COUNTS[-1] / 2`` groups at the top sweep point):
#: a group with window ``n`` fires its expiry trigger at a rate that
#: shrinks with ``n``, so packing thousands of groups into a few
#: hundred positions makes every arrival churn nearly every group —
#: shared work both sides pay equally that buries the dispatch term
#: this kind exists to measure.
CONTINUOUS_PROFILES = {
    "full": {"window": 20000, "arrivals": 400},
    "quick": {"window": 5000, "arrivals": 120},
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

    results: Dict[str, Any] = {"rn_size": engine.rn_size}
    for label, workload, warmup in (
        ("warm", warm_ns, warm_ns[: profile["warm_points"]]),
        ("cold", cold_ns, cold_ns[:1]),
    ):
        cache = engine._stab_cache
        time_each(engine.query, warmup)  # snapshot (and memo) priming
        cached = time_each(engine.query, workload)
        engine._stab_cache = None  # identical workload through the tree
        try:
            uncached = time_each(engine.query, workload)
        finally:
            engine._stab_cache = cache
        entry = {
            "cached": summarize(cached),
            "uncached": summarize(uncached),
        }
        entry["speedup"] = round(
            entry["uncached"]["median_us"]
            / max(entry["cached"]["median_us"], 1e-9),
            2,
        )
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
        results["soa"]["median_us"]
        / max(results["batch"]["median_us"], 1e-9),
        2,
    )
    return results


def _feed_with_queries(
    engine: Union[NofNSkyline, ShardedNofNSkyline],
    points: List[Any],
    batch: int,
    query_every: int,
    n: int,
) -> Tuple[float, List[int]]:
    """Feed ``points`` in batches with queries interleaved every
    ``query_every`` arrivals.  The wall clock stops only after an
    explicit drain barrier, because a final query no longer implies one:
    with replicas a query can legally answer from a published snapshot
    while the workers still chew on backlog.  Returns total wall
    seconds and the per-query latency samples."""
    query_ns: List[int] = []
    since_query = 0
    started = time.perf_counter()
    for lower in range(0, len(points), batch):
        engine.append_many(points[lower:lower + batch])
        since_query += batch
        if since_query >= query_every:
            since_query = 0
            tick = time.perf_counter_ns()
            engine.query(n)
            query_ns.append(time.perf_counter_ns() - tick)
    tick = time.perf_counter_ns()
    engine.query(n)
    query_ns.append(time.perf_counter_ns() - tick)
    drain = getattr(engine, "drain", None)
    if drain is not None:
        drain()  # throughput must include the shards' pending backlog
    return time.perf_counter() - started, query_ns


def bench_shard_dim(dim: int, profile: Dict[str, int]) -> Dict[str, Any]:
    window = profile["window"]
    points = list(make_stream(DISTRIBUTION, dim, window, SEED))
    n = max(2, window // 2)
    feed_args = (points, profile["batch"], profile["query_every"], n)

    single = NofNSkyline(dim=dim, capacity=window)
    wall, query_ns = _feed_with_queries(single, *feed_args)
    base_eps = window / wall
    results: Dict[str, Any] = {
        "single": {
            "throughput_eps": round(base_eps, 1),
            "query": summarize(query_ns),
        },
    }
    for variant, kwargs in SHARD_VARIANTS.items():
        per_count: Dict[str, Any] = {}
        for shards in SHARD_COUNTS:
            with ShardedNofNSkyline(
                dim=dim, capacity=window, shards=shards, **kwargs
            ) as router:
                wall, query_ns = _feed_with_queries(router, *feed_args)
            eps = window / wall
            per_count[f"s{shards}"] = {
                "throughput_eps": round(eps, 1),
                "speedup": round(eps / base_eps, 2),
                "query": summarize(query_ns),
            }
        results[variant] = per_count
    return results


def _prefilled_engine(dim: int, window: int, points: List[Any]) -> NofNSkyline:
    engine = NofNSkyline(dim=dim, capacity=window)
    for start in range(0, window, 1000):
        engine.append_many(points[start:start + 1000])
    return engine


def bench_continuous_dim(dim: int, profile: Dict[str, int]) -> Dict[str, Any]:
    window = profile["window"]
    prefill = list(
        make_stream(CONTINUOUS_DISTRIBUTION, dim, window, SEED)
    )
    arrivals = list(
        make_stream(CONTINUOUS_DISTRIBUTION, dim, profile["arrivals"], SEED + 3)
    )
    results: Dict[str, Any] = {}
    for count in CONTINUOUS_QUERY_COUNTS:
        plan = mixed_query_plan(count, window)
        # One engine drives both managers with identical outcomes:
        # every timed sample pair saw exactly the same change records.
        engine = _prefilled_engine(dim, window, prefill)
        indexed = ContinuousQueryManager(engine, query_index="on")
        legacy = ContinuousQueryManager(engine, query_index="off")
        for n in plan:
            indexed.register(n)
            legacy.register(n)
        indexed_ns: List[int] = []
        legacy_ns: List[int] = []
        for i, point in enumerate(arrivals):
            outcome = engine.append(point)
            # Alternate which manager processes first so cache-cold
            # penalties land on both sides equally.
            pair = [(indexed, indexed_ns), (legacy, legacy_ns)]
            if i % 2:
                pair.reverse()
            for manager, sink in pair:
                tick = time.perf_counter_ns()
                manager.process(outcome)
                sink.append(time.perf_counter_ns() - tick)
        # The batched routing path replays the same arrivals through
        # append_many chunks on its own engine (outcomes must reach the
        # manager exactly once, in order).
        batch_engine = _prefilled_engine(dim, window, prefill)
        batched = ContinuousQueryManager(batch_engine, query_index="on")
        for n in plan:
            batched.register(n)
        batch_ns: List[int] = []
        chunk = 50
        for lower in range(0, len(arrivals), chunk):
            piece = arrivals[lower:lower + chunk]
            outcome_batch = batch_engine.append_many(piece)
            tick = time.perf_counter_ns()
            batched.process_batch(outcome_batch)
            per_arrival = (time.perf_counter_ns() - tick) // len(piece)
            batch_ns += [per_arrival] * len(piece)
        stats = indexed.query_index_stats() or {}
        entry: Dict[str, Any] = {
            "groups": stats.get("groups", 0),
            "legacy": summarize(legacy_ns),
            "indexed": summarize(indexed_ns),
            "indexed_batch": summarize(batch_ns),
        }
        entry["speedup"] = round(
            entry["legacy"]["median_us"]
            / max(entry["indexed"]["median_us"], 1e-9),
            2,
        )
        entry["batch_speedup"] = round(
            entry["legacy"]["median_us"]
            / max(entry["indexed_batch"]["median_us"], 1e-9),
            2,
        )
        results[f"q{count}"] = entry
    top = CONTINUOUS_QUERY_COUNTS[-1]
    results["indexed_growth_q100_to_q10000"] = round(
        results[f"q{top}"]["indexed"]["median_us"]
        / max(results["q100"]["indexed"]["median_us"], 1e-9),
        2,
    )
    results["query_count_growth"] = round(top / 100, 1)
    return results


def run_profile(name: str, kind: str) -> Dict[str, Any]:
    if kind == "shard":
        profile = SHARD_PROFILES[name]
        bench = bench_shard_dim
        machine = machine_fingerprint(
            shards=",".join(str(s) for s in SHARD_COUNTS),
            backends=",".join(SHARD_BACKENDS),
            replicas=",".join(
                str(kwargs.get("replicas", "n/a"))
                for kwargs in SHARD_VARIANTS.values()
            ),
        )
    elif kind == "continuous":
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
    return {
        "config": dict(profile, distribution=distribution, seed=SEED),
        "machine": machine,
        "results": results,
    }


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
        if kind == "shard":
            # Unlike the cached/uncached ratios (both sides measured in
            # one process), shard speedups depend on core count and
            # scheduler load, so committed values make a flaky baseline.
            # Enforce only the sanity floor — and only with >= 2 cores,
            # where parallelism is physically possible.
            cores = os.cpu_count() or 1
            single_query = fresh_dim["single"]["query"]["median_us"]
            for variant in SHARD_VARIANTS:
                for s_key, fresh_entry in fresh_dim.get(variant, {}).items():
                    where = f"shard/{dim_key}/{variant}/{s_key}"
                    if cores < 2:
                        print(
                            f"SKIP: {where}: speedup floor not enforced "
                            f"(cpu_count={cores} < 2: the process backend "
                            f"can only time-slice)",
                            file=sys.stderr,
                        )
                    elif fresh_entry["speedup"] < SHARD_SANITY_FLOOR:
                        failures.append(
                            f"{where}: speedup "
                            f"{fresh_entry['speedup']} fell below the "
                            f"sanity floor {SHARD_SANITY_FLOOR}"
                        )
                    elif (
                        variant.startswith("process")
                        and int(s_key[1:]) >= 2
                        and fresh_entry["speedup"] < PARALLEL_INGEST_FLOOR
                    ):
                        # >= 2 cores and >= 2 shards: the process
                        # backend must actually parallelize ingest,
                        # not just survive the sanity floor.
                        failures.append(
                            f"{where}: speedup {fresh_entry['speedup']} "
                            f"fell below the parallel ingest floor "
                            f"{PARALLEL_INGEST_FLOOR} with {cores} cores"
                        )
                    if variant != "process_replicas":
                        continue
                    ratio = fresh_entry["query"]["median_us"] / max(
                        single_query, 1e-9
                    )
                    if ratio > REPLICA_QUERY_MAX_RATIO:
                        failures.append(
                            f"{where}: replica query median "
                            f"{fresh_entry['query']['median_us']}us is "
                            f"{ratio:.1f}x the single engine's "
                            f"{single_query}us (max "
                            f"{REPLICA_QUERY_MAX_RATIO}x)"
                        )
            continue
        if kind == "continuous":
            where = f"continuous/{dim_key}"
            # Absolute floors first: both sides of every ratio process
            # identical outcomes in one run, so they are machine-portable.
            q1000 = fresh_dim["q1000"]["speedup"]
            if q1000 < CONTINUOUS_SPEEDUP_FLOOR:
                failures.append(
                    f"{where}: indexed dispatch at Q=1000 is only "
                    f"{q1000}x the per-handle loop "
                    f"(floor {CONTINUOUS_SPEEDUP_FLOOR})"
                )
            growth = fresh_dim["indexed_growth_q100_to_q10000"]
            if growth > CONTINUOUS_GROWTH_MAX:
                failures.append(
                    f"{where}: indexed cost grew {growth}x from Q=100 "
                    f"to Q=10000 (max {CONTINUOUS_GROWTH_MAX}: dispatch "
                    f"must stay sublinear in Q)"
                )
            # Then the committed-ratio band.
            for count in CONTINUOUS_QUERY_COUNTS:
                q_key = f"q{count}"
                for ratio_key in ("speedup", "batch_speedup"):
                    base_ratio = base_dim.get(q_key, {}).get(ratio_key)
                    if base_ratio is None:
                        continue
                    floor = base_ratio * (1 - REGRESSION_TOLERANCE)
                    if fresh_dim[q_key][ratio_key] < floor:
                        failures.append(
                            f"{where}/{q_key}: {ratio_key} "
                            f"{fresh_dim[q_key][ratio_key]} fell below "
                            f"{floor:.2f} (committed {base_ratio})"
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
                    f"{fresh_dim['batch_speedup']}x per-element soa "
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
        for label in ("warm", "cold"):
            fresh_entry = fresh_dim[label]
            base_entry = base_dim[label]
            where = f"{kind}/{dim_key}/{label}"
            floor = base_entry["speedup"] * (1 - REGRESSION_TOLERANCE)
            if fresh_entry["speedup"] < floor:
                failures.append(
                    f"{where}: speedup {fresh_entry['speedup']} fell below "
                    f"{floor:.2f} (committed {base_entry['speedup']})"
                )
            if same_machine:
                cached = fresh_entry["cached"]["median_us"]
                ceiling = base_entry["cached"]["median_us"] * (
                    1 + REGRESSION_TOLERANCE
                )
                if cached > ceiling:
                    failures.append(
                        f"{where}: cached median {cached}us exceeds "
                        f"{ceiling:.2f}us (same machine as committed)"
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
                        choices=("query", "ingest", "shard", "continuous"),
                        help="run only the given benchmark kind(s); "
                             "repeatable (default: all four)")
    args = parser.parse_args(argv)

    profile_names = ["quick"] if args.quick else ["full", "quick"]
    kinds = (
        tuple(args.only) if args.only
        else ("query", "ingest", "shard", "continuous")
    )
    args.out.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    for kind, filename in (("query", "BENCH_query.json"),
                           ("ingest", "BENCH_ingest.json"),
                           ("shard", "BENCH_shard.json"),
                           ("continuous", "BENCH_continuous.json")):
        if kind not in kinds:
            continue
        profiles = {name: run_profile(name, kind) for name in profile_names}
        snapshot = merge_snapshot(args.out / filename, kind, profiles)
        (args.out / filename).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.out / filename}", file=sys.stderr)
        if args.check:
            failures += check_regression(
                profiles["quick"], REPO_ROOT / filename, kind
            )

    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    if "query" in kinds:
        snapshot = json.loads((args.out / "BENCH_query.json").read_text())
        for name, profile in snapshot["profiles"].items():
            for dim_key, entry in profile["results"].items():
                print(
                    f"query/{name}/{dim_key}: warm x{entry['warm']['speedup']}"
                    f" cold x{entry['cold']['speedup']}"
                    f" (|R_N|={entry['rn_size']})"
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
                    f" (soa {entry['soa']['median_us']}us,"
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
                    if f"q{count}" in entry
                )
                print(
                    f"continuous/{name}/{dim_key}: {sweep} | indexed cost "
                    f"x{entry['indexed_growth_q100_to_q10000']} across "
                    f"Q x{entry['query_count_growth']}"
                )
    if "shard" not in kinds:
        return 0
    shard_snapshot = json.loads((args.out / "BENCH_shard.json").read_text())
    cores = shard_snapshot["profiles"]["quick"]["machine"]["cpu_count"]
    for name, profile in shard_snapshot["profiles"].items():
        for dim_key, entry in profile["results"].items():
            speedups = " ".join(
                f"{variant}/{s_key} x{sub['speedup']}"
                for variant in SHARD_VARIANTS
                if variant in entry
                for s_key, sub in entry[variant].items()
            )
            print(f"shard/{name}/{dim_key} [{cores} cores]: {speedups}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
