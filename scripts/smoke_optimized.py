#!/usr/bin/env python
"""Smoke pass for ``python -O`` deployments.

``-O`` strips ``assert`` statements, so any safety check the engines
rely on in production must be a real exception.  This script exercises
every engine's hot path — per-element and batched — under whatever
optimisation level it is launched with, and verifies that:

* per-element and batched ingestion agree on query results;
* the root-expiry structural check still fires as a catchable
  :class:`~repro.exceptions.StructureCorruptionError` (it was once a
  bare ``assert``, silently erased by ``-O``).

Exits non-zero on the first discrepancy.  Run as:

    PYTHONPATH=src python -O scripts/smoke_optimized.py [--sanitize MODE]

``--sanitize sampled`` (or ``full``) additionally runs every engine
with the invariant sanitizer attached, proving the runtime verifiers
themselves survive ``-O``.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro import (
    ContinuousQueryManager,
    KSkybandEngine,
    N1N2Skyline,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.core.element import StreamElement
from repro.exceptions import ShardFailureError, StructureCorruptionError
from repro.parallel import ShardedKSkyband, ShardedNofNSkyline


def check(condition: bool, message: str) -> None:
    # Deliberately not ``assert``: this script must also fail under -O.
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def points_stream(count: int, dim: int, seed: int):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(dim)) for _ in range(count)]


def smoke_nofn(sanitize: str, batch_chunk=None) -> None:
    points = points_stream(400, 3, seed=1)
    elem = NofNSkyline(dim=3, capacity=100, sanitize=sanitize)
    for p in points:
        elem.append(p)
    batched = NofNSkyline(
        dim=3, capacity=100, sanitize=sanitize, batch_chunk=batch_chunk
    )
    batched.append_many(points[:250])
    batched.append_many(points[250:])
    for n in (1, 50, 100):
        check(
            [e.kappa for e in batched.query(n)]
            == [e.kappa for e in elem.query(n)],
            f"NofN batched/per-element mismatch at n={n}",
        )
    batched.check_invariants()


def smoke_timewindow(sanitize: str, batch_chunk=None) -> None:
    points = points_stream(200, 2, seed=2)
    stamps = [0.5 * (i + 1) for i in range(len(points))]
    elem = TimeWindowSkyline(dim=2, horizon=20.0, sanitize=sanitize)
    for p, t in zip(points, stamps):
        elem.append(p, t)
    batched = TimeWindowSkyline(
        dim=2, horizon=20.0, sanitize=sanitize, batch_chunk=batch_chunk
    )
    batched.append_many(points, stamps)
    check(
        [e.kappa for e in batched.skyline()]
        == [e.kappa for e in elem.skyline()],
        "TimeWindow batched/per-element mismatch",
    )


def smoke_n1n2(sanitize: str, batch_chunk=None) -> None:
    points = points_stream(200, 2, seed=3)
    elem = N1N2Skyline(dim=2, capacity=60, sanitize=sanitize)
    for p in points:
        elem.append(p)
    batched = N1N2Skyline(
        dim=2, capacity=60, sanitize=sanitize, batch_chunk=batch_chunk
    )
    batched.append_many(points)
    for n1, n2 in ((1, 60), (10, 40), (60, 60)):
        check(
            [e.kappa for e in batched.query(n1, n2)]
            == [e.kappa for e in elem.query(n1, n2)],
            f"N1N2 batched/per-element mismatch at ({n1},{n2})",
        )
    batched.check_invariants()


def smoke_skyband(sanitize: str, batch_chunk=None) -> None:
    points = points_stream(200, 2, seed=4)
    elem = KSkybandEngine(dim=2, capacity=50, k=3, sanitize=sanitize)
    for p in points:
        elem.append(p)
    batched = KSkybandEngine(
        dim=2, capacity=50, k=3, sanitize=sanitize, batch_chunk=batch_chunk
    )
    batched.append_many(points)
    check(
        [e.kappa for e in batched.skyband()]
        == [e.kappa for e in elem.skyband()],
        "KSkyband batched/per-element mismatch",
    )
    batched.check_invariants()


def smoke_continuous(sanitize: str, batch_chunk=None) -> None:
    points = points_stream(150, 2, seed=5)
    manager = ContinuousQueryManager(
        NofNSkyline(
            dim=2, capacity=40, sanitize=sanitize, batch_chunk=batch_chunk
        ),
        sanitize=sanitize,
    )
    handle = manager.register(25)
    manager.append_many(points)
    reference = NofNSkyline(dim=2, capacity=40)
    for p in points:
        reference.append(p)
    check(
        handle.result_kappas() == [e.kappa for e in reference.query(25)],
        "continuous-query result mismatch after batched feed",
    )


def smoke_continuous_index(sanitize: str) -> None:
    """Indexed dispatch vs the seed per-handle loop under ``-O``.

    Two managers — ``query_index="on"`` (sanitized) and ``"off"`` —
    consume identical outcomes from one engine, fed part batched and
    part per-element, with a mixed distinct/duplicate window plan.
    Every handle pair must agree on results and ``changes``, every
    result must match a fresh reference query, and the group count
    must equal the number of distinct windows registered.
    """
    from repro.core.query_index import mixed_query_plan

    capacity = 60
    points = points_stream(220, 2, seed=7)
    engine = NofNSkyline(dim=2, capacity=capacity)
    for p in points[:80]:
        engine.append(p)
    indexed = ContinuousQueryManager(
        engine, sanitize=sanitize, query_index="on"
    )
    legacy = ContinuousQueryManager(engine, query_index="off")
    plan = mixed_query_plan(14, capacity)
    pairs = [(indexed.register(n), legacy.register(n)) for n in plan]
    stats = indexed.query_index_stats()
    check(
        stats is not None and stats["groups"] == len(set(plan)),
        "query index group count != distinct registered windows",
    )
    for start in range(80, 170, 9):  # batched, uneven chunks
        batch = engine.append_many(points[start:start + 9])
        indexed.process_batch(batch)
        legacy.process_batch(batch)
    for p in points[170:]:  # then per-element
        outcome = engine.append(p)
        indexed.process(outcome)
        legacy.process(outcome)
    for ih, lh in pairs:
        check(
            ih.result_kappas() == lh.result_kappas(),
            f"indexed/legacy result mismatch at n={ih.n}",
        )
        check(
            ih.changes == lh.changes,
            f"indexed/legacy changes mismatch at n={ih.n}",
        )
        check(
            ih.result_kappas() == [e.kappa for e in engine.query(ih.n)],
            f"indexed result != fresh query at n={ih.n}",
        )
    indexed.check_invariants()
    legacy.check_invariants()


def smoke_sharded(
    sanitize: str, shards: int, backends: tuple, batch_chunk=None
) -> None:
    points = points_stream(400, 2, seed=6)
    reference = NofNSkyline(dim=2, capacity=100)
    for p in points:
        reference.append(p)
    band_reference = KSkybandEngine(dim=2, capacity=100, k=2)
    for p in points:
        band_reference.append(p)
    for backend in backends:
        with ShardedNofNSkyline(
            dim=2, capacity=100, shards=shards, backend=backend,
            sanitize=sanitize, batch_chunk=batch_chunk,
        ) as router:
            router.append_many(points[:250])
            for p in points[250:]:
                router.append(p)
            for n in (1, 50, 100):
                check(
                    [e.kappa for e in router.query(n)]
                    == [e.kappa for e in reference.query(n)],
                    f"sharded/{backend} skyline mismatch at n={n}",
                )
            if backend == "process":
                # Three back-to-back queries with no ingest in between:
                # at least the later ones must have been answered from
                # the shared-memory replicas, not the command queues.
                stats = router.replica_stats()
                check(
                    stats is not None and stats["serves"] >= 1,
                    "process backend answered no query from the "
                    "shared-memory replicas",
                )
            router.check_invariants()
        with ShardedKSkyband(
            dim=2, capacity=100, k=2, shards=shards, backend=backend,
            sanitize=sanitize, batch_chunk=batch_chunk,
        ) as band:
            band.append_many(points)
            check(
                [e.kappa for e in band.skyband()]
                == [e.kappa for e in band_reference.skyband()],
                f"sharded/{backend} skyband mismatch",
            )
            band.check_invariants()


def smoke_shard_failure_surfaces(shards: int) -> None:
    """A crashed worker must raise ShardFailureError, never hang.

    With replicas on, a query may legally keep answering from the dead
    worker's last published snapshot, so the failure is forced to the
    surface with an explicit IPC barrier (``drain``) instead of a read.
    """
    router = ShardedNofNSkyline(
        dim=2, capacity=20, shards=shards, backend="process", timeout=30.0
    )
    try:
        router.append((0.5, 0.5))
        # Inject a wrong-dimension element straight into shard 0: the
        # worker's ingest raises, ships the traceback back, and exits.
        router._executor.ingest(0, StreamElement((0.1, 0.2, 0.3), 999))
        try:
            router.drain()
            router.query(10)
        except ShardFailureError:
            return
        check(False, "dead shard did not surface as ShardFailureError")
    finally:
        router.close()


def smoke_corruption_check_survives_dash_o(sanitize: str) -> None:
    engine = NofNSkyline(dim=2, capacity=2, sanitize=sanitize)
    engine.append((0.2, 0.8))
    engine.append((0.8, 0.2))
    engine._records[1].parent_kappa = 99  # simulate corruption
    try:
        engine.append((0.9, 0.9))  # forces expiry of the corrupted root
    except StructureCorruptionError:
        return
    check(False, "corrupted root expired without StructureCorruptionError "
                 "(check erased by -O?)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sanitize", default="off", choices=("off", "sampled", "full"),
        help="attach the invariant sanitizer to every engine",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="re-run the engine pass with small frozen-tree chunk sizes "
             "(batch_chunk in {1, 7}) so the batched maintenance "
             "pipeline crosses many chunk boundaries — bulk deletes, "
             "bulk inserts and staleness repair all fire repeatedly "
             "under whatever -O / sanitize mode is active",
    )
    parser.add_argument(
        "--continuous", action="store_true",
        help="additionally smoke the continuous-query dispatch index: "
             "a mixed distinct/duplicate window plan run through the "
             "indexed and the per-handle dispatch paths on identical "
             "outcomes, batched and per-element, with parity and "
             "invariant checks under whatever -O / sanitize mode is "
             "active",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="S",
        help="additionally smoke the sharded routers with S shards "
             "(0 = skip, the default)",
    )
    parser.add_argument(
        "--shard-backend", default="both",
        choices=("both", "serial", "process"),
        help="which sharded backend(s) to smoke when --shards > 0; the "
             "process backend also proves the shared-memory replica "
             "read path answered queries (default both)",
    )
    args = parser.parse_args()
    chunk_grid = (None, 1, 7) if args.batch else (None,)
    for chunk in chunk_grid:
        smoke_nofn(args.sanitize, chunk)
        smoke_timewindow(args.sanitize, chunk)
        smoke_n1n2(args.sanitize, chunk)
        smoke_skyband(args.sanitize, chunk)
        smoke_continuous(args.sanitize, chunk)
    smoke_corruption_check_survives_dash_o(args.sanitize)
    if args.continuous:
        smoke_continuous_index(args.sanitize)
    if args.shards:
        backends = (
            ("serial", "process") if args.shard_backend == "both"
            else (args.shard_backend,)
        )
        for chunk in chunk_grid:
            smoke_sharded(args.sanitize, args.shards, backends, chunk)
        if "process" in backends:
            smoke_shard_failure_surfaces(args.shards)
    mode = "optimized (-O)" if not __debug__ else "debug"
    sharded = (
        f", shards={args.shards} ({args.shard_backend})"
        if args.shards else ""
    )
    batch = ", batch-chunks={1, 7}" if args.batch else ""
    continuous = ", continuous-index" if args.continuous else ""
    print(f"smoke_optimized: all engines OK "
          f"[{mode}, sanitize={args.sanitize}{sharded}{batch}"
          f"{continuous}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
