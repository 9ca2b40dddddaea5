#!/usr/bin/env python
"""Smoke pass for ``python -O`` deployments.

``-O`` strips ``assert`` statements, so any safety check the engines
rely on in production must be a real exception.  This script exercises
every engine's one ingest path — ``append`` runs it as a chunk of one,
``append_many`` a chunk at a time — under whatever optimisation level
it is launched with, and verifies that:

* ``append`` and ``append_many`` agree on query results;
* the root-expiry structural check still fires as a catchable
  :class:`~repro.exceptions.StructureCorruptionError` (it was once a
  bare ``assert``, silently erased by ``-O``);
* the engines' dense dominance index rejects a kappa not above its
  newest row, a NaN coordinate (NaN is its tombstone) and an empty
  interval ``low >= label`` before any write (its bytes and version
  unchanged), and its ``dense-mirror`` check, and the engine's check
  of each row's interval ``low``, still fire;
* every engine rejects a wrong-dimension, NaN or empty point before
  any state changes;
* restoring an (n1,n2) snapshot rejects a window with a hole, a record
  beyond ``seen_so_far`` and out-of-range ancestors, and restoring a
  legacy sharded snapshot rejects unsorted kappas and a ``seen_so_far``
  below the newest record;
* a continuous-query manager's rows are still checked
  (``continuous-rows``), and restoring a continuous snapshot rejects a
  ``next_id`` that collides with a live query id.

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
from repro.core.persistence import SnapshotError, dumps, restore, snapshot
from repro.exceptions import (
    InvalidIntervalError,
    ReproError,
    StructureCorruptionError,
)


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


def smoke_continuous_handles(sanitize: str) -> None:
    """Every continuous handle against a fresh stab under ``-O``.

    One manager (sanitized as asked) over a prefilled engine, with a
    mixed distinct/duplicate window plan, fed part batched through
    ``process_batch`` and part per-element through ``process``.  After
    each call every handle must equal a fresh ``engine.query(n)``, and
    a handle that leaves mid-stream must keep its last result.
    """
    from repro.core.query_index import mixed_query_plan

    capacity = 60
    points = points_stream(220, 2, seed=7)
    engine = NofNSkyline(dim=2, capacity=capacity)
    for p in points[:80]:
        engine.append(p)
    manager = ContinuousQueryManager(engine, sanitize=sanitize)
    handles = [manager.register(n) for n in mixed_query_plan(14, capacity)]
    leaver = handles.pop()

    def check_handles(where: str) -> None:
        for handle in handles:
            check(
                handle.result_kappas()
                == [e.kappa for e in engine.query(handle.n)],
                f"continuous result != fresh query at n={handle.n} "
                f"after {where}",
            )

    for start in range(80, 170, 9):  # batched, uneven chunks
        manager.process_batch(engine.append_many(points[start:start + 9]))
        check_handles(f"batch at {start}")
        if start == 116:
            frozen = (leaver.result_kappas(), leaver.changes)
            manager.unregister(leaver)
    for p in points[170:]:  # then per-element
        manager.process(engine.append(p))
        check_handles(f"arrival {engine.seen_so_far}")
    check(
        (leaver.result_kappas(), leaver.changes) == frozen,
        "an unregistered handle kept changing",
    )
    manager.check_invariants()


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


def smoke_dense_index_guards_survive_dash_o(sanitize: str) -> None:
    engine = NofNSkyline(dim=2, capacity=8, sanitize=sanitize)
    for point in points_stream(20, 2, seed=6):
        engine.append(point)
    index = engine._rtree

    def state():
        used = len(index._rows)
        lows, labels, _ = index.intervals()
        return (len(index), used, index._points[:, :used].tobytes(),
                lows.tobytes(), labels.tobytes(), index.version)

    before = state()
    fresh = engine.seen_so_far + 1
    for point, kappa, low, error, guard in (
        ((0.5, 0.5), 0, 0.0, ValueError, "a kappa not above the newest row"),
        ((float("nan"), 0.5), fresh, 0.0, ValueError, "a NaN coordinate"),
        ((0.5, 0.5), fresh, float(fresh), InvalidIntervalError,
         "an empty interval (low >= label)"),
    ):
        try:
            index.insert(point, kappa, low=low)
        except error:
            pass
        else:
            check(False, f"dense index accepted {guard} "
                         "(guard erased by -O?)")
        check(state() == before,
              f"rejected insert of {guard} changed the dense index")
    engine.check_invariants()

    def expect_corruption(what: str, invariant=None) -> None:
        try:
            engine.check_invariants()
        except StructureCorruptionError as exc:
            report = exc.report
            check(invariant is None or (
                report is not None and report.invariant == invariant),
                f"{what} raised {exc!r}, not {invariant}")
            return
        check(False, f"{what} passed check_invariants "
                     "(check erased by -O?)")

    # The newest row's low moved into the window, off its parent's label
    # (and off a root's 0), its interval still non-empty.
    row = index._entries[engine.seen_so_far].row
    saved = index._lows[row]
    index._lows[row] = engine.seen_so_far - 0.5
    expect_corruption("tampered interval low", "interval-encoding")
    index._lows[row] = saved
    engine.check_invariants()
    column = next(index.entries()).row
    index._points[0, column] += 0.5  # the matrix disagrees with its entry
    expect_corruption("tampered dense index", "dense-mirror")


def smoke_rejected_append_changes_nothing(sanitize: str) -> None:
    engines = (
        NofNSkyline(dim=2, capacity=3, sanitize=sanitize),
        TimeWindowSkyline(dim=2, horizon=3.0, sanitize=sanitize),
        KSkybandEngine(dim=2, capacity=3, k=2, sanitize=sanitize),
        N1N2Skyline(dim=2, capacity=3, sanitize=sanitize),
    )
    points = points_stream(7, 2, seed=7)

    def feed(engine, point, arrival):
        if isinstance(engine, TimeWindowSkyline):
            engine.append(point, float(arrival))
        else:
            engine.append(point)

    def feed_many(engine, batch, arrival):
        if isinstance(engine, TimeWindowSkyline):
            engine.append_many(
                batch, [float(arrival + i) for i in range(len(batch))]
            )
        else:
            engine.append_many(batch)

    def state(engine):
        if isinstance(engine, KSkybandEngine):  # no snapshot support
            return (engine.seen_so_far, len(engine),
                    [e.kappa for e in engine.skyband()])
        return dumps(engine)

    nan = float("nan")
    for engine in engines:
        name = type(engine).__name__
        for arrival, point in enumerate(points[:3], start=1):
            feed(engine, point, arrival)
        before = state(engine)
        rejected = [
            (f"the point {bad!r}", lambda e, bad=bad: feed(e, bad, 4))
            for bad in ((0.5, 0.5, 0.5), (nan, 0.5), ())
        ] + [
            (f"a batch holding {bad!r} mid-batch",
             lambda e, bad=bad: feed_many(e, [points[3], bad, points[4]], 4))
            for bad in ((0.5, 0.5, 0.5), (nan, 0.5))
        ]
        if isinstance(engine, TimeWindowSkyline):
            rejected += [
                ("a NaN timestamp", lambda e: e.append(points[3], nan)),
                ("a NaN timestamp mid-batch",
                 lambda e: e.append_many(points[3:6], [4.0, nan, 6.0])),
            ]
        for what, call in rejected:
            try:
                call(engine)
            except (ValueError, ReproError):
                pass
            else:
                check(False, f"{name} accepted {what}")
            check(state(engine) == before,
                  f"{name}: rejecting {what} changed the engine "
                  "(guard erased by -O?)")
        for arrival, point in enumerate(points[3:], start=4):
            feed(engine, point, arrival)
        engine.check_invariants()


def smoke_n1n2_restore_checks_survive_dash_o(sanitize: str) -> None:
    engine = N1N2Skyline(dim=2, capacity=5, sanitize=sanitize)
    for point in points_stream(12, 2, seed=8):
        engine.append(point)
    restore(snapshot(engine)).check_invariants()

    def hole(snap):
        snap["records"].pop(2)

    def beyond_seen(snap):
        snap["records"].append(dict(snap["records"][-1], kappa=40))

    def ancestor_not_older(snap):
        snap["records"][-1]["a"] = snap["records"][-1]["kappa"]

    def backward_ancestor_beyond_seen(snap):
        snap["records"][0].update(b=snap["seen_so_far"] + 1, in_rn=False)

    for defect in (hole, beyond_seen, ancestor_not_older,
                   backward_ancestor_beyond_seen):
        snap = snapshot(engine)
        defect(snap)
        try:
            restore(snap)
        except SnapshotError:
            continue
        check(False, f"n1n2 restore accepted a snapshot with the defect "
                     f"{defect.__name__} (check erased by -O?)")


def smoke_sharded_restore_checks_survive_dash_o(sanitize: str) -> None:
    """A legacy sharded snapshot replays into one engine; its two input
    checks must still raise under ``-O``."""
    points = points_stream(30, 2, seed=10)
    reference = NofNSkyline(dim=2, capacity=8)
    for point in points:
        reference.append(point)
    records = [
        {"kappa": e.kappa, "values": list(e.values), "payload": None}
        for e in reference.non_redundant()
    ]
    snap = {
        "format": 1, "kind": "sharded-nofn", "dim": 2, "capacity": 8,
        "seen_so_far": 30, "records": records,
    }
    restored = restore(snap, sanitize=sanitize)
    restored.check_invariants()
    check(
        [e.kappa for e in restored.skyline()]
        == [e.kappa for e in reference.skyline()],
        "sharded snapshot replay disagrees with the engine it came from",
    )

    def unsorted(snap):
        snap["records"] = snap["records"][::-1]

    def seen_below_newest(snap):
        snap["seen_so_far"] = snap["records"][-1]["kappa"] - 1

    for defect in (unsorted, seen_below_newest):
        broken = dict(snap, records=list(records))
        defect(broken)
        try:
            restore(broken)
        except SnapshotError:
            continue
        check(False, f"sharded restore accepted a snapshot with the "
                     f"defect {defect.__name__} (check erased by -O?)")


def fed_continuous_manager(sanitize: str) -> ContinuousQueryManager:
    """Two registered windows (5 and 12) over ``N = 20``, fed 40 points."""
    manager = ContinuousQueryManager(
        NofNSkyline(dim=2, capacity=20), sanitize=sanitize
    )
    for n in (5, 12):
        manager.register(n)
    for point in points_stream(40, 2, seed=9):
        manager.append(point)
    manager.check_invariants()
    return manager


def smoke_row_checks_survive_dash_o(sanitize: str) -> None:
    def drop_oldest_row(manager: ContinuousQueryManager) -> None:
        manager._kappa = manager._kappa[1:]
        manager._parent = manager._parent[1:]
        manager._elements = manager._elements[1:]

    def parent_inside_window(manager: ContinuousQueryManager) -> None:
        kappas = manager._kappa.tolist()
        parent = manager.engine._records[kappas[-1]].parent_kappa
        manager._parent[-1] = next(k for k in kappas[:-1] if k != parent)

    for defect in (drop_oldest_row, parent_inside_window):
        manager = fed_continuous_manager(sanitize)
        defect(manager)
        try:
            manager.check_invariants()
        except StructureCorruptionError as exc:
            report = exc.report
            check(
                report is not None
                and report.invariant == "continuous-rows",
                f"{defect.__name__} was reported as "
                f"{None if report is None else report.invariant}, "
                f"expected continuous-rows",
            )
            continue
        check(False, f"{defect.__name__} passed check_invariants() "
                     f"(check erased by -O?)")


def smoke_continuous_restore_checks_survive_dash_o(sanitize: str) -> None:
    snap = snapshot(fed_continuous_manager(sanitize))
    snap["next_id"] = 1
    try:
        restore(snap)
    except SnapshotError:
        return
    check(False, "continuous restore accepted a next_id that collides "
                 "with a live query id (check erased by -O?)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sanitize", default="off", choices=("off", "sampled", "full"),
        help="attach the invariant sanitizer to every engine",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="re-run the engine pass with a small frozen-tree chunk "
             "size (batch_chunk=7) so the batched maintenance pipeline "
             "crosses many chunk boundaries — bulk deletes, bulk "
             "inserts and staleness repair all fire repeatedly under "
             "whatever -O / sanitize mode is active (every append "
             "already runs chunks of one)",
    )
    parser.add_argument(
        "--continuous", action="store_true",
        help="additionally smoke the continuous queries: a mixed "
             "distinct/duplicate window plan fed batched and "
             "per-element, every handle checked against a fresh stab "
             "after each call, under whatever -O / sanitize mode is "
             "active",
    )
    args = parser.parse_args()
    chunk_grid = (None, 7) if args.batch else (None,)
    for chunk in chunk_grid:
        smoke_nofn(args.sanitize, chunk)
        smoke_timewindow(args.sanitize, chunk)
        smoke_n1n2(args.sanitize, chunk)
        smoke_skyband(args.sanitize, chunk)
        smoke_continuous(args.sanitize, chunk)
    smoke_corruption_check_survives_dash_o(args.sanitize)
    smoke_dense_index_guards_survive_dash_o(args.sanitize)
    smoke_rejected_append_changes_nothing(args.sanitize)
    smoke_n1n2_restore_checks_survive_dash_o(args.sanitize)
    smoke_sharded_restore_checks_survive_dash_o(args.sanitize)
    smoke_row_checks_survive_dash_o(args.sanitize)
    smoke_continuous_restore_checks_survive_dash_o(args.sanitize)
    if args.continuous:
        smoke_continuous_handles(args.sanitize)
    mode = "optimized (-O)" if not __debug__ else "debug"
    batch = ", batch-chunk=7" if args.batch else ""
    continuous = ", continuous-handles" if args.continuous else ""
    print(f"smoke_optimized: all engines OK "
          f"[{mode}, sanitize={args.sanitize}{batch}"
          f"{continuous}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
