"""Invariant verifiers for every engine in the library.

Each ``verify_*`` function re-derives, from first principles, the
properties the paper proves about its engine's state and raises
:class:`~repro.exceptions.StructureCorruptionError` (carrying a
:class:`~repro.exceptions.SanitizerReport`) on the first violation.
Nothing here uses ``assert``, so every check survives ``python -O``.

The invariant catalogue (the ``invariant`` field of the report):

================== ====================================================
``counts``          cross-structure sizes, label/window membership
``non-redundancy``  Theorem 1: no ``R_N`` element has a younger
                    in-window weak dominator inside ``R_N``
``forest``          the critical-dominance graph is an acyclic forest
                    with consistent parent/child links (acyclicity
                    follows from every parent being strictly older)
``critical-parent`` the recorded parent is a dominator and is the
                    *youngest* older dominator within ``R_N``
``interval-encoding`` each element's interval is exactly
                    ``(label(parent), label(e)]`` (Theorem 3) /
                    ``(kappa(a_e), kappa(e)]`` (section 4) /
                    ``(threshold, kappa(e)]`` (k-skyband)
``stabbing-bruteforce`` stabbing-query answers equal a brute-force
                    skyline/skyband of the window suffix
``cbc-ancestor``    Theorem 4's ``a_e``/``b_e`` ancestors match a
                    brute-force recomputation over ``P_N``
``band-count``      k-skyband younger-dominator counters are in range
                    and consistent with the retained set
``trigger-heap``    a continuous query's min-heap mirrors its result
``graph-mirror``    the manager's dominance-forest mirror matches the
                    engine's graph (checked only when in sync)
``result-sync``     a continuous result equals the stabbing answer
``continuous-index`` the query-index axis is sorted and aligned, group
                    refcounts match the handle registry, no trigger
                    entry is scheduled later than its group's real due
                    time, and every group's member set equals a
                    brute-force per-window replay over the manager's
                    dominance-forest mirror (valid mid-batch)
``stab-cache``      the versioned query cache's answer at each tested
                    stab point equals a fresh stab of the live interval
                    tree (checked whenever a cache is attached)
``shard-merge``     a sharded router's fan-out/merge answer equals a
                    brute-force oracle over the union of the shards'
                    retained in-window elements (which provably equals
                    the single-engine answer; see
                    :mod:`repro.parallel.merge`)
``shard-replica``   a shard's shared-memory replica
                    (:mod:`repro.parallel.replicas`) answers stabs and
                    retained suffixes identically to its authoritative
                    worker engine at the same published version
================== ====================================================

plus the structure-level invariants raised by the structures themselves
(``rbtree-*``, ``max-high-augmentation``, ``labelset-*``, ``heap-*``,
``rtree-*`` — including ``rtree-kernel-cache``, the SoA index's pooled
coordinate/kappa matrix no longer mirroring its entry objects).

Import discipline
-----------------
The engines call these verifiers (their ``check_invariants`` delegate
here), so at module level this file may only import *leaf* modules:
:mod:`repro.core.dominance`, :mod:`repro.core.element` and
:mod:`repro.exceptions`.  Engine types appear only under
``TYPE_CHECKING`` and in docstrings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.dominance import dominates, weakly_dominates
from repro.core.element import StreamElement
from repro.exceptions import corruption

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.continuous import ContinuousQueryManager
    from repro.core.n1n2 import N1N2Skyline
    from repro.core.nofn import NofNSkyline
    from repro.core.skyband import KSkybandEngine
    from repro.core.timewindow import TimeWindowSkyline
    from repro.parallel.sharded import _ShardedRouter

__all__ = [
    "verify_continuous",
    "verify_n1n2",
    "verify_nofn",
    "verify_shard_replicas",
    "verify_sharded",
    "verify_skyband",
    "verify_timewindow",
]


def _beats(f: StreamElement, e: StreamElement) -> bool:
    """Whether ``f`` excludes ``e`` from a skyline/skyband under the
    library's tie convention (DESIGN.md §7): strict dominance, or a
    *younger* exact duplicate."""
    return weakly_dominates(f.values, e.values) and (
        f.kappa > e.kappa or dominates(f.values, e.values)
    )


def _brute_skyline(elements: Sequence[StreamElement]) -> List[int]:
    """Kappas of the skyline of ``elements``, ascending (O(n^2) scan)."""
    return sorted(
        e.kappa
        for e in elements
        if not any(_beats(f, e) for f in elements if f is not e)
    )


def _check_stab_cache_at(
    cache: object, stab: float, expected: List[int], name: str
) -> None:
    """Compare a :class:`~repro.accel.stab_cache.StabCache` answer at
    ``stab`` against ``expected`` kappas from the live interval tree
    (``cache`` may be ``None`` when caching is disabled)."""
    if cache is None:
        return
    cached = sorted(r.element.kappa for r in cache.stab(stab))  # type: ignore[attr-defined]
    if cached != expected:
        raise corruption(
            "engine",
            "stab-cache",
            f"query cache stab at {stab} reported kappas {cached}, the "
            f"live interval tree gives {expected}",
            engine=name,
        )


# ----------------------------------------------------------------------
# n-of-N family (NofNSkyline / TimeWindowSkyline)
# ----------------------------------------------------------------------


def verify_nofn(engine: "NofNSkyline") -> None:
    """Verify every documented invariant of an n-of-N engine.

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(engine).__name__
    _check_nofn_state(engine, name)
    _check_nofn_stabbing(engine, name)


def verify_timewindow(engine: "TimeWindowSkyline") -> None:
    """Verify a time-window engine: the n-of-N structural invariants
    plus time-based stabbing answers.

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(engine).__name__
    _check_nofn_state(engine, name)
    _check_timewindow_stabbing(engine, name)


def _check_nofn_state(engine: "NofNSkyline", name: str) -> None:
    """Counts, structure health, dominance forest, interval encoding
    and Theorem-1 non-redundancy — shared by both label schemes."""
    records = engine._records
    sizes = (
        len(records),
        len(engine._labels),
        len(engine._rtree),
        len(engine._intervals),
    )
    if len(set(sizes)) != 1:
        raise corruption(
            "engine",
            "counts",
            f"structure sizes diverged: records={sizes[0]}, "
            f"labels={sizes[1]}, rtree={sizes[2]}, intervals={sizes[3]}",
            engine=name,
        )
    engine._rtree.check_invariants()
    engine._intervals.check_invariants()
    engine._labels.check_invariants()

    if engine._labels:
        oldest_label, _ = engine._labels.oldest()
        youngest_label, _ = engine._labels.youngest()
        threshold = engine._window_start(youngest_label)
        if oldest_label < threshold:
            raise corruption(
                "engine",
                "counts",
                f"retained label {oldest_label} precedes the window "
                f"start {threshold}",
                engine=name,
            )

    ordered = sorted(records)
    for kappa in ordered:
        record = records[kappa]
        if record.element.kappa != kappa:
            raise corruption(
                "engine",
                "counts",
                f"record keyed {kappa} holds element "
                f"kappa={record.element.kappa}",
                kappas=(kappa,),
                engine=name,
            )
        if record.handle is None:
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa} of R_N has no interval",
                kappas=(kappa,),
                engine=name,
            )
        interval = record.handle.interval
        if interval.high != record.label:
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa}: interval high {interval.high} != "
                f"label {record.label}",
                kappas=(kappa,),
                engine=name,
            )
        if record.parent_kappa == 0:
            if interval.low != 0.0:
                raise corruption(
                    "engine",
                    "interval-encoding",
                    f"root {kappa}: interval low {interval.low} != 0",
                    kappas=(kappa,),
                    engine=name,
                )
        else:
            parent = records.get(record.parent_kappa)
            if parent is None:
                raise corruption(
                    "engine",
                    "forest",
                    f"element {kappa}: critical parent "
                    f"{record.parent_kappa} is missing from R_N",
                    kappas=(kappa, record.parent_kappa),
                    engine=name,
                )
            if parent.element.kappa >= kappa:
                raise corruption(
                    "engine",
                    "forest",
                    f"element {kappa}: critical parent "
                    f"{record.parent_kappa} is not older",
                    kappas=(kappa, record.parent_kappa),
                    engine=name,
                )
            if kappa not in parent.children:
                raise corruption(
                    "engine",
                    "forest",
                    f"element {kappa} is missing from the child set of "
                    f"its parent {record.parent_kappa}",
                    kappas=(kappa, record.parent_kappa),
                    engine=name,
                )
            if interval.low != parent.label:
                raise corruption(
                    "engine",
                    "interval-encoding",
                    f"element {kappa}: interval low {interval.low} != "
                    f"parent label {parent.label}",
                    kappas=(kappa, record.parent_kappa),
                    engine=name,
                )
            if not weakly_dominates(
                parent.element.values, record.element.values
            ):
                raise corruption(
                    "engine",
                    "critical-parent",
                    f"recorded parent {record.parent_kappa} does not "
                    f"dominate element {kappa}",
                    kappas=(kappa, record.parent_kappa),
                    engine=name,
                )
        for child_kappa in record.children:
            child = records.get(child_kappa)
            if child is None or child.parent_kappa != kappa:
                raise corruption(
                    "engine",
                    "forest",
                    f"stale child link {kappa} -> {child_kappa}",
                    kappas=(kappa, child_kappa),
                    engine=name,
                )

    # Theorem 1 (non-redundancy) and the *youngest*-dominator property
    # of the critical parent, both O(|R_N|^2).
    for i, kappa in enumerate(ordered):
        record = records[kappa]
        for other_kappa in ordered[i + 1 :]:
            other = records[other_kappa]
            if weakly_dominates(other.element.values, record.element.values):
                raise corruption(
                    "engine",
                    "non-redundancy",
                    f"element {kappa} is weakly dominated by the younger "
                    f"retained element {other_kappa} (Theorem 1)",
                    kappas=(kappa, other_kappa),
                    engine=name,
                )
        for older_kappa in ordered[:i]:
            if older_kappa <= record.parent_kappa:
                continue
            older = records[older_kappa]
            if weakly_dominates(older.element.values, record.element.values):
                raise corruption(
                    "engine",
                    "critical-parent",
                    f"element {kappa}: dominator {older_kappa} is younger "
                    f"than the recorded critical parent "
                    f"{record.parent_kappa}",
                    kappas=(kappa, older_kappa, record.parent_kappa),
                    engine=name,
                )


def _check_nofn_stabbing(engine: "NofNSkyline", name: str) -> None:
    """Theorem 3 end-to-end: for several ``n``, the stabbing answer must
    equal a brute-force skyline of the retained window suffix."""
    m = engine._m
    if m == 0:
        return
    for n in sorted({1, max(1, engine.capacity // 2), engine.capacity}):
        stab = max(1, m - n + 1)
        got = sorted(r.element.kappa for r in engine._intervals.stab(stab))
        suffix = [
            record.element
            for record in engine._records.values()
            if record.element.kappa >= stab
        ]
        expected = _brute_skyline(suffix)
        if got != expected:
            raise corruption(
                "engine",
                "stabbing-bruteforce",
                f"stab at {stab} (n={n}) reported kappas {got}, brute "
                f"force over R_N gives {expected}",
                engine=name,
            )
        _check_stab_cache_at(engine._stab_cache, stab, got, name)


def _check_timewindow_stabbing(
    engine: "TimeWindowSkyline", name: str
) -> None:
    """Time-based Theorem 3: stabbing at ``now - tau`` must equal a
    brute-force skyline of the retained elements stamped within the
    closed window ``[now - tau, now]``."""
    if not engine._labels:
        return
    oldest_label, _ = engine._labels.oldest()
    for duration in (engine.horizon / 2, engine.horizon):
        stab = engine._now - duration
        if stab <= 0:
            stab = oldest_label
        got = sorted(r.element.kappa for r in engine._intervals.stab(stab))
        suffix = [
            record.element
            for record in engine._records.values()
            if record.label >= stab
        ]
        expected = _brute_skyline(suffix)
        if got != expected:
            raise corruption(
                "engine",
                "stabbing-bruteforce",
                f"stab at {stab} (last {duration} time units) reported "
                f"kappas {got}, brute force over R_N gives {expected}",
                engine=name,
            )
        _check_stab_cache_at(engine._stab_cache, stab, got, name)


# ----------------------------------------------------------------------
# (n1,n2)-of-N
# ----------------------------------------------------------------------


def verify_n1n2(engine: "N1N2Skyline") -> None:
    """Verify every documented invariant of an (n1,n2)-of-N engine.

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(engine).__name__
    records = engine._records
    expected_window = min(engine._m, engine.capacity)
    if len(records) != expected_window:
        raise corruption(
            "engine",
            "counts",
            f"|P_N| is {len(records)}, expected {expected_window}",
            engine=name,
        )
    if len(engine._live) + len(engine._superseded) != expected_window:
        raise corruption(
            "engine",
            "counts",
            f"interval trees hold {len(engine._live)} + "
            f"{len(engine._superseded)} intervals for a window of "
            f"{expected_window}",
            engine=name,
        )
    if len(engine._rtree) != len(engine._live):
        raise corruption(
            "engine",
            "counts",
            f"R-tree holds {len(engine._rtree)} entries but I_RN holds "
            f"{len(engine._live)}",
            engine=name,
        )
    engine._rtree.check_invariants()
    engine._live.check_invariants()
    engine._superseded.check_invariants()

    for kappa, record in records.items():
        if record.element.kappa != kappa:
            raise corruption(
                "engine",
                "counts",
                f"record keyed {kappa} holds element "
                f"kappa={record.element.kappa}",
                kappas=(kappa,),
                engine=name,
            )
        if record.handle is None:
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa} of P_N has no interval",
                kappas=(kappa,),
                engine=name,
            )
        interval = record.handle.interval
        if interval.high != float(kappa) or interval.low != float(
            record.a_kappa
        ):
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa}: interval ({interval.low}, "
                f"{interval.high}] != ({float(record.a_kappa)}, "
                f"{float(kappa)}]",
                kappas=(kappa,),
                engine=name,
            )
        if record.a_kappa:
            parent = records.get(record.a_kappa)
            if parent is None or parent.element.kappa >= kappa:
                raise corruption(
                    "engine",
                    "forest",
                    f"element {kappa}: critical ancestor "
                    f"{record.a_kappa} is missing or not older",
                    kappas=(kappa, record.a_kappa),
                    engine=name,
                )
            if kappa not in parent.dependents:
                raise corruption(
                    "engine",
                    "forest",
                    f"element {kappa} is missing from the dependents of "
                    f"its ancestor {record.a_kappa}",
                    kappas=(kappa, record.a_kappa),
                    engine=name,
                )
        if record.in_rn:
            if record.b_kappa is not None:
                raise corruption(
                    "engine",
                    "cbc-ancestor",
                    f"element {kappa} is in R_N but has a finite "
                    f"backward ancestor {record.b_kappa}",
                    kappas=(kappa,),
                    engine=name,
                )
            if kappa not in engine._rtree:
                raise corruption(
                    "engine",
                    "counts",
                    f"live element {kappa} is missing from the R-tree",
                    kappas=(kappa,),
                    engine=name,
                )
        for dep_kappa in record.dependents:
            dep = records.get(dep_kappa)
            if dep is None or dep.a_kappa != kappa:
                raise corruption(
                    "engine",
                    "forest",
                    f"stale dependent link {kappa} -> {dep_kappa}",
                    kappas=(kappa, dep_kappa),
                    engine=name,
                )

    # Theorem 4's ancestors, recomputed by brute force over P_N (which
    # this engine retains in full).  ``a_e`` uses *strict* dominance: an
    # older exact duplicate is demoted by the newcomer before the
    # ancestor search runs, so it can never be recorded (DESIGN.md §7).
    # ``b_e`` uses *weak* dominance: a younger duplicate does demote.
    elements = [record.element for record in records.values()]
    for kappa, record in records.items():
        point = record.element.values
        brute_a = 0
        brute_b = None
        for other in elements:
            if other.kappa < kappa:
                if dominates(other.values, point):
                    brute_a = max(brute_a, other.kappa)
            elif other.kappa > kappa and weakly_dominates(
                other.values, point
            ):
                if brute_b is None or other.kappa < brute_b:
                    brute_b = other.kappa
        if brute_a != record.a_kappa:
            raise corruption(
                "engine",
                "cbc-ancestor",
                f"element {kappa}: recorded a_e={record.a_kappa}, brute "
                f"force gives {brute_a} (Equation 1)",
                kappas=(kappa, record.a_kappa, brute_a),
                engine=name,
            )
        if brute_b != record.b_kappa:
            raise corruption(
                "engine",
                "cbc-ancestor",
                f"element {kappa}: recorded b_e={record.b_kappa}, brute "
                f"force gives {brute_b} (Equation 2)",
                kappas=(kappa,),
                engine=name,
            )

    _check_n1n2_stabbing(engine, name)


def _check_n1n2_stabbing(engine: "N1N2Skyline", name: str) -> None:
    """Algorithm 3 end-to-end against a brute-force skyline of the
    queried slice (full window retained, so the slice is exact)."""
    m = engine._m
    if m == 0:
        return
    capacity = engine.capacity
    pairs = {(1, 1), (1, capacity), (max(1, capacity // 2), capacity)}
    for n1, n2 in sorted(pairs):
        upper = m - n1 + 1
        if upper < 1:
            continue
        stab = max(1, m - n2 + 1)
        got = sorted(
            record.element.kappa
            for record in engine._live.stab(stab)
            if record.element.kappa <= upper
        )
        if n1 > 1:
            got = sorted(
                got
                + [
                    record.element.kappa
                    for record in engine._superseded.stab(stab)
                    if record.b_kappa is not None
                    and record.element.kappa <= upper < record.b_kappa
                ]
            )
        window_slice = [
            record.element
            for record in engine._records.values()
            if stab <= record.element.kappa <= upper
        ]
        expected = _brute_skyline(window_slice)
        if got != expected:
            raise corruption(
                "engine",
                "stabbing-bruteforce",
                f"({n1},{n2})-of-N stab reported kappas {got}, brute "
                f"force over the slice gives {expected}",
                engine=name,
            )
        _check_stab_cache_at(
            engine._live_cache,
            stab,
            sorted(r.element.kappa for r in engine._live.stab(stab)),
            name,
        )
        _check_stab_cache_at(
            engine._superseded_cache,
            stab,
            sorted(r.element.kappa for r in engine._superseded.stab(stab)),
            name,
        )


# ----------------------------------------------------------------------
# k-skyband
# ----------------------------------------------------------------------


def verify_skyband(engine: "KSkybandEngine") -> None:
    """Verify every documented invariant of a k-skyband engine.

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(engine).__name__
    records = engine._records
    sizes = (
        len(records),
        len(engine._labels),
        len(engine._rtree),
        len(engine._intervals),
    )
    if len(set(sizes)) != 1:
        raise corruption(
            "engine",
            "counts",
            f"structure sizes diverged: records={sizes[0]}, "
            f"labels={sizes[1]}, rtree={sizes[2]}, intervals={sizes[3]}",
            engine=name,
        )
    engine._rtree.check_invariants()
    engine._intervals.check_invariants()
    engine._labels.check_invariants()

    k = engine.k
    for kappa, record in records.items():
        if record.element.kappa != kappa:
            raise corruption(
                "engine",
                "counts",
                f"record keyed {kappa} holds element "
                f"kappa={record.element.kappa}",
                kappas=(kappa,),
                engine=name,
            )
        if not 0 <= record.younger < k:
            raise corruption(
                "engine",
                "band-count",
                f"element {kappa}: younger-dominator count "
                f"{record.younger} outside [0, {k})",
                kappas=(kappa,),
                engine=name,
            )
        doms = record.older_doms
        if len(doms) > k or doms != sorted(doms, reverse=True) or any(
            d >= kappa or d < 1 for d in doms
        ):
            raise corruption(
                "engine",
                "band-count",
                f"element {kappa}: malformed older-dominator list {doms}",
                kappas=(kappa,),
                engine=name,
            )
        if record.handle is None:
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa} has no interval",
                kappas=(kappa,),
                engine=name,
            )
        interval = record.handle.interval
        expected_low = float(engine._threshold_kappa(record))
        if interval.high != float(kappa) or interval.low != expected_low:
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa}: interval ({interval.low}, "
                f"{interval.high}] != ({expected_low}, {float(kappa)}]",
                kappas=(kappa,),
                engine=name,
            )

    _check_skyband_stabbing(engine, name)


def _check_skyband_stabbing(engine: "KSkybandEngine", name: str) -> None:
    """Generalised Theorem 3: stabbing answers must equal brute-force
    k-skyband membership counted over the retained suffix (exact: an
    element's k youngest in-window dominators are never pruned)."""
    m = engine._m
    if m == 0:
        return
    k = engine.k
    for n in sorted({1, max(1, engine.capacity // 2), engine.capacity}):
        stab = max(1, m - n + 1)
        got = sorted(r.element.kappa for r in engine._intervals.stab(stab))
        suffix = [
            record.element
            for record in engine._records.values()
            if record.element.kappa >= stab
        ]
        expected = sorted(
            e.kappa
            for e in suffix
            if sum(1 for f in suffix if f is not e and _beats(f, e)) < k
        )
        if got != expected:
            raise corruption(
                "engine",
                "stabbing-bruteforce",
                f"k-skyband stab at {stab} (n={n}, k={k}) reported "
                f"kappas {got}, brute force gives {expected}",
                engine=name,
            )
        _check_stab_cache_at(engine._stab_cache, stab, got, name)


# ----------------------------------------------------------------------
# Continuous-query manager
# ----------------------------------------------------------------------


def verify_continuous(manager: "ContinuousQueryManager") -> None:
    """Verify every registered continuous query and the manager's
    dominance-forest mirror.

    The mirror and result sets are compared against the live engine only
    when the manager has processed every arrival the engine has ingested
    (during batch replay the engine runs ahead; the heap invariants are
    always checked).

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(manager).__name__
    engine = manager.engine
    for handle in manager:
        handle._heap.check_invariants()
        if sorted(handle._heap.keys()) != sorted(handle._members):
            raise corruption(
                "engine",
                "trigger-heap",
                f"query {handle.query_id} (n={handle.n}): trigger heap "
                f"keys disagree with the result set",
                engine=name,
            )

    if manager._index is not None:
        _verify_query_index(manager, name)

    m = engine.seen_so_far
    mirror = manager._graph_elements
    in_sync = m == 0 or (bool(mirror) and max(mirror) == m)
    if not in_sync:
        return

    if sorted(mirror) != sorted(engine._records):
        raise corruption(
            "engine",
            "graph-mirror",
            f"mirror holds kappas {sorted(mirror)}, engine holds "
            f"{sorted(engine._records)}",
            engine=name,
        )
    for kappa, record in engine._records.items():
        if manager._graph_parent.get(kappa) != record.parent_kappa:
            raise corruption(
                "engine",
                "graph-mirror",
                f"mirror parent of {kappa} is "
                f"{manager._graph_parent.get(kappa)}, engine records "
                f"{record.parent_kappa}",
                kappas=(kappa,),
                engine=name,
            )
        if manager._graph_children.get(kappa, set()) != record.children:
            raise corruption(
                "engine",
                "graph-mirror",
                f"mirror children of {kappa} disagree with the engine",
                kappas=(kappa,),
                engine=name,
            )

    for handle in manager:
        if m == 0:
            expected: List[int] = []
        else:
            stab = max(1, m - handle.n + 1)
            expected = sorted(
                r.element.kappa for r in engine._intervals.stab(stab)
            )
        if sorted(handle._members) != expected:
            raise corruption(
                "engine",
                "result-sync",
                f"query {handle.query_id} (n={handle.n}) holds kappas "
                f"{sorted(handle._members)}, the stabbing query gives "
                f"{expected}",
                engine=name,
            )


def _verify_query_index(manager: "ContinuousQueryManager", name: str) -> None:
    """The ``continuous-index`` invariant (``query_index="on"`` only).

    Structural checks first (sorted axis, aligned group registry,
    refcounts, expiry entries never scheduled late), then a brute-force
    replay: each group's member set must equal Proposition 1 evaluated
    directly over the manager's dominance-forest mirror.  The mirror —
    not the live engine — is the oracle, so the check is valid
    mid-batch, when the engine has already run ahead of the arrival
    being replayed.
    """
    index = manager._index
    if index is None:  # caller gates on this; kept for ``python -O``
        return
    axis = index._axis
    order = index._order
    groups = index._groups

    if any(axis[i] >= axis[i + 1] for i in range(len(axis) - 1)):
        raise corruption(
            "engine",
            "continuous-index",
            f"query-index axis is not strictly ascending: {axis}",
            engine=name,
        )
    if len(axis) != len(order) or [g.n for g in order] != axis:
        raise corruption(
            "engine",
            "continuous-index",
            "query-index axis and group order are misaligned",
            engine=name,
        )
    if sorted(groups) != axis:
        raise corruption(
            "engine",
            "continuous-index",
            "query-index group registry disagrees with the axis",
            engine=name,
        )

    counts: Dict[int, int] = {}
    for handle in manager:
        counts[handle.n] = counts.get(handle.n, 0) + 1
        if groups.get(handle.n) is not handle._group:
            raise corruption(
                "engine",
                "continuous-index",
                f"query {handle.query_id} (n={handle.n}) is not viewing "
                f"its registered group",
                engine=name,
            )
    if counts != {g.n: g.refs for g in order}:
        raise corruption(
            "engine",
            "continuous-index",
            f"group refcounts {dict((g.n, g.refs) for g in order)} "
            f"disagree with the handle registry {counts}",
            engine=name,
        )

    for n in index._expiry.keys():
        if n not in groups:
            raise corruption(
                "engine",
                "continuous-index",
                f"expiry entry for unregistered window n={n}",
                engine=name,
            )
    for group in order:
        if not group._heap:
            continue
        top_kappa, _ = group._heap.peek()
        real_due = top_kappa + group.n
        if group.n not in index._expiry:
            raise corruption(
                "engine",
                "continuous-index",
                f"group n={group.n} has a trigger top ({top_kappa}) but "
                f"no expiry entry — its window expiries would never fire",
                engine=name,
            )
        scheduled = index._expiry.priority_of(group.n)
        if not isinstance(scheduled, int) or scheduled > real_due:
            raise corruption(
                "engine",
                "continuous-index",
                f"group n={group.n} is scheduled at {scheduled!r}, later "
                f"than its real due time {real_due} — a stale-late entry "
                f"would miss expiries",
                engine=name,
            )

    # Brute-force replay of Proposition 1 over the mirror: element e
    # (parent p) is in window n at stream length M iff it is among the
    # last n arrivals and its critical dominator is not.
    mirror = manager._graph_elements
    parents = manager._graph_parent
    m = max(mirror) if mirror else 0
    for group in order:
        window_start = m - group.n + 1
        expected = sorted(
            kappa
            for kappa in mirror
            if kappa >= window_start
            and (not parents.get(kappa, 0) or parents[kappa] < window_start)
        )
        if group.result_kappas() != expected:
            raise corruption(
                "engine",
                "continuous-index",
                f"group n={group.n} holds kappas {group.result_kappas()}, "
                f"the mirror replay gives {expected}",
                engine=name,
            )


# ----------------------------------------------------------------------
# Sharded routers
# ----------------------------------------------------------------------


def verify_sharded(router: "_ShardedRouter") -> None:
    """Verify a sharded router's fan-out/merge against a brute oracle.

    The oracle population is the union of the shards' retained
    in-window elements: it contains every global answer element
    (Theorem 1 containment per sub-stream) and, for every non-answer it
    contains, at least ``min(k, true count)`` of its in-window beaters
    (a shard never prunes the ``k`` youngest in-window dominators of
    any point) — so the brute-force tie-rule scan over the union equals
    the single-engine answer.  The merge path under test is entirely
    different code (vectorised dedupe + Pareto mask, or the capped
    witness count), which is what makes this a real cross-check.

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(router).__name__
    m = router.seen_so_far
    if m == 0:
        return
    # Replicas first: a corrupt replica would otherwise surface as a
    # mysterious shard-merge mismatch when the merge serves from it.
    verify_shard_replicas(router)
    k = int(getattr(router, "k", 1))
    for n in sorted({1, max(1, router.capacity // 2), router.capacity}):
        stab = max(1, m - n + 1)
        got = [e.kappa for e in router._merged([stab])[0]]
        union = router.retained_union(stab)
        expected = sorted(
            e.kappa
            for e in union
            if sum(1 for f in union if f is not e and _beats(f, e)) < k
        )
        if got != expected:
            raise corruption(
                "engine",
                "shard-merge",
                f"merged answer at stab {stab} (n={n}, k={k}) reported "
                f"kappas {got}, the retained-union oracle gives "
                f"{expected}",
                engine=name,
            )


def verify_shard_replicas(router: "_ShardedRouter") -> None:
    """Verify a router's shared-memory replicas against its workers.

    Each worker republishes its replica immediately before answering a
    ``replica_check`` command, and the router is single-threaded, so the
    replica read here is guaranteed to be at the *same* version as the
    worker's authoritative reply — the comparison is exact, not
    best-effort.  Checks the stab answers at the same query sizes
    :func:`verify_sharded` exercises, the retained witness suffix, and
    the version/seen labelling itself.  A no-op when replicas are
    disabled (serial backend or ``replicas="off"``).

    Raises
    ------
    StructureCorruptionError
        With invariant ``shard-replica`` on the first divergence.
    """
    from repro.parallel.executors import ProcessExecutor

    if not getattr(router, "_replicas_enabled", False):
        return
    executor = router._executor
    if not isinstance(executor, ProcessExecutor):  # pragma: no cover
        return
    readers = executor.replica_readers
    if readers is None:  # pragma: no cover - enabled implies readers
        return
    name = type(router).__name__
    m = router.seen_so_far
    if m == 0:
        return
    stabs = sorted(
        {
            max(1, m - n + 1)
            for n in (1, max(1, router.capacity // 2), router.capacity)
        }
    )
    witness = min(stabs)
    replies = executor.replica_check_all(stabs, witness)
    for shard, reply in enumerate(replies):
        snapshot = readers[shard].read()
        if snapshot is None:
            raise corruption(
                "engine",
                "shard-replica",
                f"shard {shard} has no readable replica immediately "
                f"after its worker republished (version "
                f"{reply['version']})",
                engine=name,
            )
        if snapshot.version != reply["version"] or (
            snapshot.seen != reply["seen"]
        ):
            raise corruption(
                "engine",
                "shard-replica",
                f"shard {shard} replica claims version "
                f"{snapshot.version} (seen {snapshot.seen}) but the "
                f"worker just published version {reply['version']} "
                f"(seen {reply['seen']})",
                engine=name,
            )
        for stab, authoritative in zip(stabs, reply["answers"]):
            got = [(e.kappa, tuple(e.values)) for e in snapshot.stab(stab)]
            want = [(e.kappa, tuple(e.values)) for e in authoritative]
            if got != want:
                raise corruption(
                    "engine",
                    "shard-replica",
                    f"shard {shard} replica stab {stab} answered kappas "
                    f"{[kappa for kappa, _ in got]}, the authoritative "
                    f"worker answers {[kappa for kappa, _ in want]} at "
                    f"the same version {reply['version']}",
                    engine=name,
                )
        got_suffix = [
            (e.kappa, tuple(e.values))
            for e in snapshot.retained_suffix(witness)
        ]
        want_suffix = [
            (e.kappa, tuple(e.values)) for e in reply["retained"]
        ]
        if got_suffix != want_suffix:
            raise corruption(
                "engine",
                "shard-replica",
                f"shard {shard} replica retained suffix at stab "
                f"{witness} holds kappas "
                f"{[kappa for kappa, _ in got_suffix]}, the worker "
                f"reports {[kappa for kappa, _ in want_suffix]}",
                engine=name,
            )
