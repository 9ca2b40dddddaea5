"""Invariant verifiers for every engine in the library.

Each ``verify_*`` function re-derives, from first principles, the
properties the paper proves about its engine's state and raises
:class:`~repro.exceptions.StructureCorruptionError` (carrying a
:class:`~repro.exceptions.SanitizerReport`) on the first violation.
Nothing here uses ``assert``, so every check survives ``python -O``.

The invariant catalogue (the ``invariant`` field of the report):

================== ====================================================
``counts``          cross-structure sizes, label/window membership,
                    records in kappa and label order
``non-redundancy``  Theorem 1: no ``R_N`` element has a younger
                    in-window weak dominator inside ``R_N``
``forest``          the critical-dominance graph is an acyclic forest:
                    every birth parent is strictly older
``critical-parent`` the recorded parent, while in ``R_N``, is a
                    dominator, and no ``R_N`` element between it and
                    the element dominates (it is the *youngest* older
                    dominator)
``interval-encoding`` each element's interval is exactly
                    ``(label(parent), label(e)]`` (Theorem 3), its low
                    below the window start once the parent has left
                    ``R_N`` / ``(threshold, kappa(e)]`` (k-skyband);
                    section 4's ``a``/``b`` columns hold a kappa in
                    ``[0, kappa(e))`` and ``+inf`` or a kappa in
                    ``(kappa(e), M]``
``stabbing-bruteforce`` stabbing-query answers equal a brute-force
                    skyline/skyband of the window suffix (of the
                    queried slice, for (n1,n2)-of-N)
``cbc-ancestor``    Theorem 4's ``a_e``/``b_e`` ancestors match a
                    brute-force recomputation over ``P_N``
``band-count``      k-skyband younger-dominator counters are in range
                    and consistent with the retained set
``continuous-rows`` a continuous-query manager's rows are in
                    ascending kappa order with an older birth parent,
                    its window axis is strictly ascending with refcounts
                    matching the handle registry, and (when in sync)
                    its rows are ``R_N`` with each birth parent the
                    engine's parent or below the window start
``result-sync``     a continuous result equals the stabbing answer
``stab-cache``      the versioned query cache's answer at each tested
                    stab point equals a fresh stab of the live interval
                    tree (checked whenever a cache is attached)
================== ====================================================

plus the structure-level invariants raised by the structures themselves
(``slot-mirror``, ``rtree-*`` from the pointer R-tree,
and ``dense-*`` from the engines' dense dominance index — e.g.
``dense-mirror``, its matrix no longer mirroring its entry objects).

Import discipline
-----------------
The engines call these verifiers (their ``check_invariants`` delegate
here), so at module level this file may only import *leaf* modules:
:mod:`repro.core.dominance`, :mod:`repro.core.element` and
:mod:`repro.exceptions`.  Engine types appear only under
``TYPE_CHECKING`` and in docstrings.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.dominance import dominates, weakly_dominates
from repro.core.element import StreamElement
from repro.exceptions import StructureCorruptionError, corruption

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.continuous import ContinuousQueryManager
    from repro.core.n1n2 import N1N2Skyline
    from repro.core.nofn import NofNSkyline
    from repro.core.skyband import KSkybandEngine
    from repro.core.timewindow import TimeWindowSkyline

__all__ = [
    "verify_continuous",
    "verify_n1n2",
    "verify_nofn",
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


def _check_sizes(engine: "NofNSkyline | KSkybandEngine", name: str) -> None:
    """The records, the dominance index and the interval tree hold one
    entry per retained element."""
    sizes = (len(engine._records), len(engine._rtree), len(engine._intervals))
    if len(set(sizes)) != 1:
        raise corruption(
            "engine",
            "counts",
            f"structure sizes diverged: records={sizes[0]}, "
            f"rtree={sizes[1]}, intervals={sizes[2]}",
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
    _check_sizes(engine, name)
    engine._rtree.check_invariants()
    engine._intervals.check_invariants()

    ordered = list(records)
    threshold = engine._window_start()
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
            continue
        if record.parent_kappa >= kappa:
            raise corruption(
                "engine",
                "forest",
                f"element {kappa}: critical parent "
                f"{record.parent_kappa} is not older",
                kappas=(kappa, record.parent_kappa),
                engine=name,
            )
        parent = records.get(record.parent_kappa)
        if parent is None:
            # The birth parent expired: its label, the interval's low,
            # passes every admissible stab as a root's 0 does.
            if not interval.low < threshold:
                raise corruption(
                    "engine",
                    "interval-encoding",
                    f"element {kappa}: birth parent {record.parent_kappa} "
                    f"left R_N but the interval low {interval.low} is "
                    f"not below the window start {threshold}",
                    kappas=(kappa, record.parent_kappa),
                    engine=name,
                )
        else:
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

    # Expiry walks the records oldest first, by kappa and label alike.
    labels = [records[kappa].label for kappa in ordered]
    if ordered != sorted(ordered) or labels != sorted(set(labels)):
        raise corruption(
            "engine",
            "counts",
            f"records are not in ascending kappa and label order: {ordered}",
            engine=name,
        )
    if ordered and labels[0] < threshold:
        raise corruption(
            "engine",
            "counts",
            f"retained label {labels[0]} precedes the window start "
            f"{threshold}",
            engine=name,
        )
    if ordered and ordered[0] < engine._cursor:
        raise corruption(
            "engine",
            "counts",
            f"the expiry cursor {engine._cursor} passed the retained "
            f"element {ordered[0]}",
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
    if not engine._records:
        return
    oldest_label = next(iter(engine._records.values())).label
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
    """Verify every documented invariant of an (n1,n2)-of-N engine:
    the ring holds exactly the window, the ``a``/``b`` columns encode
    kappas of the right range, the dominance index holds exactly the
    ``b = +inf`` elements, and both ancestors and the slice skylines
    match a brute-force recomputation.

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(engine).__name__
    m, capacity = engine._m, engine.capacity
    window = range(max(1, m - capacity + 1), m + 1)
    live: List[int] = []
    for kappa in window:
        slot = (kappa - 1) % capacity
        element = engine._ring[slot]
        if element is None or element.kappa != kappa:
            raise corruption(
                "engine",
                "counts",
                f"ring slot {slot} holds "
                f"{None if element is None else element.kappa}, expected "
                f"element {kappa}",
                kappas=(kappa,),
                engine=name,
            )
        a, b = float(engine._a[slot]), float(engine._b[slot])
        if not (0 <= a < kappa and a.is_integer()):
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa}: critical ancestor column holds {a}, "
                f"not a kappa in [0, {kappa})",
                kappas=(kappa,),
                engine=name,
            )
        if b == math.inf:
            live.append(kappa)
        elif not (kappa < b <= m and b.is_integer()):
            raise corruption(
                "engine",
                "interval-encoding",
                f"element {kappa}: backward ancestor column holds {b}, "
                f"not +inf or a kappa in ({kappa}, {m}]",
                kappas=(kappa,),
                engine=name,
            )
    indexed = sorted(entry.kappa for entry in engine._rtree.entries())
    if indexed != live:
        raise corruption(
            "engine",
            "counts",
            f"the dominance index holds kappas {indexed}, but R_N "
            f"(b = +inf) is {live}",
            engine=name,
        )
    engine._rtree.check_invariants()

    # Theorem 4's ancestors, recomputed by brute force over P_N (which
    # this engine retains in full).  ``a_e`` uses *strict* dominance: an
    # older exact duplicate is demoted by the newcomer before the
    # ancestor search runs, so it can never be recorded (DESIGN.md §7).
    # ``b_e`` uses *weak* dominance: a younger duplicate does demote.
    elements = engine.window_elements()
    for element in elements:
        kappa, point = element.kappa, element.values
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
        recorded_a, recorded_b = engine.ancestors(kappa)
        if brute_a != recorded_a:
            raise corruption(
                "engine",
                "cbc-ancestor",
                f"element {kappa}: recorded a_e={recorded_a}, brute "
                f"force gives {brute_a} (Equation 1)",
                kappas=(kappa, recorded_a, brute_a),
                engine=name,
            )
        if brute_b != recorded_b:
            raise corruption(
                "engine",
                "cbc-ancestor",
                f"element {kappa}: recorded b_e={recorded_b}, brute "
                f"force gives {brute_b} (Equation 2)",
                kappas=(kappa,),
                engine=name,
            )

    _check_n1n2_stabbing(engine, elements, name)


def _check_n1n2_stabbing(
    engine: "N1N2Skyline", elements: List[StreamElement], name: str
) -> None:
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
        got = [e.kappa for e in engine._slice_skyline(stab, upper)]
        expected = _brute_skyline(
            [e for e in elements if stab <= e.kappa <= upper]
        )
        if got != expected:
            raise corruption(
                "engine",
                "stabbing-bruteforce",
                f"({n1},{n2})-of-N filter reported kappas {got}, brute "
                f"force over the slice gives {expected}",
                engine=name,
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
    _check_sizes(engine, name)
    engine._rtree.check_invariants()
    engine._intervals.check_invariants()
    if list(records) != sorted(records):
        raise corruption(
            "engine",
            "counts",
            f"records are not in ascending kappa order: {list(records)}",
            engine=name,
        )
    window_start = engine._m - engine.capacity + 1
    if records and next(iter(records)) < window_start:
        raise corruption(
            "engine",
            "counts",
            f"retained element {next(iter(records))} precedes the window "
            f"start {window_start}",
            engine=name,
        )

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
    """Verify a continuous-query manager's rows, window axis and results.

    The row columns and the window axis are always checked.  The rows
    are compared with ``R_N``, and every result with a fresh stab, only
    when the manager has processed every arrival the engine has
    ingested (a caller driving the engine directly may not have handed
    the outcomes over yet).

    Raises
    ------
    StructureCorruptionError
        On the first violated invariant.
    """
    name = type(manager).__name__
    engine = manager.engine
    kappas = manager._kappa.tolist()
    parents = manager._parent.tolist()
    axis = manager._axis.tolist()
    refs = manager._refs.tolist()

    def rows_corrupt(
        message: str, *kappas_hit: int
    ) -> StructureCorruptionError:
        return corruption(
            "engine", "continuous-rows", message,
            kappas=kappas_hit, engine=name,
        )

    if len(parents) != len(kappas) or [
        e.kappa for e in manager._elements
    ] != kappas:
        raise rows_corrupt("row columns (kappa, parent, element) disagree")
    for i in range(len(kappas) - 1):
        if kappas[i] >= kappas[i + 1]:
            raise rows_corrupt(
                f"rows are not in ascending kappa order at row {i}",
                kappas[i], kappas[i + 1],
            )
    for kappa, parent in zip(kappas, parents):
        if not 0 <= parent < kappa:
            raise rows_corrupt(
                f"row {kappa} has birth parent {parent}, not an older "
                f"arrival",
                kappa,
            )
    if any(axis[i] >= axis[i + 1] for i in range(len(axis) - 1)):
        raise rows_corrupt(f"window axis is not strictly ascending: {axis}")
    handles: Dict[int, int] = {}
    for handle in manager:
        handles[handle.n] = handles.get(handle.n, 0) + 1
    if len(refs) != len(axis) or len(manager._counts) != len(axis) or (
        handles != dict(zip(axis, refs))
    ):
        raise rows_corrupt(
            f"window refcounts {dict(zip(axis, refs))} disagree with the "
            f"handle registry {handles}"
        )

    m = engine.seen_so_far
    if manager._m != m:
        return
    records = engine._records
    if sorted(records) != kappas:
        raise rows_corrupt(
            f"rows hold kappas {kappas}, R_N holds {sorted(records)}"
        )
    window_start = m - engine.capacity + 1
    for kappa, parent in zip(kappas, parents):
        engine_parent = records[kappa].parent_kappa
        if parent != engine_parent and parent >= window_start:
            raise rows_corrupt(
                f"row {kappa} has birth parent {parent}; the engine "
                f"records {engine_parent} and {parent} is still in the "
                f"window",
                kappa,
            )

    for handle in manager:
        if m == 0:
            expected: List[int] = []
        else:
            stab = max(1, m - handle.n + 1)
            expected = sorted(
                r.element.kappa for r in engine._intervals.stab(stab)
            )
        got = handle.result_kappas()
        if got != expected:
            raise corruption(
                "engine",
                "result-sync",
                f"query {handle.query_id} (n={handle.n}) holds kappas "
                f"{got}, the stabbing query gives {expected}",
                engine=name,
            )
