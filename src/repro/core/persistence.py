"""Engine snapshot / restore.

A production stream processor restarts; recomputing a window of a
million elements from a raw replay is exactly what the paper's
structures exist to avoid.  This module serialises an engine's *logical*
state — the elements it retains plus their graph annotations — to a
plain dict (JSON-ready if the payloads are) and rebuilds a live engine
from it, re-deriving the dominance index and its interval columns.

Supported engines:

* :class:`~repro.core.nofn.NofNSkyline` (and its linear-scan ablation
  subclass) — ``R_N`` with parent pointers, a parent that has left
  ``R_N`` written as 0 (a root: both pass every admissible stab);
* :class:`~repro.core.timewindow.TimeWindowSkyline` — additionally the
  horizon, clock and per-element timestamps;
* :class:`~repro.core.n1n2.N1N2Skyline` — all of ``P_N`` with both CBC
  ancestors;
* :class:`~repro.core.skyband.KSkybandEngine` — ``R_N^k`` as flat,
  kappa-sorted records, which restore replays (see below);
* :class:`~repro.core.continuous.ContinuousQueryManager` — the wrapped
  :class:`~repro.core.nofn.NofNSkyline` snapshot plus the handle
  registry (query id, window size and ``changes`` counter per handle).
  Only the registry travels: restore re-registers every handle against
  the restored engine, whose ``R_N`` and parents seed the manager's
  rows.  Snapshots written while the manager had a ``query_index``
  knob carry that key; it selects nothing and restore ignores it.

Round-trip guarantee: ``restore(snapshot(engine))`` answers every query
identically to the original (tested property-based).  Payloads are
embedded verbatim — callers who want JSON must keep payloads
JSON-serialisable.

A k-skyband snapshot (kind ``skyband``) and the snapshots of the
retired sharded routers (kinds ``sharded-nofn`` and ``sharded-skyband``)
hold flat, kappa-sorted records: the engine's retained elements, or the
union of the shards'.  They restore into one
:class:`~repro.core.nofn.NofNSkyline` or
:class:`~repro.core.skyband.KSkybandEngine` by replaying each record at
its own kappa.  The records hold every element the single engine would
retain (for a union, Theorem 1 on each sub-stream), and every other
record is beaten by a younger record, so the replay retains what the
single engine retains and answers every query as it does.  (A replayed
k-skyband record can list fewer older dominators than the single
engine's, when the records lack one that was pruned or that no shard
kept; the ``k`` younger elements that beat that dominator also beat the
record, so no answer changes.)

Older snapshots carry an ``rtree`` section (the retired R-tree tuning:
``max_entries`` and, older still, ``min_entries``, ``split`` and
``layout``).  Its settings select nothing any more, so they restore
unchanged; like every other section, it must still be a dict.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from repro.core.continuous import ContinuousQueryHandle, ContinuousQueryManager
from repro.core.n1n2 import N1N2Skyline
from repro.core.nofn import NofNSkyline, _Record
from repro.core.element import StreamElement
from repro.core.skyband import KSkybandEngine
from repro.core.timewindow import TimeWindowSkyline
from repro.exceptions import ReproError
from repro.sanitize.sanitizer import InvariantSanitizer, SanitizeArg

FORMAT_VERSION = 1

#: Engine types :func:`snapshot` accepts and :func:`restore` can return.
PersistableEngine = Union[NofNSkyline, N1N2Skyline, KSkybandEngine]

#: Everything :func:`snapshot` accepts and :func:`restore` can return —
#: the engines plus the continuous-query service wrapper.
PersistableState = Union[PersistableEngine, ContinuousQueryManager]


class SnapshotError(ReproError):
    """A snapshot dict is malformed or from an unsupported version."""


# ----------------------------------------------------------------------
# Dump
# ----------------------------------------------------------------------


def snapshot(engine: PersistableState) -> Dict[str, Any]:
    """Serialise ``engine`` to a plain dict."""
    if isinstance(engine, ContinuousQueryManager):
        return _snapshot_continuous(engine)
    if isinstance(engine, N1N2Skyline):
        return _snapshot_n1n2(engine)
    if isinstance(engine, NofNSkyline):  # covers TimeWindowSkyline too
        return _snapshot_nofn(engine)
    if isinstance(engine, KSkybandEngine):
        return _snapshot_skyband(engine)
    raise SnapshotError(f"unsupported engine type: {type(engine).__name__}")


def _snapshot_nofn(engine: NofNSkyline) -> Dict[str, Any]:
    records: List[Dict[str, Any]] = []
    live = engine._records
    for record in live.values():  # oldest first
        records.append(
            {
                "kappa": record.element.kappa,
                "values": list(record.element.values),
                "label": record.label,
                "parent": record.parent_kappa if record.parent_kappa in live else 0,
                "payload": record.element.payload,
            }
        )
    snap: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "kind": "timewindow" if isinstance(engine, TimeWindowSkyline) else "nofn",
        "dim": engine.dim,
        "capacity": engine.capacity,
        "seen_so_far": engine.seen_so_far,
        "records": records,
        "stats": engine.stats.snapshot_raw(),
        # The query fast-path knob, so restore rebuilds with the
        # caching choice the operator made.
        "query": {"cache": engine._stab_cache is not None},
        "batch_chunk": engine.batch_chunk,
        "sanitize": engine.sanitize_mode,
    }
    if isinstance(engine, TimeWindowSkyline):
        snap["horizon"] = engine.horizon
        snap["now"] = engine.now
    return snap


def _snapshot_skyband(engine: KSkybandEngine) -> Dict[str, Any]:
    """Dump ``R_N^k`` as the flat, kappa-sorted records that
    :func:`_restore_replay` replays; the dominator book-keeping is
    re-derived there."""
    return {
        "format": FORMAT_VERSION,
        "kind": "skyband",
        "dim": engine.dim,
        "capacity": engine.capacity,
        "k": engine.k,
        "seen_so_far": engine.seen_so_far,
        "records": [
            {
                "kappa": record.element.kappa,
                "values": list(record.element.values),
                "payload": record.element.payload,
            }
            for record in engine._records.values()  # oldest first
        ],
        "stats": engine.stats.snapshot_raw(),
        "query": {"cache": engine.stab_cache is not None},
        "batch_chunk": engine.batch_chunk,
        "sanitize": engine.sanitize_mode,
    }


def _snapshot_n1n2(engine: N1N2Skyline) -> Dict[str, Any]:
    records: List[Dict[str, Any]] = []
    for element in engine.window_elements():
        a, b = engine.ancestors(element.kappa)
        records.append(
            {
                "kappa": element.kappa,
                "values": list(element.values),
                "a": a,
                "b": b,
                "in_rn": b is None,
                "payload": element.payload,
            }
        )
    return {
        "format": FORMAT_VERSION,
        "kind": "n1n2",
        "dim": engine.dim,
        "capacity": engine.capacity,
        "seen_so_far": engine.seen_so_far,
        "records": records,
        "stats": engine.stats.snapshot_raw(),
        "batch_chunk": engine.batch_chunk,
        "sanitize": engine.sanitize_mode,
    }


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def _snapshot_continuous(manager: ContinuousQueryManager) -> Dict[str, Any]:
    """Dump a continuous-query manager: the wrapped engine plus the
    handle registry.

    The manager's rows and results are deliberately not serialised —
    they are functions of the engine state and the registry, and
    restore re-derives them by re-registering each handle.
    """
    engine = manager.engine
    if type(engine) is not NofNSkyline:
        raise SnapshotError(
            "continuous snapshots support plain NofNSkyline engines, "
            f"got {type(engine).__name__}"
        )
    return {
        "format": FORMAT_VERSION,
        "kind": "continuous",
        "engine": _snapshot_nofn(engine),
        "sanitize": manager.sanitize_mode,
        "next_id": manager._next_id,
        "queries": [
            {"id": h.query_id, "n": h.n, "changes": h.changes}
            for h in manager
        ],
    }


def restore(snap: Dict[str, Any], sanitize: SanitizeArg = None) -> PersistableState:
    """Rebuild a live engine from a :func:`snapshot` dict.

    ``sanitize`` overrides the sanitize mode recorded in the snapshot
    (``None`` keeps the recorded mode; snapshots written before the
    mode was recorded restore with ``"off"``, as they always did).
    """
    _require(isinstance(snap, dict), "snapshot must be a dict")
    if snap.get("format") != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format: {snap.get('format')!r}"
        )
    _require(
        isinstance(snap.get("rtree", {}), dict),
        '"rtree" must be a dict when present',
    )
    if sanitize is None:
        sanitize = str(snap.get("sanitize", "off"))
    kind = snap.get("kind")
    if kind == "nofn":
        return _restore_nofn(
            snap,
            NofNSkyline(
                snap["dim"],
                snap["capacity"],
                sanitize=sanitize,
                **_query_kwargs(snap),
                **_batch_kwargs(snap),
            ),
        )
    if kind == "timewindow":
        engine = TimeWindowSkyline(
            snap["dim"],
            snap["horizon"],
            sanitize=sanitize,
            **_query_kwargs(snap),
            **_batch_kwargs(snap),
        )
        engine._now = float(snap["now"])
        return _restore_nofn(snap, engine)
    if kind == "n1n2":
        return _restore_n1n2(snap, sanitize)
    if kind in ("skyband", "sharded-nofn", "sharded-skyband"):
        return _restore_replay(snap, sanitize)
    if kind == "continuous":
        return _restore_continuous(snap, sanitize)
    raise SnapshotError(f"unknown snapshot kind: {kind!r}")


def _restore_continuous(
    snap: Dict[str, Any], sanitize: SanitizeArg
) -> ContinuousQueryManager:
    """Rebuild a manager by restoring its engine and re-registering the
    handle registry.  ``sanitize`` applies to the manager; the engine
    keeps its own recorded mode.

    The registry is validated before any handle is registered: ids are
    unique integers >= 1 below ``next_id`` (a colliding ``next_id``
    would hand a later registration a live id), each ``n`` lies in
    ``[1, capacity]`` and each ``changes`` is >= 0.
    """
    engine = restore(snap["engine"])
    if not isinstance(engine, NofNSkyline):
        raise SnapshotError("continuous snapshot must embed an nofn engine")
    queries = snap["queries"]
    ids = [raw["id"] for raw in queries]
    _require(
        all(_is_int(query_id) and query_id >= 1 for query_id in ids),
        f"continuous query ids must be integers >= 1, got {ids}",
    )
    _require(len(set(ids)) == len(ids), "duplicate continuous query id")
    next_id = snap.get("next_id", max(ids, default=0) + 1)
    _require(
        _is_int(next_id) and next_id > max(ids, default=0),
        f"next_id {next_id!r} must be an integer above every query id",
    )
    for raw in queries:
        n, changes = raw["n"], raw.get("changes", 0)
        _require(
            _is_int(n) and 1 <= n <= engine.capacity,
            f"query {raw['id']} has n={n!r} outside "
            f"[1, {engine.capacity}]",
        )
        _require(
            _is_int(changes) and changes >= 0,
            f"query {raw['id']} has changes={changes!r}, not a count",
        )
    manager = ContinuousQueryManager(engine, sanitize=sanitize)
    handles: Dict[int, ContinuousQueryHandle] = {}
    for raw in queries:
        handle = manager.register(raw["n"])
        handle.query_id = raw["id"]
        # Re-anchor the handle's changes counter: re-registration reset
        # it to zero, the original had accumulated `changes`.
        handle._changes_base -= raw.get("changes", 0)
        handles[handle.query_id] = handle
    manager._queries = handles
    manager._next_id = next_id
    return manager


def _is_int(value: Any) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass but not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _restore_replay(
    snap: Dict[str, Any], sanitize: SanitizeArg
) -> Union[NofNSkyline, KSkybandEngine]:
    """Replay a skyband or sharded snapshot's flat records into one
    engine.

    Each record arrives at its own kappa (``_m`` jumps to ``kappa - 1``
    first), so expiry and pruning run against the global positions.
    Records already outside the final window are skipped: the replay
    would expire them anyway, and only a snapshot whose
    ``seen_so_far`` passes its newest record would otherwise keep them.
    A sharded snapshot's recorded shard count, backend and replica
    settings select nothing any more.  The sanitizer attaches after the
    replay, like the other restores, which verify nothing while
    rebuilding.
    """
    engine: Union[NofNSkyline, KSkybandEngine]
    if snap["kind"] != "sharded-nofn":
        k = snap.get("k")
        _require(_is_int(k), f"{snap['kind']} k must be an integer, got {k!r}")
        engine = KSkybandEngine(
            snap["dim"],
            snap["capacity"],
            k,
            **_query_kwargs(snap),
            **_batch_kwargs(snap),
        )
    else:
        engine = NofNSkyline(
            snap["dim"],
            snap["capacity"],
            **_query_kwargs(snap),
            **_batch_kwargs(snap),
        )
    seen = int(snap["seen_so_far"])
    window_start = seen - engine.capacity + 1
    previous = 0
    for raw in snap["records"]:
        kappa = int(raw["kappa"])
        _require(
            kappa > previous,
            f"records must be sorted by kappa, got {kappa} "
            f"after {previous}",
        )
        previous = kappa
        if kappa >= window_start:
            engine._m = kappa - 1
            engine.append(raw["values"], raw.get("payload"))
    _require(
        seen >= previous,
        f"seen_so_far {seen} precedes the newest record {previous}",
    )
    engine._m = seen
    _restore_stats(engine, snap.get("stats"))
    engine._sanitizer = InvariantSanitizer.coerce(sanitize)
    return engine


def _batch_kwargs(snap: Dict[str, Any]) -> Dict[str, Any]:
    """Batched-ingest kwargs from a snapshot.

    Snapshots written before the ``batch_chunk`` knob was recorded lack
    the key; ``None`` restores the library default chunk size.
    """
    raw = snap.get("batch_chunk")
    return {"batch_chunk": None if raw is None else int(raw)}


def _query_kwargs(snap: Dict[str, Any]) -> Dict[str, Any]:
    """Query fast-path kwargs from a snapshot.

    Snapshots written before the knob was recorded lack the "query"
    key; they restore with the cache on.  Older snapshots also carry
    ``kernels``, which no longer selects anything and is ignored.
    """
    raw = snap.get("query", {})
    _require(isinstance(raw, dict), '"query" must be a dict when present')
    return {"query_cache": bool(raw.get("cache", True))}


def _restore_nofn(snap: Dict[str, Any], engine: NofNSkyline) -> NofNSkyline:
    """Rebuild ``R_N`` from records that ascend in kappa and in label,
    each parent an earlier record or 0."""
    engine._m = int(snap["seen_so_far"])
    records = engine._records
    last: Optional[_Record] = None
    for raw in snap["records"]:  # oldest first, as dumped
        element = StreamElement(
            raw["values"], int(raw["kappa"]), raw.get("payload")
        )
        record = _Record(element, float(raw["label"]))
        record.parent_kappa = int(raw["parent"])
        _require(
            last is None
            or (element.kappa > last.element.kappa and record.label > last.label),
            f"record {element.kappa} does not follow the record before "
            f"it in kappa and label order",
        )
        last = record
        if record.parent_kappa:
            parent = records.get(record.parent_kappa)
            _require(
                parent is not None,
                f"record {element.kappa} references missing "
                f"parent {record.parent_kappa}",
            )
            low = parent.label
        else:
            low = 0.0
        engine._rtree.insert(
            element.values, element.kappa, record, low=low, label=record.label
        )
        records[element.kappa] = record
    if records:
        engine._cursor = next(iter(records))

    _restore_stats(engine, snap.get("stats"))
    return engine


def _restore_n1n2(
    snap: Dict[str, Any], sanitize: SanitizeArg = "off"
) -> N1N2Skyline:
    """Refill the ring from the records of exactly the window's kappas.

    Older snapshots also carry a ``query`` section (the retired stab
    cache knob); it selects nothing and is ignored.
    """
    engine = N1N2Skyline(
        snap["dim"],
        snap["capacity"],
        sanitize=sanitize,
        **_batch_kwargs(snap),
    )
    seen = int(snap["seen_so_far"])
    first = max(1, seen - engine.capacity + 1)
    records = sorted(snap["records"], key=lambda raw: int(raw["kappa"]))
    kappas = [int(raw["kappa"]) for raw in records]
    _require(
        seen >= 0 and kappas == list(range(first, seen + 1)),
        f"n1n2 records must be exactly kappas {first}..{seen}, each once",
    )
    engine._m = seen
    for raw, kappa in zip(records, kappas):
        element = StreamElement(raw["values"], kappa, raw.get("payload"))
        _require(
            len(element.values) == engine.dim,
            f"record {kappa} has {len(element.values)} coordinates, "
            f"expected {engine.dim}",
        )
        a = int(raw["a"])
        _require(
            a == 0 or first <= a < kappa,
            f"record {kappa} names ancestor {a}, not an older record",
        )
        b = raw["b"]
        in_rn = bool(raw["in_rn"])
        _require(
            (b is None) == in_rn,
            f"record {kappa} has b={b!r} but in_rn={in_rn}",
        )
        _require(
            b is None or kappa < int(b) <= seen,
            f"record {kappa} has backward ancestor {b} outside "
            f"({kappa}, {seen}]",
        )
        slot = (kappa - 1) % engine.capacity
        engine._ring[slot] = element
        engine._a[slot] = a
        if in_rn:
            engine._rtree.insert(element.values, kappa)
        else:
            engine._b[slot] = int(b)

    _restore_stats(engine, snap.get("stats"))
    return engine


def _restore_stats(engine: PersistableEngine, raw: Any) -> None:
    if not raw:
        return
    stats = engine.stats
    for field in (
        "arrivals", "expiries", "dominated_removed", "queries",
        "query_results", "rn_size_peak", "rn_size_sum",
        "batches", "batch_elements", "prefilter_dropped", "batch_size_peak",
    ):
        setattr(stats, field, int(raw.get(field, 0)))
    for field in ("batch_seconds_total", "batch_seconds_max"):
        setattr(stats, field, float(raw.get(field, 0.0)))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotError(message)


# ----------------------------------------------------------------------
# JSON convenience
# ----------------------------------------------------------------------


def dumps(engine: PersistableState) -> str:
    """Snapshot ``engine`` as a JSON string (payloads must be
    JSON-serialisable)."""
    return json.dumps(snapshot(engine))


def loads(text: str, sanitize: SanitizeArg = None) -> PersistableState:
    """Rebuild an engine from :func:`dumps` output (``sanitize`` as in
    :func:`restore`)."""
    return restore(json.loads(text), sanitize=sanitize)
