"""Engine snapshot / restore.

A production stream processor restarts; recomputing a window of a
million elements from a raw replay is exactly what the paper's
structures exist to avoid.  This module serialises an engine's *logical*
state — the elements it retains plus their graph annotations — to a
plain dict (JSON-ready if the payloads are) and rebuilds a live engine
from it, re-deriving the R-tree / interval-tree / label-set wiring.

Supported engines:

* :class:`~repro.core.nofn.NofNSkyline` (and its linear-scan ablation
  subclass) — ``R_N`` with parent pointers;
* :class:`~repro.core.timewindow.TimeWindowSkyline` — additionally the
  horizon, clock and per-element timestamps;
* :class:`~repro.core.n1n2.N1N2Skyline` — all of ``P_N`` with both CBC
  ancestors;
* :class:`~repro.parallel.sharded.ShardedNofNSkyline` /
  :class:`~repro.parallel.sharded.ShardedKSkyband` — the union of the
  shards' retained elements, stored *flat* (sorted by kappa) so one
  snapshot restores under any shard count or backend: restore replays
  the records through the router's round-robin ingestion, re-deriving
  every per-shard graph annotation.  Same-shard-count restores are
  state-identical; different counts answer every query identically
  (the re-shard-on-load path of the parallel subsystem);
* :class:`~repro.core.continuous.ContinuousQueryManager` — the wrapped
  :class:`~repro.core.nofn.NofNSkyline` snapshot plus the handle
  registry (query id, window size and ``changes`` counter per handle).
  Only the registry travels: restore re-registers every handle against
  the restored engine, so the per-``n`` query-index groups, trigger
  heaps and dominance-forest mirror are all re-derived — groups restore
  from the handle registry, not from serialised member sets.

Round-trip guarantee: ``restore(snapshot(engine))`` answers every query
identically to the original (tested property-based).  Payloads are
embedded verbatim — callers who want JSON must keep payloads
JSON-serialisable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from repro.core.continuous import ContinuousQueryHandle, ContinuousQueryManager
from repro.core.n1n2 import N1N2Skyline, _WindowRecord
from repro.core.nofn import NofNSkyline, _Record
from repro.core.element import StreamElement
from repro.core.timewindow import TimeWindowSkyline
from repro.exceptions import ReproError
from repro.parallel.sharded import ShardedKSkyband, ShardedNofNSkyline
from repro.sanitize.sanitizer import SanitizeArg

FORMAT_VERSION = 1

#: Engine types :func:`snapshot` accepts and :func:`restore` can return.
PersistableEngine = Union[
    NofNSkyline, N1N2Skyline, ShardedNofNSkyline, ShardedKSkyband
]

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
    if isinstance(engine, (ShardedNofNSkyline, ShardedKSkyband)):
        return _snapshot_sharded(engine)
    if isinstance(engine, N1N2Skyline):
        return _snapshot_n1n2(engine)
    if isinstance(engine, NofNSkyline):  # covers TimeWindowSkyline too
        return _snapshot_nofn(engine)
    raise SnapshotError(f"unsupported engine type: {type(engine).__name__}")


def _snapshot_sharded(
    router: Union[ShardedNofNSkyline, ShardedKSkyband]
) -> Dict[str, Any]:
    """Flat, shard-count-agnostic dump of a sharded router.

    Only the retained elements travel (kappa/values/payload, sorted by
    kappa); restore re-derives all graph annotations by replay, so the
    snapshot is identical whatever ``shards``/``backend`` produced it.
    """
    rows: List[Dict[str, Any]] = [
        row
        for shard_rows in router._executor.records_all()
        for row in shard_rows
    ]
    rows.sort(key=lambda row: int(row["kappa"]))
    snap: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "kind": (
            "sharded-skyband"
            if isinstance(router, ShardedKSkyband)
            else "sharded-nofn"
        ),
        "dim": router.dim,
        "capacity": router.capacity,
        "shards": router.shards,
        "backend": router.backend,
        "seen_so_far": router.seen_so_far,
        "records": rows,
        "stats": router.stats.snapshot_raw(),
        "rtree": {"max_entries": router._rtree_max_entries},
        "query": {"cache": router._query_cache},
        "batch_chunk": router.batch_chunk,
        "replicas": {
            "mode": router.replica_mode,
            "lag": router.replica_lag,
        },
        "sanitize": router.sanitize_mode,
    }
    if isinstance(router, ShardedKSkyband):
        snap["k"] = router.k
    return snap


def _snapshot_nofn(engine: NofNSkyline) -> Dict[str, Any]:
    records: List[Dict[str, Any]] = []
    for _, record in engine._labels.items():  # oldest first
        records.append(
            {
                "kappa": record.element.kappa,
                "values": list(record.element.values),
                "label": record.label,
                "parent": record.parent_kappa,
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
        "rtree": _rtree_config(engine),
        "query": _query_config(engine),
        "batch_chunk": engine.batch_chunk,
        "sanitize": engine.sanitize_mode,
    }
    if isinstance(engine, TimeWindowSkyline):
        snap["horizon"] = engine.horizon
        snap["now"] = engine.now
    return snap


def _rtree_config(engine: Union[NofNSkyline, N1N2Skyline]) -> Dict[str, Any]:
    """The engine's R-tree fan-out, so :func:`restore` rebuilds the index
    with the tuning the operator chose rather than the default.  Engines
    whose index is not an R-tree (the linear-scan ablation) report the
    default — tuning does not apply to them."""
    return {"max_entries": int(getattr(engine._rtree, "max_entries", 12))}


def _query_config(engine: Union[NofNSkyline, N1N2Skyline]) -> Dict[str, Any]:
    """The engine's query fast-path knob, so :func:`restore` rebuilds
    with the caching choice the operator made."""
    if isinstance(engine, N1N2Skyline):
        cache = engine._live_cache is not None
    else:
        cache = engine._stab_cache is not None
    return {"cache": cache}


def _snapshot_n1n2(engine: N1N2Skyline) -> Dict[str, Any]:
    records: List[Dict[str, Any]] = []
    for kappa in sorted(engine._records):
        record = engine._records[kappa]
        records.append(
            {
                "kappa": kappa,
                "values": list(record.element.values),
                "a": record.a_kappa,
                "b": record.b_kappa,
                "in_rn": record.in_rn,
                "payload": record.element.payload,
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
        "rtree": _rtree_config(engine),
        "query": _query_config(engine),
        "batch_chunk": engine.batch_chunk,
        "sanitize": engine.sanitize_mode,
    }


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def _snapshot_continuous(manager: ContinuousQueryManager) -> Dict[str, Any]:
    """Dump a continuous-query manager: the wrapped engine plus the
    handle registry.

    Member sets, trigger heaps and the query index are deliberately not
    serialised — they are functions of the engine state and the
    registry, and restore re-derives them by re-registering each handle
    (one stabbing query per distinct ``n``).
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
        "query_index": manager.query_index,
        "sanitize": manager.sanitize_mode,
        "next_id": manager._next_id,
        "queries": [
            {"id": h.query_id, "n": h.n, "changes": h.changes}
            for h in manager
        ],
    }


def restore(
    snap: Dict[str, Any],
    sanitize: SanitizeArg = None,
    shards: Optional[int] = None,
    backend: Optional[str] = None,
) -> PersistableState:
    """Rebuild a live engine from a :func:`snapshot` dict.

    ``sanitize`` overrides the sanitize mode recorded in the snapshot
    (``None`` keeps the recorded mode; snapshots written before the
    mode was recorded restore with ``"off"``, as they always did).
    ``shards`` / ``backend`` apply to sharded snapshots only and
    override the recorded topology — restoring a 4-shard snapshot with
    ``shards=2`` re-shards the stream on load (and vice versa); every
    query answers identically either way.
    """
    _require(isinstance(snap, dict), "snapshot must be a dict")
    if snap.get("format") != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format: {snap.get('format')!r}"
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
                **_rtree_kwargs(snap),
                **_query_kwargs(snap),
                **_batch_kwargs(snap),
            ),
        )
    if kind == "timewindow":
        engine = TimeWindowSkyline(
            snap["dim"],
            snap["horizon"],
            sanitize=sanitize,
            **_rtree_kwargs(snap),
            **_query_kwargs(snap),
            **_batch_kwargs(snap),
        )
        engine._now = float(snap["now"])
        return _restore_nofn(snap, engine)
    if kind == "n1n2":
        return _restore_n1n2(snap, sanitize)
    if kind in ("sharded-nofn", "sharded-skyband"):
        return _restore_sharded(snap, sanitize, shards, backend)
    if kind == "continuous":
        return _restore_continuous(snap, sanitize)
    raise SnapshotError(f"unknown snapshot kind: {kind!r}")


def _restore_continuous(
    snap: Dict[str, Any], sanitize: SanitizeArg
) -> ContinuousQueryManager:
    """Rebuild a manager by restoring its engine and re-registering the
    handle registry (groups restore from the registry, not from dumped
    member sets).  ``sanitize`` applies to the manager; the engine keeps
    its own recorded mode."""
    engine = restore(snap["engine"])
    if not isinstance(engine, NofNSkyline):
        raise SnapshotError("continuous snapshot must embed an nofn engine")
    manager = ContinuousQueryManager(
        engine,
        sanitize=sanitize,
        query_index=str(snap.get("query_index", "auto")),
    )
    handles: Dict[int, ContinuousQueryHandle] = {}
    for raw in snap["queries"]:
        handle = manager.register(int(raw["n"]))
        query_id = int(raw["id"])
        _require(query_id not in handles, "duplicate continuous query id")
        handle.query_id = query_id
        # Re-anchor the handle's changes counter: re-registration reset
        # it to zero, the original had accumulated `changes`.
        handle._changes_base -= int(raw.get("changes", 0))
        handles[query_id] = handle
    manager._queries = handles
    manager._next_id = int(
        snap.get("next_id", max(handles, default=0) + 1)
    )
    return manager


def _restore_sharded(
    snap: Dict[str, Any],
    sanitize: SanitizeArg,
    shards: Optional[int],
    backend: Optional[str],
) -> Union[ShardedNofNSkyline, ShardedKSkyband]:
    shard_count = int(snap.get("shards", 1)) if shards is None else shards
    chosen = str(snap.get("backend", "serial")) if backend is None else backend
    kwargs: Dict[str, Any] = dict(
        shards=shard_count,
        backend=chosen,
        sanitize=sanitize,
        **_rtree_kwargs(snap),
        **_query_kwargs(snap),
        **_batch_kwargs(snap),
        **_replica_kwargs(snap, chosen),
    )
    router: Union[ShardedNofNSkyline, ShardedKSkyband]
    if snap["kind"] == "sharded-skyband":
        router = ShardedKSkyband(
            snap["dim"], snap["capacity"], int(snap["k"]), **kwargs
        )
    else:
        router = ShardedNofNSkyline(snap["dim"], snap["capacity"], **kwargs)
    previous = 0
    for raw in snap["records"]:
        kappa = int(raw["kappa"])
        _require(
            kappa > previous,
            f"sharded records must be sorted by kappa, got {kappa} "
            f"after {previous}",
        )
        previous = kappa
        element = StreamElement(raw["values"], kappa, raw.get("payload"))
        router._executor.ingest(router._route(kappa), element)
    seen = int(snap["seen_so_far"])
    _require(
        seen >= previous,
        f"seen_so_far {seen} precedes the newest record {previous}",
    )
    router._m = seen
    _restore_stats(router, snap.get("stats"))
    # The replay above is fire-and-forget; a process-backend router with
    # replica_lag=None would otherwise answer its first queries from
    # replicas that have not absorbed it yet.
    router.drain()
    return router


def _replica_kwargs(snap: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """Replica knobs from a sharded snapshot.

    Pre-replica snapshots lack the "replicas" key and restore with the
    defaults.  A recorded ``mode="on"`` is downgraded to ``"auto"``
    when the caller re-targets the snapshot at the serial backend —
    the knob expresses a preference about a backend the restored
    router may not use, not a hard requirement of the data.
    """
    raw = snap.get("replicas", {})
    _require(isinstance(raw, dict), '"replicas" must be a dict when present')
    mode = str(raw.get("mode", "auto"))
    if mode == "on" and backend != "process":
        mode = "auto"
    lag = raw.get("lag", 0)
    return {
        "replicas": mode,
        "replica_lag": None if lag is None else int(lag),
    }


def _rtree_kwargs(snap: Dict[str, Any]) -> Dict[str, Any]:
    """R-tree tuning kwargs from a snapshot.

    Snapshots written before the tuning was recorded lack the "rtree"
    key; they restore with the default, as they always did.  Older
    snapshots also carry ``min_entries``, ``split`` and ``layout``,
    which no longer select anything and are ignored.
    """
    raw = snap.get("rtree", {})
    _require(isinstance(raw, dict), '"rtree" must be a dict when present')
    return {"rtree_max_entries": int(raw.get("max_entries", 12))}


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
    engine._m = int(snap["seen_so_far"])
    by_kappa: Dict[int, _Record] = {}
    for raw in snap["records"]:
        element = StreamElement(
            raw["values"], int(raw["kappa"]), raw.get("payload")
        )
        record = _Record(element, float(raw["label"]))
        record.parent_kappa = int(raw["parent"])
        by_kappa[element.kappa] = record

    for raw in snap["records"]:  # oldest first, as dumped
        record = by_kappa[int(raw["kappa"])]
        if record.parent_kappa:
            parent = by_kappa.get(record.parent_kappa)
            _require(
                parent is not None,
                f"record {record.element.kappa} references missing "
                f"parent {record.parent_kappa}",
            )
            parent.children.add(record.element.kappa)
            low = parent.label
        else:
            low = 0.0
        record.handle = engine._intervals.insert(low, record.label, record)
        record.entry = engine._rtree.insert(
            record.element.values, record.element.kappa, record
        )
        engine._labels.append(record.label, record)
        engine._records[record.element.kappa] = record

    _restore_stats(engine, snap.get("stats"))
    return engine


def _restore_n1n2(
    snap: Dict[str, Any], sanitize: SanitizeArg = "off"
) -> N1N2Skyline:
    engine = N1N2Skyline(
        snap["dim"],
        snap["capacity"],
        sanitize=sanitize,
        **_rtree_kwargs(snap),
        **_query_kwargs(snap),
        **_batch_kwargs(snap),
    )
    engine._m = int(snap["seen_so_far"])
    by_kappa: Dict[int, _WindowRecord] = {}
    for raw in snap["records"]:
        element = StreamElement(
            raw["values"], int(raw["kappa"]), raw.get("payload")
        )
        record = _WindowRecord(element)
        record.a_kappa = int(raw["a"])
        record.b_kappa = None if raw["b"] is None else int(raw["b"])
        record.in_rn = bool(raw["in_rn"])
        by_kappa[element.kappa] = record

    for kappa in sorted(by_kappa):
        record = by_kappa[kappa]
        if record.a_kappa:
            parent = by_kappa.get(record.a_kappa)
            _require(
                parent is not None,
                f"record {kappa} references missing ancestor "
                f"{record.a_kappa}",
            )
            parent.dependents.add(kappa)
        tree = engine._live if record.in_rn else engine._superseded
        record.handle = tree.insert(
            float(record.a_kappa), float(kappa), record
        )
        if record.in_rn:
            _require(
                record.b_kappa is None,
                f"record {kappa} is in R_N but has a finite b",
            )
            engine._rtree.insert(record.element.values, kappa, record)
        engine._records[kappa] = record

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


def loads(
    text: str,
    sanitize: SanitizeArg = None,
    shards: Optional[int] = None,
    backend: Optional[str] = None,
) -> PersistableState:
    """Rebuild an engine from :func:`dumps` output.

    Overrides are forwarded to :func:`restore`: ``shards`` / ``backend``
    re-shard a sharded snapshot onto a different layout on load.
    """
    return restore(
        json.loads(text), sanitize=sanitize, shards=shards, backend=backend
    )
