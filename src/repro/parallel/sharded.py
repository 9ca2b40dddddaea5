"""Sharded routers: round-robin ingestion, fan-out/merge queries.

:class:`ShardedNofNSkyline` and :class:`ShardedKSkyband` preserve one
global kappa sequence — element ``kappa`` is its 1-based position in
the *full* stream — and route it to shard ``(kappa - 1) % S``, where it
is ingested by a per-shard engine labelled with global kappas
(:mod:`repro.parallel.shard_engines`).  Queries fan the stab point
``M - n + 1`` out to every shard (each answers from its own versioned
stab cache) and merge exactly (:mod:`repro.parallel.merge`).

Two executor backends (``backend=``):

``"serial"``
    Every shard engine lives in-process.  Deterministic reference; also
    the fastest option for small batches, since it pays no IPC.
``"process"``
    One worker process per shard, fed by per-shard command queues.
    Ingestion commands are fire-and-forget and batched through the
    engines' ``append_many`` fast path to amortize pickling; queries
    are the synchronisation points.  Worker failures surface as
    :class:`~repro.exceptions.ShardFailureError` (never a hang).

The routers return plain :class:`~repro.core.element.StreamElement`
sequences from ingestion (not per-arrival outcome streams): with
fire-and-forget workers the maintenance effects are not observable
synchronously, and pretending otherwise would make the two backends
behaviourally different.  Continuous queries therefore attach to
single-process engines only.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.accel.batch_prefilter import resolve_batch_chunk
from repro.core.element import StreamElement
from repro.core.stats import EngineStats
from repro.exceptions import DimensionMismatchError, InvalidWindowError
from repro.parallel.executors import ProcessExecutor, SerialExecutor
from repro.parallel.merge import merge_skyband, merge_skyline
from repro.parallel.replicas import ReplicaSnapshot, pending_elements
from repro.sanitize.sanitizer import InvariantSanitizer, SanitizeArg

ShardBackend = Union[SerialExecutor, ProcessExecutor]

BACKENDS = ("serial", "process")

#: The ``replicas=`` knob: ``"auto"`` enables the shared-memory read
#: path whenever the backend has a process boundary to short-circuit
#: (i.e. ``"process"``), ``"on"`` requires it, ``"off"`` disables it.
REPLICA_MODES = ("auto", "on", "off")


class _ShardedRouter:
    """Shared routing/introspection plumbing of the two sharded engines."""

    _kind = ""

    def __init__(
        self,
        dim: int,
        capacity: int,
        shards: int = 4,
        backend: str = "serial",
        rtree_max_entries: int = 12,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        timeout: float = 120.0,
        replicas: str = "auto",
        replica_lag: Optional[int] = 0,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise InvalidWindowError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if replicas not in REPLICA_MODES:
            raise ValueError(
                f"replicas must be one of {REPLICA_MODES}, got {replicas!r}"
            )
        if replicas == "on" and backend != "process":
            raise ValueError(
                "replicas='on' requires the process backend; the serial "
                "backend has no process boundary to replicate across"
            )
        if replica_lag is not None and replica_lag < 0:
            raise ValueError(
                f"replica_lag must be >= 0 or None, got {replica_lag}"
            )
        self.dim = dim
        self.capacity = capacity
        self.shards = shards
        self.backend = backend
        self._m = 0
        self._sanitizer = InvariantSanitizer.coerce(sanitize)
        self._rtree_max_entries = rtree_max_entries
        self._query_cache = query_cache
        self._batch_chunk = resolve_batch_chunk(batch_chunk)
        self.replica_mode = replicas
        self.replica_lag = replica_lag
        self._replicas_enabled = (
            backend == "process" and replicas != "off"
        )
        self._suppress_replicas = False
        self._replica_serves = 0
        self._replica_fallbacks = 0
        self._replica_stale = 0
        self._replica_unavailable = 0
        self.stats = EngineStats()
        specs = [self._shard_spec(index) for index in range(shards)]
        self._executor: ShardBackend = (
            SerialExecutor(specs)
            if backend == "serial"
            else ProcessExecutor(
                specs, timeout=timeout, replicas=self._replicas_enabled
            )
        )

    def _shard_spec(self, index: int) -> Dict[str, Any]:
        """Picklable construction recipe for shard ``index``.  Shards
        re-run their own sanitizer at the router's mode; the router
        additionally cross-checks the merge (``shard-merge``)."""
        return {
            "kind": self._kind,
            "dim": self.dim,
            "capacity": self.capacity,
            "stride": self.shards,
            "rtree_max_entries": self._rtree_max_entries,
            "sanitize": self.sanitize_mode,
            "query_cache": self._query_cache,
            "batch_chunk": self._batch_chunk,
        }

    # -- ingestion ------------------------------------------------------

    def _route(self, kappa: int) -> int:
        return (kappa - 1) % self.shards

    def append(
        self, values: Sequence[float], payload: Any = None
    ) -> StreamElement:
        """Ingest one stream element; return it (globally labelled)."""
        element = StreamElement(values, self._m + 1, payload)
        if len(element.values) != self.dim:
            raise DimensionMismatchError(self.dim, len(element.values))
        self._executor.ingest(self._route(element.kappa), element)
        self._m += 1
        self.stats.arrivals += 1
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)
        return element

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[StreamElement]:
        """Ingest a batch; one ``ingest_many`` per shard (amortized IPC).

        Validation is all-or-nothing, as everywhere else: a bad point
        anywhere in the batch raises before any shard sees anything.
        """
        pts = list(points)
        if payloads is None:
            payloads = [None] * len(pts)
        elif len(payloads) != len(pts):
            raise ValueError(
                f"got {len(pts)} points but {len(payloads)} payloads"
            )
        elements: List[StreamElement] = []
        for offset, (values, payload) in enumerate(zip(pts, payloads)):
            element = StreamElement(values, self._m + offset + 1, payload)
            if len(element.values) != self.dim:
                raise DimensionMismatchError(self.dim, len(element.values))
            elements.append(element)
        per_shard: List[List[StreamElement]] = [
            [] for _ in range(self.shards)
        ]
        for element in elements:
            per_shard[self._route(element.kappa)].append(element)
        started = perf_counter()
        for shard, sub_batch in enumerate(per_shard):
            if sub_batch:
                self._executor.ingest_many(shard, sub_batch)
        self._m += len(elements)
        self.stats.arrivals += len(elements)
        self.stats.record_batch(
            size=len(elements), dropped=0, seconds=perf_counter() - started
        )
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)
        return elements

    # -- query plumbing -------------------------------------------------

    def _stab_point(self, n: int) -> Optional[int]:
        if not 1 <= n <= self.capacity:
            raise InvalidWindowError(
                f"n must be in [1, {self.capacity}], got {n}"
            )
        if self._m == 0:
            return None
        return max(1, self._m - n + 1)

    def _replica_snapshots(self) -> Optional[List[ReplicaSnapshot]]:
        """Consistent per-shard replica snapshots, or ``None`` when the
        command-queue path must be used instead.

        All-or-nothing: a single shard that is unavailable (nothing
        published, control block gone, flip in progress) or stale beyond
        ``replica_lag`` pending elements falls the whole query back to
        IPC — mixing replica answers with authoritative ones would break
        the merge's Theorem 1 containment argument, which needs every
        shard's answer to cover its own sub-stream suffix.

        ``replica_lag=0`` (the default) serves from replicas only when
        every shard has absorbed its entire routed prefix — replica
        answers are then bit-identical to the IPC path.  ``None`` means
        unbounded staleness: always serve when available (a true read
        replica, each answer exact at the version it claims).
        """
        if not self._replicas_enabled or self._suppress_replicas:
            return None
        readers = self._executor.replica_readers
        if readers is None:  # pragma: no cover - enabled implies readers
            return None
        snapshots: List[ReplicaSnapshot] = []
        for shard, reader in enumerate(readers):
            snapshot = reader.read()
            if snapshot is None:
                self._replica_unavailable += 1
                self._replica_fallbacks += 1
                return None
            if self.replica_lag is not None:
                pending = pending_elements(
                    snapshot.seen, self._m, shard, self.shards
                )
                if pending > self.replica_lag:
                    self._replica_stale += 1
                    self._replica_fallbacks += 1
                    return None
            snapshots.append(snapshot)
        self._replica_serves += 1
        return snapshots

    def _merged(self, stabs: Sequence[int]) -> List[List[StreamElement]]:
        """Fan the stab points out and merge, one fan-out round trip per
        shard regardless of ``len(stabs)``.  Overridden per engine."""
        raise NotImplementedError

    def query(self, n: int) -> List[StreamElement]:
        """The answer over the most recent ``n`` elements, sorted by
        ``kappa`` — exactly what the single-engine counterpart returns.

        Raises
        ------
        InvalidWindowError
            If ``n`` is not in ``[1, capacity]``.
        ShardFailureError
            If a shard worker died or timed out (process backend).
        """
        stab = self._stab_point(n)
        if stab is None:
            self.stats.record_query(0)
            return []
        merged = self._merged([stab])[0]
        self.stats.record_query(len(merged))
        return merged

    def query_all(self, ns: Sequence[int]) -> List[List[StreamElement]]:
        """Answer several query sizes with a single fan-out round per
        shard (one IPC round trip on the process backend)."""
        stabs = [self._stab_point(n) for n in ns]  # validates every n
        if not ns or self._m == 0:
            for _ in ns:
                self.stats.record_query(0)
            return [[] for _ in ns]
        answers = self._merged([s for s in stabs if s is not None])
        for answer in answers:
            self.stats.record_query(len(answer))
        return answers

    # -- introspection --------------------------------------------------

    @property
    def seen_so_far(self) -> int:
        """``M`` — number of elements ingested across all shards."""
        return self._m

    @property
    def sanitizer(self) -> Optional[InvariantSanitizer]:
        """The attached sanitizer, or ``None`` when checking is off."""
        return self._sanitizer

    @property
    def sanitize_mode(self) -> str:
        """The active sanitize mode (``"off"`` when none is attached)."""
        return "off" if self._sanitizer is None else self._sanitizer.mode

    @property
    def batch_chunk(self) -> int:
        """The effective batched-ingest chunk size forwarded to every
        shard engine (the ``batch_chunk`` knob, or the library default
        when unset)."""
        return self._batch_chunk

    @property
    def structure_version(self) -> int:
        """Sum of the shards' interval-encoding versions — monotonic,
        bumps whenever any shard's query answer can change.  Requires a
        fan-out round trip on the process backend."""
        return sum(
            int(shard["structure_version"])
            for shard in self._executor.introspect_all()
        )

    @property
    def retained_size(self) -> int:
        """Total retained elements across shards (>= the single-engine
        count: each shard prunes only against its own sub-stream)."""
        return sum(
            int(shard["retained"]) for shard in self._executor.introspect_all()
        )

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard introspection bundles (retained size, seen count,
        structure version, cache counters, engine stats)."""
        bundles = self._executor.introspect_all()
        for index, bundle in enumerate(bundles):
            bundle["shard"] = index
        return bundles

    def drain(self) -> None:
        """Block until every shard has applied all prior fire-and-forget
        ingests (and, with replicas on, republished its snapshot).  A
        no-op on the serial backend; one ``ping`` round trip per shard
        on the process backend.

        Raises
        ------
        ShardFailureError
            If a shard worker died or timed out (process backend).
        """
        self._executor.barrier()

    def replica_stats(self) -> Optional[Dict[str, Any]]:
        """Zero-IPC read-path counters, or ``None`` when replicas are
        disabled (serial backend or ``replicas="off"``).

        ``serves``/``fallbacks`` count fan-out rounds answered from the
        shared-memory replicas vs routed through the command queues;
        ``stale``/``unavailable`` break the fallbacks down by cause.
        ``shards`` holds each reader's lifetime counters plus the
        shard's currently published header fields.
        """
        if not self._replicas_enabled:
            return None
        readers = self._executor.replica_readers
        per_shard = (
            [] if readers is None else [reader.stats() for reader in readers]
        )
        return {
            "enabled": True,
            "lag": self.replica_lag,
            "serves": self._replica_serves,
            "fallbacks": self._replica_fallbacks,
            "stale": self._replica_stale,
            "unavailable": self._replica_unavailable,
            "shards": per_shard,
        }

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Aggregated stab-cache counters across shards (``None`` when
        caching is disabled)."""
        if not self._query_cache:
            return None
        totals: Dict[str, int] = {}
        for bundle in self._executor.introspect_all():
            cache = bundle["cache"]
            if cache is None:
                return None
            for key, value in cache.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def retained_union(self, stab: float) -> List[StreamElement]:
        """Union of the shards' retained elements with
        ``kappa >= stab``, kappa-ascending (merge witnesses; also the
        sanitizer's oracle population)."""
        union = [
            element
            for suffix in self._executor.retained_all(stab)
            for element in suffix
        ]
        union.sort(key=lambda element: element.kappa)
        return union

    def __len__(self) -> int:
        return self.retained_size

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the executor (stops worker processes; never hangs)."""
        self._executor.close()

    def __enter__(self) -> "_ShardedRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- validation -----------------------------------------------------

    def check_invariants(self) -> None:
        """Verify every shard engine, then the shard-merge itself.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        self._executor.check_all()
        from repro.sanitize.checks import verify_sharded

        verify_sharded(self)


class ShardedNofNSkyline(_ShardedRouter):
    """Sharded n-of-N skyline engine: exact answers, ``S``-way parallel
    maintenance.

    Parameters match :class:`~repro.core.nofn.NofNSkyline` plus:

    shards:
        Number of round-robin sub-streams ``S``.
    backend:
        ``"serial"`` (in-process reference) or ``"process"``
        (one worker per shard; see the module docstring).
    timeout:
        Process-backend reply deadline in seconds.
    replicas:
        Zero-IPC read path: ``"auto"`` (on whenever the backend is
        ``"process"``), ``"on"`` (require it; rejects ``"serial"``) or
        ``"off"``.  See :meth:`_ShardedRouter._replica_snapshots`.
    replica_lag:
        Maximum pending (routed but possibly unabsorbed) elements a
        shard replica may trail by and still serve a query.  ``0``
        (default) serves only fully caught-up replicas — answers are
        bit-identical to the command-queue path; ``None`` means
        unbounded (always serve when available, exact at the version
        the replica claims).
    """

    _kind = "nofn"

    def _merged(self, stabs: Sequence[int]) -> List[List[StreamElement]]:
        snapshots = self._replica_snapshots()
        if snapshots is not None:
            per_shard: List[List[List[StreamElement]]] = [
                [snapshot.stab(stab) for stab in stabs]
                for snapshot in snapshots
            ]
        else:
            per_shard = self._executor.stabs_all(stabs)
        return [
            merge_skyline([answers[i] for answers in per_shard])
            for i in range(len(stabs))
        ]

    def skyline(self) -> List[StreamElement]:
        """Skyline of the whole window (``n = N``)."""
        return self.query(self.capacity)


class ShardedKSkyband(_ShardedRouter):
    """Sharded n-of-N k-skyband engine (``k = 1`` is the skyline).

    Parameters match :class:`~repro.core.skyband.KSkybandEngine` plus
    ``shards`` / ``backend`` / ``timeout`` as on
    :class:`ShardedNofNSkyline`.
    """

    _kind = "skyband"

    def __init__(
        self,
        dim: int,
        capacity: int,
        k: int,
        shards: int = 4,
        backend: str = "serial",
        rtree_max_entries: int = 12,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        timeout: float = 120.0,
        replicas: str = "auto",
        replica_lag: Optional[int] = 0,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        super().__init__(
            dim,
            capacity,
            shards=shards,
            backend=backend,
            rtree_max_entries=rtree_max_entries,
            sanitize=sanitize,
            query_cache=query_cache,
            timeout=timeout,
            replicas=replicas,
            replica_lag=replica_lag,
            batch_chunk=batch_chunk,
        )

    def _shard_spec(self, index: int) -> Dict[str, Any]:
        spec = super()._shard_spec(index)
        spec["k"] = self.k
        return spec

    def _merged(self, stabs: Sequence[int]) -> List[List[StreamElement]]:
        witness_stab = min(stabs)
        snapshots = self._replica_snapshots()
        if snapshots is not None:
            replies: List[Any] = [
                (
                    [snapshot.stab(stab) for stab in stabs],
                    snapshot.retained_suffix(witness_stab),
                )
                for snapshot in snapshots
            ]
        else:
            replies = self._executor.band_all(stabs, witness_stab)
        witnesses = [
            element for _, suffix in replies for element in suffix
        ]
        merged: List[List[StreamElement]] = []
        for i, stab in enumerate(stabs):
            candidates = [answers[i] for answers, _ in replies]
            scoped = (
                witnesses
                if stab == witness_stab
                else [w for w in witnesses if w.kappa >= stab]
            )
            merged.append(merge_skyband(candidates, scoped, self.k))
        return merged

    def skyband(self) -> List[StreamElement]:
        """The k-skyband of the whole window (``n = N``)."""
        return self.query(self.capacity)
