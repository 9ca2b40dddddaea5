"""The n-of-N skyline engine (paper sections 3.1-3.3).

:class:`NofNSkyline` maintains, over an append-only stream, exactly the
state the paper proves sufficient for answering *every* n-of-N skyline
query (``n <= N``):

* ``R_N`` — the non-redundant elements (Theorem 1), held in an
  in-memory R-tree, an ordered label set, and an interval tree, wired
  together as in Figure 6;
* the **critical dominance graph** ``G_{R_N}`` — each element points to
  its youngest older dominator within ``R_N`` (a forest) — encoded as
  half-open intervals ``(kappa(parent), kappa(e)]`` (roots:
  ``(0, kappa(e)]``).

Per arrival, :meth:`append` runs Algorithm 1:

1. expire the oldest ``R_N`` element once it leaves the window,
   re-rooting its children's intervals to ``(0, kappa(child)]``;
2. find and eject ``D_{e_new}`` — everything the newcomer weakly
   dominates — via depth-first R-tree dominance reporting;
3. find the newcomer's critical dominator via best-first R-tree search;
4. install the newcomer's interval, R-tree entry and label.

:meth:`query` then answers an n-of-N query as a **stabbing query**
(Theorem 3): stab the interval tree with ``M - n + 1`` and report the
elements owning the stabbed intervals — ``O(log N + s)`` behaviour.

The label/threshold machinery is factored into small overridable hooks
so :class:`repro.core.timewindow.TimeWindowSkyline` can reuse the whole
engine with timestamps instead of positions (the paper's closing remark
in section 6).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.accel.batch_prefilter import (
    BatchPrefilter,
    iter_chunks,
    resolve_batch_chunk,
)
from repro.accel.stab_cache import StabCache
from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome, ExpiredRecord
from repro.core.stats import EngineStats
from repro.exceptions import (
    DimensionMismatchError,
    InvalidWindowError,
    StructureCorruptionError,
)
from repro.sanitize.sanitizer import InvariantSanitizer, SanitizeArg
from repro.structures.interval_tree import IntervalHandle, IntervalTree
from repro.structures.labelset import LabelSet
from repro.structures.rtree_soa import SoARTree


class _Record:
    """Book-keeping for one element of ``R_N``.

    Realises the 1-1 links of Figure 6: element <-> R-tree entry <->
    interval <-> label.
    """

    __slots__ = ("element", "label", "parent_kappa", "children", "handle", "entry")

    def __init__(self, element: StreamElement, label: float) -> None:
        self.element = element
        self.label = label
        self.parent_kappa: int = 0
        self.children: Set[int] = set()
        self.handle: Optional[IntervalHandle] = None
        self.entry = None


def _record_kappa(record: _Record) -> int:
    """Query-order sort key (module-level so the cache can share it)."""
    return record.element.kappa


class NofNSkyline:
    """Sliding-window engine answering all n-of-N skyline queries.

    Parameters
    ----------
    dim:
        Dimensionality of the stream's value vectors.
    capacity:
        ``N`` — the window size.  Queries may use any ``n <= N``.
    rtree_max_entries:
        Fan-out of the internal R-tree (``>= 4``); the SoA index derives
        its block capacity from it.
    sanitize:
        Runtime invariant checking: ``"off"`` (default), ``"sampled"``,
        ``"full"``, or a ready-made
        :class:`~repro.sanitize.InvariantSanitizer` to share between
        engines.  See :mod:`repro.sanitize`.
    query_cache:
        When true (the default), :meth:`query` answers through a
        :class:`~repro.accel.stab_cache.StabCache` — a versioned flat
        snapshot of the interval set with per-stab-point memoization —
        instead of stabbing the red-black tree per call.  Invalidation
        is exact (every structural write bumps the tree version), so
        answers are always identical to the uncached path.
    batch_chunk:
        Slice size of the :meth:`append_many` pipeline (``None`` — the
        default — means :data:`repro.accel.batch_prefilter.CHUNK`).
        Larger chunks amortise more index work per NumPy call; chunks
        are also the granularity of sanitizer verification during a
        batch.  Must be ``>= 1``.

    Notes
    -----
    Dominance is *weak* (coordinate-wise ``<=``): of exactly duplicated
    points only the youngest copy is retained and reported (DESIGN.md
    §7); under the paper's distinct-values assumption behaviour is
    identical to strict dominance.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        rtree_max_entries: int = 12,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise InvalidWindowError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.capacity = capacity
        self._batch_chunk = resolve_batch_chunk(batch_chunk)
        self._sanitizer = InvariantSanitizer.coerce(sanitize)
        self._m = 0
        self._records: Dict[int, _Record] = {}
        self._labels: LabelSet[_Record] = LabelSet()
        self._intervals: IntervalTree[_Record] = IntervalTree()
        self._rtree = SoARTree(dim, max_entries=rtree_max_entries)
        # Memoized answers come back pre-sorted in query order, so the
        # cached query path never re-sorts.
        self._stab_cache: Optional[StabCache[_Record]] = (
            StabCache(self._intervals, sort_key=_record_kappa)
            if query_cache
            else None
        )
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Hooks overridden by the time-window variant
    # ------------------------------------------------------------------

    def _assign_label(self, element: StreamElement) -> float:
        """The label used as interval endpoints; positions by default."""
        return element.kappa

    def _window_start(self, new_label: float) -> float:
        """Labels strictly below this value have left the window."""
        return self._m - self.capacity + 1

    def _note_arrival(self, label: float) -> None:
        """Per-arrival clock bookkeeping for the batched path (no-op for
        count-based windows; the time-window variant advances ``now``)."""

    def _final_threshold(self, last_label: float, count: int) -> float:
        """The value :meth:`_window_start` will return at the last of the
        next ``count`` arrivals (ending at ``last_label``) — the batched
        path's once-per-chunk expiry gate."""
        return self._m + count - self.capacity + 1

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 1)
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> ArrivalOutcome:
        """Ingest one stream element; return what changed.

        The returned :class:`ArrivalOutcome` feeds the continuous-query
        manager (Algorithm 2); ad-hoc users may ignore it.
        """
        self._m += 1
        element = StreamElement(values, self._m, payload)
        label = self._assign_label(element)
        return self._arrive(element, label)

    def _arrive(self, element: StreamElement, label: float) -> ArrivalOutcome:
        # -- Lines 2-8: expire elements that left the window. ----------
        threshold = self._window_start(label)
        expired: List[ExpiredRecord] = []
        while self._labels:
            oldest_label, oldest = self._labels.oldest()
            if oldest_label >= threshold:
                break
            expired.append(self._expire(oldest))

        # -- Lines 9-13: eject D_{e_new}. ------------------------------
        dominated: List[StreamElement] = []
        for entry in self._rtree.remove_dominated(element.values):
            record: _Record = entry.data
            self._detach(record)
            dominated.append(record.element)

        # -- Lines 14-15: critical dominator + installation. -----------
        parent_entry = self._rtree.max_kappa_dominator(element.values)
        record = _Record(element, label)
        if parent_entry is None:
            low = 0.0
        else:
            parent: _Record = parent_entry.data
            record.parent_kappa = parent.element.kappa
            parent.children.add(element.kappa)
            low = parent.label
        record.handle = self._intervals.insert(low, label, record)
        record.entry = self._rtree.insert(element.values, element.kappa, record)
        self._labels.append(label, record)
        self._records[element.kappa] = record

        self.stats.record_arrival(
            expired=len(expired),
            dominated=len(dominated),
            rn_size=len(self._records),
        )
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)
        return ArrivalOutcome(
            element=element,
            seen_so_far=self._m,
            dominated_removed=tuple(dominated),
            parent_kappa=record.parent_kappa,
            expired=tuple(expired),
        )

    # ------------------------------------------------------------------
    # Batched ingestion fast path
    # ------------------------------------------------------------------

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> BatchOutcome:
        """Ingest a batch of stream elements; return what changed.

        Semantically identical to calling :meth:`append` once per point
        (the returned :class:`~repro.core.events.BatchOutcome` carries
        the exact per-element :class:`ArrivalOutcome` sequence those
        calls would have produced), but much faster on bursty feeds: a
        vectorised intra-batch prefilter proves which batch members are
        dominated by a younger same-batch member before any query could
        observe them, and those members skip all R-tree / interval-tree
        / label-set maintenance.  The window-expiry scan is likewise
        gated once per chunk instead of once per arrival.

        Validation is all-or-nothing: dimension mismatches and invalid
        values raise before any engine state changes.
        """
        elements = self._batch_elements(points, payloads)
        return self._ingest_batch(
            elements, [self._assign_label(e) for e in elements]
        )

    def _batch_elements(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]],
    ) -> List[StreamElement]:
        """Construct and validate the batch's elements without mutating
        engine state (all-or-nothing ingestion)."""
        pts = list(points)
        if payloads is None:
            payloads = [None] * len(pts)
        elif len(payloads) != len(pts):
            raise ValueError(
                f"got {len(pts)} points but {len(payloads)} payloads"
            )
        elements = []
        for offset, (values, payload) in enumerate(zip(pts, payloads)):
            element = StreamElement(values, self._m + offset + 1, payload)
            if len(element.values) != self.dim:
                raise DimensionMismatchError(self.dim, len(element.values))
            elements.append(element)
        return elements

    def _ingest_batch(
        self, elements: List[StreamElement], labels: List[float]
    ) -> BatchOutcome:
        """Run the chunked batch-arrival loop over validated elements."""
        started = perf_counter()
        outcomes: List[ArrivalOutcome] = []
        dropped = 0
        for lo, hi in iter_chunks(len(elements), self._batch_chunk):
            dropped += self._arrive_chunk(elements, labels, lo, hi, outcomes)
            if self._sanitizer is not None:
                self._sanitizer.maybe_verify(self)
        batch = BatchOutcome(tuple(outcomes), prefilter_dropped=dropped)
        self.stats.record_batch(
            size=len(elements), dropped=dropped, seconds=perf_counter() - started
        )
        return batch

    def _chunk_expiry_gate(
        self, labels: List[float], lo: int, hi: int
    ) -> bool:
        """Once-per-chunk expiry gate: if neither the oldest live label
        nor the chunk's own first label can fall below the window start
        as of the chunk's *last* arrival, no arrival in the chunk can
        expire anything (thresholds are monotone)."""
        threshold_end = self._final_threshold(labels[hi - 1], hi - lo)
        return labels[lo] < threshold_end or (
            bool(self._labels) and self._labels.oldest()[0] < threshold_end
        )

    def _expire_step(
        self,
        threshold: float,
        pending: Dict[int, _Record],
        defer: Callable[[int], None],
    ) -> List[ExpiredRecord]:
        """Run one arrival's merged pending/indexed expiry sweep."""
        expired: List[ExpiredRecord] = []
        while True:
            tree_oldest = self._labels.oldest() if self._labels else None
            pend_oldest = pending[next(iter(pending))] if pending else None
            if tree_oldest is not None and (
                pend_oldest is None or tree_oldest[0] <= pend_oldest.label
            ):
                if tree_oldest[0] >= threshold:
                    break
                expired.append(self._expire(tree_oldest[1], pending, defer))
            elif pend_oldest is not None:
                if pend_oldest.label >= threshold:
                    break
                expired.append(self._expire_pending(pend_oldest, pending))
            else:
                break
        return expired

    def _arrive_chunk(
        self,
        elements: List[StreamElement],
        labels: List[float],
        lo: int,
        hi: int,
        outcomes: List[ArrivalOutcome],
    ) -> int:
        """Ingest ``elements[lo:hi]``, appending one outcome per element.

        The dominance index is *frozen* for the duration of the chunk:
        both chunk-wide searches (:meth:`SoARTree.report_dominated_batch`,
        :meth:`SoARTree.max_kappa_dominator_batch`) run once up front
        against the chunk-start state, every per-arrival mutation is
        deferred, and the chunk flushes with one
        :meth:`SoARTree.delete_many` + one :meth:`SoARTree.insert_many`.

        Doomed members (those the prefilter proved dominated by a
        younger same-chunk member) are parked in ``pending`` — logically
        part of ``R_N``, but never inserted into the index structures —
        until their killer arrives or they expire.  Correctness of the
        shortcut rests on weak dominance being transitive: a pending
        member can never be the critical parent of a surviving member
        (its killer would doom the survivor too).

        Per-element semantics are reconstructed exactly:

        * dominance victims carry first-arrival attribution, and an
          arrival skips victims another arrival (or an expiry) already
          removed — the aliveness check against ``self._records``;
        * a chunk survivor is never dominated by any chunk member (the
          prefilter would have doomed it), so survivors installed
          mid-chunk only ever *leave* via expiry — handled by dropping
          their deferred insert;
        * critical parents resolve intra-chunk candidates from the
          prefilter's dominance matrix (youngest alive wins — chunk
          kappas exceed every indexed kappa) and fall back to the
          frozen-tree answer, walked past entries that died mid-chunk
          via ``max_kappa_dominator(kappa_below=...)``.
        """
        chunk = elements[lo:hi]
        points = [e.values for e in chunk]
        pre = BatchPrefilter(points, k=1)
        may_expire = self._chunk_expiry_gate(labels, lo, hi)
        rtree = self._rtree
        victims0 = rtree.report_dominated_batch(points)
        parents0 = rtree.max_kappa_dominator_batch(points)
        deferred_deletes: List[int] = []
        deferred_inserts: Dict[int, _Record] = {}

        def defer_delete(kappa: int) -> None:
            if deferred_inserts.pop(kappa, None) is None:
                deferred_deletes.append(kappa)

        pending: Dict[int, _Record] = {}
        for i, element in enumerate(chunk):
            label = labels[lo + i]
            self._m = element.kappa
            self._note_arrival(label)

            expired: List[ExpiredRecord] = []
            if may_expire:
                expired = self._expire_step(
                    self._window_start(label), pending, defer_delete
                )

            dominated: List[StreamElement] = []
            for entry in victims0[i]:
                tree_record = self._records.get(entry.kappa)
                if tree_record is None:
                    continue  # expired earlier in the chunk
                self._detach(tree_record)
                defer_delete(entry.kappa)
                dominated.append(tree_record.element)
            for h in pre.killed_at(i):
                doomed = pending.pop(chunk[h].kappa, None)
                if doomed is None:
                    continue  # already expired
                parent = self._records.get(doomed.parent_kappa)
                if parent is None:
                    parent = pending.get(doomed.parent_kappa)
                if parent is not None:
                    parent.children.discard(doomed.element.kappa)
                dominated.append(doomed.element)

            record = _Record(element, label)
            # Intra-chunk parent candidates, youngest first.  Any alive
            # candidate outranks the whole frozen tree (chunk kappas are
            # the largest in the window).  For survivors only installed
            # chunk survivors can qualify — an *alive* pending dominator
            # would imply the survivor is doomed (transitivity).
            best: Optional[_Record] = None
            for h in pre.older_weak_dominators(i):
                kappa_h = chunk[h].kappa
                best = pending.get(kappa_h) or self._records.get(kappa_h)
                if best is not None:
                    break
                # killed or expired already — keep walking
            if best is None:
                parent_entry = parents0[i]
                while (
                    parent_entry is not None
                    and parent_entry.kappa not in self._records
                ):
                    # The frozen-tree answer died mid-chunk: descend.
                    parent_entry = rtree.max_kappa_dominator(
                        element.values, kappa_below=parent_entry.kappa
                    )
                if parent_entry is not None:
                    best = parent_entry.data
            if best is not None:
                record.parent_kappa = best.element.kappa
                best.children.add(element.kappa)
            if pre.is_doomed(i):
                pending[element.kappa] = record
            else:
                low = 0.0 if best is None else best.label
                record.handle = self._intervals.insert(low, label, record)
                deferred_inserts[element.kappa] = record
                self._labels.append(label, record)
                self._records[element.kappa] = record

            self.stats.record_arrival(
                expired=len(expired),
                dominated=len(dominated),
                rn_size=len(self._records) + len(pending),
            )
            outcomes.append(
                ArrivalOutcome(
                    element=element,
                    seen_so_far=element.kappa,
                    dominated_removed=tuple(dominated),
                    parent_kappa=record.parent_kappa,
                    expired=tuple(expired),
                )
            )
        if pending:
            raise StructureCorruptionError(
                f"{len(pending)} doomed batch members survived their chunk"
            )
        if deferred_deletes:
            rtree.delete_many(deferred_deletes)
        if deferred_inserts:
            survivors = list(deferred_inserts.values())
            entries = rtree.insert_many(
                [r.element.values for r in survivors],
                [r.element.kappa for r in survivors],
                survivors,
            )
            for survivor, entry in zip(survivors, entries):
                survivor.entry = entry
        return pre.dropped

    def _expire(
        self,
        record: _Record,
        pending: Optional[Dict[int, _Record]] = None,
        defer: Optional[Callable[[int], None]] = None,
    ) -> ExpiredRecord:
        """Remove an expired root from ``R_N``, re-rooting its children.

        ``pending`` is supplied by the batched path: a child may be a
        doomed batch member awaiting its in-batch killer — it has no
        interval yet, only a parent link to clear.  ``defer`` (the
        frozen-tree pipeline) replaces the R-tree delete with a
        deferred-mutation callback.
        """
        if record.parent_kappa != 0:
            raise StructureCorruptionError(
                f"expiring element {record.element.kappa} is not a root of "
                f"the dominance graph (critical parent "
                f"{record.parent_kappa} outlived it)"
            )
        children_elements: List[StreamElement] = []
        for child_kappa in sorted(record.children):
            child = self._records.get(child_kappa)
            if child is not None:
                child.handle = self._intervals.replace(
                    child.handle, 0.0, child.label
                )
            elif pending is not None and child_kappa in pending:
                child = pending[child_kappa]
            else:
                raise StructureCorruptionError(
                    f"dominance-graph child {child_kappa} of expiring "
                    f"element {record.element.kappa} is missing from R_N"
                )
            child.parent_kappa = 0
            children_elements.append(child.element)
        self._intervals.remove(record.handle)
        if defer is None:
            self._rtree.delete(record.element.kappa)
        else:
            defer(record.element.kappa)
        self._labels.remove(record.label)
        del self._records[record.element.kappa]
        record.handle = None
        record.entry = None
        return ExpiredRecord(
            element=record.element,
            children=tuple(children_elements),
        )

    def _expire_pending(
        self, record: _Record, pending: Dict[int, _Record]
    ) -> ExpiredRecord:
        """Expire a doomed batch member that left the window before its
        in-batch killer arrived (bursty time windows; count windows
        smaller than the chunk).  It owns no index entries — only the
        dominance-graph links need maintenance."""
        if record.parent_kappa != 0:
            raise StructureCorruptionError(
                f"expiring element {record.element.kappa} is not a root of "
                f"the dominance graph (critical parent "
                f"{record.parent_kappa} outlived it)"
            )
        del pending[record.element.kappa]
        children_elements: List[StreamElement] = []
        for child_kappa in sorted(record.children):
            child = pending.get(child_kappa)
            if child is None:
                raise StructureCorruptionError(
                    f"dominance-graph child {child_kappa} of expiring "
                    f"element {record.element.kappa} is missing from R_N"
                )
            child.parent_kappa = 0
            children_elements.append(child.element)
        return ExpiredRecord(
            element=record.element,
            children=tuple(children_elements),
        )

    def _detach(self, record: _Record) -> None:
        """Remove a dominated element's interval, label and parent link.

        The R-tree entry has already been removed (by
        :meth:`SoARTree.remove_dominated`, or queued for the chunk's
        :meth:`SoARTree.delete_many`).
        """
        self._intervals.remove(record.handle)
        record.handle = None
        record.entry = None
        parent = self._records.get(record.parent_kappa)
        if parent is not None:
            parent.children.discard(record.element.kappa)
        self._labels.remove(record.label)
        del self._records[record.element.kappa]

    # ------------------------------------------------------------------
    # Query processing (Theorem 3 / section 3.2)
    # ------------------------------------------------------------------

    def query(self, n: int) -> List[StreamElement]:
        """Skyline of the most recent ``n`` elements, sorted by ``kappa``.

        Raises
        ------
        InvalidWindowError
            If ``n`` is not in ``[1, capacity]``.
        """
        stab = self._stab_point(n)
        if stab is None:
            self.stats.record_query(0)
            return []
        if self._stab_cache is not None:
            records = self._stab_cache.stab(stab)  # pre-sorted by kappa
        else:
            records = self._intervals.stab(stab)
            records.sort(key=_record_kappa)
        self.stats.record_query(len(records))
        return [r.element for r in records]

    def _stab_point(self, n: int) -> Optional[float]:
        if not 1 <= n <= self.capacity:
            raise InvalidWindowError(
                f"n must be in [1, {self.capacity}], got {n}"
            )
        if self._m == 0:
            return None
        # A query for more elements than have arrived degenerates to the
        # skyline of everything seen so far (stab point clamps to 1).
        return max(1, self._m - n + 1)

    def skyline(self) -> List[StreamElement]:
        """Skyline of the whole window (the classic sliding-window case,
        ``n = N``)."""
        return self.query(self.capacity)

    def query_scan(self, n: int) -> List[StreamElement]:
        """Ablation/debug variant of :meth:`query`: answer by scanning
        ``R_N`` and applying Theorem 3 directly, without the interval
        tree — ``O(|R_N|)`` instead of ``O(log N + s)``.

        Returns exactly what :meth:`query` returns; exists so the
        benchmarks can price the interval-tree design choice and so
        tests have an independent second implementation.
        """
        stab = self._stab_point(n)
        if stab is None:
            self.stats.record_query(0)
            return []
        results = []
        for kappa, record in self._records.items():
            parent_label = (
                0.0
                if record.parent_kappa == 0
                else self._records[record.parent_kappa].label
            )
            if parent_label < stab <= record.label:
                results.append(record.element)
        results.sort(key=lambda e: e.kappa)
        self.stats.record_query(len(results))
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def seen_so_far(self) -> int:
        """``M`` — number of elements ingested."""
        return self._m

    @property
    def rn_size(self) -> int:
        """``|R_N|`` — the minimized element count of Theorem 1."""
        return len(self._records)

    @property
    def sanitizer(self) -> Optional[InvariantSanitizer]:
        """The attached sanitizer, or ``None`` when checking is off."""
        return self._sanitizer

    @property
    def sanitize_mode(self) -> str:
        """The active sanitize mode (``"off"`` when none is attached)."""
        return "off" if self._sanitizer is None else self._sanitizer.mode

    @property
    def structure_version(self) -> int:
        """Monotonic version of the interval encoding; bumps on every
        arrival, expiry, dominance ejection and re-rooting (anything
        that can change a query answer)."""
        return self._intervals.version

    @property
    def stab_cache(self) -> Optional[StabCache[_Record]]:
        """The query cache, or ``None`` when ``query_cache=False``."""
        return self._stab_cache

    @property
    def batch_chunk(self) -> int:
        """Effective :meth:`append_many` chunk size (the ``batch_chunk``
        knob, with ``None`` resolved to the module default)."""
        return self._batch_chunk

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss/rebuild counters of the query cache (``None`` when
        caching is disabled)."""
        if self._stab_cache is None:
            return None
        return self._stab_cache.stats()

    def non_redundant(self) -> List[StreamElement]:
        """The elements of ``R_N``, oldest first."""
        return [record.element for _, record in self._labels.items()]

    def critical_parent(self, kappa: int) -> Optional[StreamElement]:
        """The critical dominator of the ``R_N`` element labelled
        ``kappa`` (``None`` for roots)."""
        record = self._records[kappa]
        if record.parent_kappa == 0:
            return None
        return self._records[record.parent_kappa].element

    def children_of(self, kappa: int) -> List[StreamElement]:
        """Elements critically dominated by the element labelled
        ``kappa``, sorted by arrival."""
        record = self._records[kappa]
        return [self._records[c].element for c in sorted(record.children)]

    def dominance_graph_edges(self) -> List[tuple]:
        """All critical-dominance edges as ``(parent_kappa, child_kappa)``
        pairs (``parent_kappa == 0`` for roots)."""
        return sorted(
            (record.parent_kappa, kappa) for kappa, record in self._records.items()
        )

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify cross-structure consistency, the forest property and
        the paper's theorems over the current state.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_nofn

        verify_nofn(self)
