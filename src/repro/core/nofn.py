"""The n-of-N skyline engine (paper sections 3.1-3.3).

:class:`NofNSkyline` maintains, over an append-only stream, exactly the
state the paper proves sufficient for answering *every* n-of-N skyline
query (``n <= N``):

* ``R_N`` — the non-redundant elements (Theorem 1), held in a dense
  dominance index (:mod:`repro.structures.dense_index`, standing in for
  the paper's R-tree), an ordered label set, and an interval tree,
  wired together as in Figure 6;
* the **critical dominance graph** ``G_{R_N}`` — each element points to
  its youngest older dominator within ``R_N`` (a forest) — encoded as
  half-open intervals ``(kappa(parent), kappa(e)]`` (roots:
  ``(0, kappa(e)]``).

Per arrival, the engine runs Algorithm 1:

1. expire the oldest ``R_N`` element once it leaves the window,
   re-rooting its children's intervals to ``(0, kappa(child)]``;
2. find and eject ``D_{e_new}`` — everything the newcomer weakly
   dominates — with one dominance mask over the index;
3. find the newcomer's critical dominator with a newest-first sweep
   that stops at the first hit (the paper's best-first stop);
4. install the newcomer's interval, index entry and label.

Both :meth:`append` and :meth:`append_many` run it through one chunk
core, :meth:`NofNSkyline._arrive_chunk`; ``append`` is a chunk of one.

:meth:`query` then answers an n-of-N query as a **stabbing query**
(Theorem 3): stab the interval tree with ``M - n + 1`` and report the
elements owning the stabbed intervals.  Through the stab cache a stab
that hits the memo costs ``O(log |R_N| + s)``; a miss is one vectorised
``O(|R_N|)`` pass over the tree's slot arrays.

The label/threshold machinery is factored into small overridable hooks
so :class:`repro.core.timewindow.TimeWindowSkyline` can reuse the whole
engine with timestamps instead of positions (the paper's closing remark
in section 6).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.accel.batch_prefilter import BatchPrefilter
from repro.accel.stab_cache import StabCache
from repro.core.element import StreamElement, batch_elements, checked_element
from repro.core.engine import WindowEngine, row_block
from repro.core.events import ArrivalOutcome, BatchOutcome, ExpiredRecord
from repro.exceptions import InvalidWindowError, StructureCorruptionError
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.dense_index import DenseIndex
from repro.structures.interval_tree import IntervalHandle, IntervalTree
from repro.structures.labelset import LabelSet


class _Record:
    """Book-keeping for one element of ``R_N``.

    Realises the 1-1 links of Figure 6: element <-> index entry <->
    interval <-> label.
    """

    __slots__ = ("element", "label", "parent_kappa", "children", "handle")

    def __init__(self, element: StreamElement, label: float) -> None:
        self.element = element
        self.label = label
        self.parent_kappa: int = 0
        self.children: Set[int] = set()
        self.handle: Optional[IntervalHandle] = None


def _record_kappa(record: _Record) -> int:
    """Query-order sort key of the uncached path (the cache orders by
    interval high, which is the same order)."""
    return record.element.kappa


class NofNSkyline(WindowEngine):
    """Sliding-window engine answering all n-of-N skyline queries.

    Parameters
    ----------
    dim:
        Dimensionality of the stream's value vectors.
    capacity:
        ``N`` — the window size.  Queries may use any ``n <= N``.
    sanitize:
        Runtime invariant checking: ``"off"`` (default), ``"sampled"``,
        ``"full"``, or a ready-made
        :class:`~repro.sanitize.InvariantSanitizer` to share between
        engines.  See :mod:`repro.sanitize`.
    query_cache:
        When true (the default), :meth:`query` answers through a
        :class:`~repro.accel.stab_cache.StabCache`, which memoizes the
        interval tree's vectorised stab per elementary span, instead of
        running that pass over every slot per call.
        Invalidation is exact (every structural write bumps the tree
        version), so answers are always identical to the uncached path.
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
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        super().__init__(dim, capacity, sanitize, batch_chunk)
        self._records: Dict[int, _Record] = {}
        self._labels: LabelSet[_Record] = LabelSet()
        self._intervals: IntervalTree[_Record] = IntervalTree()
        self._rtree = DenseIndex(dim)
        # Memoized answers come back ascending by interval high — the
        # element's own label, hence query (kappa) order — so the cached
        # query path never re-sorts.
        self._stab_cache: Optional[StabCache[_Record]] = (
            StabCache(self._intervals) if query_cache else None
        )

    # ------------------------------------------------------------------
    # Hooks overridden by the time-window variant
    # ------------------------------------------------------------------

    def _window_start(self, new_label: float) -> float:
        """Labels strictly below this value have left the window."""
        return self._m - self.capacity + 1

    def _note_arrival(self, label: float) -> None:
        """Per-arrival clock bookkeeping (no-op for count-based
        windows; the time-window variant advances ``now``)."""

    def _chunk_limit(self) -> int:
        """``batch_chunk`` unclamped: a doomed member that expires
        before its in-chunk killer arrives is expired from ``pending``
        (a time window's capacity means nothing, either)."""
        return self._batch_chunk

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 1)
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> ArrivalOutcome:
        """Ingest one stream element; return what changed.

        The returned :class:`ArrivalOutcome` feeds the continuous-query
        manager (Algorithm 2); ad-hoc users may ignore it.  A point the
        engine rejects raises before any state changes.  The element
        runs through the batch pipeline as a chunk of one, and only the
        per-arrival counters of :attr:`stats` move.
        """
        element = checked_element(values, self._m + 1, self.dim, payload)
        return self._append_one(element, element.kappa)

    def _append_one(self, element: StreamElement, label: float) -> ArrivalOutcome:
        """Run one validated element, labelled ``label``, as a chunk of
        one."""
        outcomes: List[ArrivalOutcome] = []
        self._arrive_chunk([element], [label], row_block(element.values), outcomes)
        self._chunk_done()
        return outcomes[0]

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
        observe them, and those members skip all index / interval-tree
        / label-set maintenance.  The window-expiry sweep runs only at
        arrivals whose window start passes the oldest live label.

        Validation is all-or-nothing: dimension mismatches and invalid
        values raise before any engine state changes.  ``points`` may
        also be a ``(B, dim)`` NumPy array.
        """
        elements, matrix = batch_elements(points, self._m + 1, self.dim, payloads)
        return self._ingest_batch(elements, [e.kappa for e in elements], matrix)

    def _ingest_batch(
        self, elements: List[StreamElement], labels: List[float], matrix: Any
    ) -> BatchOutcome:
        """Run validated elements, their labels and their ``(B, dim)``
        coordinate matrix through the chunk core, chunk by chunk."""
        outcomes: List[ArrivalOutcome] = []
        dropped = self._ingest(
            len(elements),
            lambda lo, hi: self._arrive_chunk(
                elements[lo:hi], labels[lo:hi], matrix[lo:hi], outcomes
            ),
        )
        return BatchOutcome(tuple(outcomes), prefilter_dropped=dropped)

    def _expire_step(
        self,
        threshold: float,
        pending: Dict[int, _Record],
        deletes: List[int],
        indexed_below: int,
    ) -> Tuple[List[ExpiredRecord], Optional[float]]:
        """Run one arrival's merged pending/indexed expiry sweep; return
        what expired and the oldest live label left (``None`` when
        ``R_N`` is empty)."""
        expired: List[ExpiredRecord] = []
        while True:
            tree_oldest = self._labels.oldest() if self._labels else None
            pend_oldest = pending[next(iter(pending))] if pending else None
            if tree_oldest is not None and (
                pend_oldest is None or tree_oldest[0] <= pend_oldest.label
            ):
                if tree_oldest[0] >= threshold:
                    return expired, tree_oldest[0]
                expired.append(
                    self._expire(tree_oldest[1], pending, deletes, indexed_below)
                )
            elif pend_oldest is not None:
                if pend_oldest.label >= threshold:
                    return expired, pend_oldest.label
                expired.append(self._expire_pending(pend_oldest, pending))
            else:
                return expired, None

    def _arrive_chunk(
        self,
        chunk: List[StreamElement],
        labels: List[float],
        block: Any,
        outcomes: List[ArrivalOutcome],
    ) -> int:
        """Ingest one chunk with its labels and coordinate rows
        (``block``), appending one outcome per element; return how many
        members the prefilter dropped.

        The dominance index is *frozen* for the duration of the chunk:
        both chunk-wide searches (:meth:`DenseIndex.report_dominated_batch`,
        :meth:`DenseIndex.max_kappa_dominator_batch`) run once up front
        against the chunk-start state, every per-arrival mutation is
        deferred, and the chunk flushes with one
        :meth:`DenseIndex.delete_many` + one :meth:`DenseIndex.insert_many`.
        While it is frozen the index holds exactly the live elements
        older than the chunk.

        Doomed members (those the prefilter proved dominated by a
        younger same-chunk member) are parked in ``pending`` — logically
        part of ``R_N``, but never inserted into the index structures —
        until their killer arrives or they expire.  Correctness of the
        shortcut rests on weak dominance being transitive: a pending
        member can never be the critical parent of a surviving member
        (its killer would doom the survivor too), and whatever a doomed
        member dominates, the survivor ending its chain of killers
        dominates too — so the dominance report searches the index with
        the survivors alone.

        Per-element semantics are reconstructed exactly:

        * dominance victims carry first-arrival attribution, and an
          arrival skips victims another arrival (or an expiry) already
          removed — a record is alive while it holds its interval
          handle;
        * a chunk survivor is never dominated by any chunk member (the
          prefilter would have doomed it), so survivors installed
          mid-chunk only ever *leave* via expiry (which clears their
          interval handle), and the flush indexes the survivors still
          alive;
        * critical parents resolve intra-chunk candidates first
          (youngest alive wins — chunk kappas exceed every indexed
          kappa): the prefilter's ``youngest_older`` member, and only
          when it is gone (by transitivity, an equal point killed at
          this arrival, or an expired member) the walk over
          :meth:`BatchPrefilter.older_weak_dominators`; then they fall
          back to the frozen index, walked past entries that died
          mid-chunk via ``max_kappa_dominator(kappa_below=...)``.  Only
          members with no older same-chunk dominator take the frozen
          answer from the chunk-wide search; a member whose candidates
          have all died asks the index with one probe.
        * the expiry sweep runs only once an arrival's window start
          passes ``oldest``, a lower bound on the oldest live label
          (arrivals only add larger labels), and the stats counters are
          added once per chunk.
        """
        pre = BatchPrefilter(block, k=1)
        rtree = self._rtree
        victims0 = rtree.report_dominated_batch(block, survivors=pre.survivors)
        youngest = pre.youngest_older
        roots = [i for i, h in enumerate(youngest) if h < 0]
        # The frozen answers of the members with no older same-chunk
        # dominator, in member order: the loop below takes the next one
        # at each such member.
        frozen_parents = rtree.max_kappa_dominator_batch(
            block if len(roots) == len(chunk) else block[roots]
        )
        roots_seen = 0
        first = chunk[0].kappa  # the index holds every live kappa below it
        deletes: List[int] = []
        installed: List[_Record] = []

        oldest = labels[0]
        if self._labels:
            oldest = min(oldest, self._labels.oldest()[0])
        expired_count = dominated_count = rn_sum = rn_peak = 0
        pending: Dict[int, _Record] = {}
        for i, element in enumerate(chunk):
            label = labels[i]
            self._m = element.kappa
            self._note_arrival(label)

            expired: List[ExpiredRecord] = []
            threshold = self._window_start(label)
            if threshold > oldest:
                expired, stop = self._expire_step(threshold, pending, deletes, first)
                oldest = label if stop is None else stop
                expired_count += len(expired)

            dominated: List[StreamElement] = []
            for entry in victims0[i]:
                tree_record = entry.data
                if tree_record.handle is None:
                    continue  # expired earlier in the chunk
                self._detach(tree_record)
                deletes.append(entry.kappa)
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
            dominated_count += len(dominated)

            record = _Record(element, label)
            # Intra-chunk parent candidates, youngest first.  Any alive
            # candidate outranks the whole frozen tree (chunk kappas are
            # the largest in the window).  For survivors only installed
            # chunk survivors can qualify — an *alive* pending dominator
            # would imply the survivor is doomed (transitivity).
            best: Optional[_Record] = None
            head = youngest[i]
            if head >= 0:
                kappa_h = chunk[head].kappa
                best = pending.get(kappa_h) or self._records.get(kappa_h)
                if best is None:
                    # The youngest candidate is gone: an equal point
                    # killed at this arrival, or expired.  Walk on.
                    for h in pre.older_weak_dominators(i):
                        kappa_h = chunk[h].kappa
                        best = pending.get(kappa_h) or self._records.get(kappa_h)
                        if best is not None:
                            break
            if best is None:
                if head < 0:
                    parent_entry = frozen_parents[roots_seen]
                    roots_seen += 1
                else:
                    parent_entry = rtree.max_kappa_dominator(element.values)
                while (
                    parent_entry is not None
                    and parent_entry.data.handle is None
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
                self._labels.append(label, record)
                self._records[element.kappa] = record
                installed.append(record)

            rn_size = len(self._records) + len(pending)
            rn_sum += rn_size
            if rn_size > rn_peak:
                rn_peak = rn_size
            outcomes.append(
                ArrivalOutcome(
                    element=element,
                    seen_so_far=element.kappa,
                    dominated_removed=tuple(dominated),
                    parent_kappa=record.parent_kappa,
                    expired=tuple(expired),
                )
            )
        self.stats.record_arrivals(
            len(chunk), expired_count, dominated_count, rn_sum, rn_peak
        )
        if pending:
            raise StructureCorruptionError(
                f"{len(pending)} doomed batch members survived their chunk"
            )
        if deletes:
            rtree.delete_many(deletes)
        if expired_count:
            # A survivor installed earlier in the chunk may have expired.
            installed = [r for r in installed if r.handle is not None]
        if installed:
            kappas = [r.element.kappa for r in installed]
            rtree.insert_many(
                block if len(kappas) == len(chunk)
                else block[[kappa - first for kappa in kappas]],
                kappas,
                installed,
            )
        return pre.dropped

    def _expire(
        self,
        record: _Record,
        pending: Dict[int, _Record],
        deletes: List[int],
        indexed_below: int,
    ) -> ExpiredRecord:
        """Remove an expired root from ``R_N``, re-rooting its children.

        A child may be a doomed chunk member in ``pending``, awaiting
        its in-chunk killer: it has no interval yet, only a parent link
        to clear.  The index delete is queued on ``deletes`` when the
        record is indexed (its kappa is below ``indexed_below``, the
        chunk's first); a chunk survivor is simply never indexed.
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
            elif child_kappa in pending:
                child = pending[child_kappa]
            else:
                raise StructureCorruptionError(
                    f"dominance-graph child {child_kappa} of expiring "
                    f"element {record.element.kappa} is missing from R_N"
                )
            child.parent_kappa = 0
            children_elements.append(child.element)
        kappa = record.element.kappa
        self._intervals.remove(record.handle)
        if kappa < indexed_below:
            deletes.append(kappa)
        self._labels.remove(record.label)
        del self._records[kappa]
        record.handle = None
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
        """Remove a dominated element's interval, label and parent link
        (its index entry is queued for the chunk's
        :meth:`DenseIndex.delete_many`)."""
        self._intervals.remove(record.handle)
        record.handle = None
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
        tree — an ``O(|R_N|)`` interpreter loop instead of one stab.

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
    def rn_size(self) -> int:
        """``|R_N|`` — the minimized element count of Theorem 1."""
        return len(self._records)

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
