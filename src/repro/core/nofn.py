"""The n-of-N skyline engine (paper sections 3.1-3.3).

:class:`NofNSkyline` maintains, over an append-only stream, exactly the
state the paper proves sufficient for answering *every* n-of-N skyline
query (``n <= N``):

* ``R_N`` — the non-redundant elements (Theorem 1), held in a dense
  dominance index (:mod:`repro.structures.dense_index`, standing in for
  the paper's R-tree), a kappa-ordered dict of records, and an interval
  tree, wired together as in Figure 6;
* the **critical dominance graph** ``G_{R_N}`` — each element points to
  its youngest older dominator within ``R_N`` (a forest) — encoded as
  half-open intervals ``(kappa(parent), kappa(e)]`` (roots:
  ``(0, kappa(e)]``).

Per arrival, the engine runs Algorithm 1:

1. expire the oldest ``R_N`` elements once they leave the window;
2. find and eject ``D_{e_new}`` — everything the newcomer weakly
   dominates — with one dominance mask over the index;
3. find the newcomer's critical dominator with a newest-first sweep
   that stops at the first hit (the paper's best-first stop);
4. install the newcomer's interval, index entry and record.

Each record keeps its *birth* parent, the critical dominator found at
its arrival, and Algorithm 1's re-rooting (lines 5-7) is left out:
whatever dominates the parent dominates the child, so a parent leaves
``R_N`` before its child only by expiring, and an expired parent's
label lies below every admissible stab point, where it passes the
stab exactly as a root's 0 does (docs/THEORY.md).  Introspection and
snapshots report such a parent as a root.

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

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.accel.batch_prefilter import BatchPrefilter
from repro.accel.stab_cache import StabCache
from repro.core.element import StreamElement, batch_elements, checked_element
from repro.core.engine import WindowEngine, row_block
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.exceptions import InvalidWindowError, StructureCorruptionError
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.dense_index import DenseIndex
from repro.structures.interval_tree import IntervalHandle, IntervalTree


class _Record:
    """Book-keeping for one element of ``R_N``.

    Realises the 1-1 links of Figure 6: element <-> index entry <->
    interval.  ``parent_kappa`` is the birth parent (0 for a root),
    never rewritten.
    """

    __slots__ = ("element", "label", "parent_kappa", "handle")

    def __init__(self, element: StreamElement, label: float) -> None:
        self.element = element
        self.label = label
        self.parent_kappa: int = 0
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
        # In kappa order, hence label order, oldest first.
        self._records: Dict[int, _Record] = {}
        # The expiry cursor: no kappa below it is in R_N.
        self._cursor = 1
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

    def _window_start(self) -> float:
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
        observe them, and those members skip all index and
        interval-tree maintenance.  The window-expiry sweep runs only at
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
    ) -> Tuple[List[StreamElement], Optional[float]]:
        """Expire, oldest first, the elements labelled below
        ``threshold``; return them and the oldest live label left
        (``None`` when ``R_N`` is empty).

        The cursor walks the kappas of ``_records`` and ``pending``
        upwards and stops at the first live one still in the window.
        Labels ascend with kappa in both window kinds, so that one is
        the oldest, and every kappa is passed once: amortised O(1) per
        arrival.
        """
        expired: List[StreamElement] = []
        records = self._records
        # An empty R_N has nothing to expire, however far M has jumped.
        kappa = self._cursor if records or pending else self._m
        while kappa < self._m:
            record = records.get(kappa) or pending.get(kappa)
            if record is not None:
                if record.label >= threshold:
                    self._cursor = kappa
                    return expired, record.label
                expired.append(self._expire(record, pending, deletes, indexed_below))
            kappa += 1
        self._cursor = kappa
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

        # A lower bound on the oldest live label; the first arrival's
        # sweep moves the cursor to the oldest live element.
        oldest = -math.inf
        expired_count = dominated_count = rn_sum = rn_peak = 0
        pending: Dict[int, _Record] = {}
        for i, element in enumerate(chunk):
            label = labels[i]
            self._m = element.kappa
            self._note_arrival(label)

            expired: List[StreamElement] = []
            threshold = self._window_start()
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
                if doomed is not None:  # else already expired
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
            if pre.is_doomed(i):
                pending[element.kappa] = record
            else:
                low = 0.0 if best is None else best.label
                record.handle = self._intervals.insert(low, label, record)
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
    ) -> StreamElement:
        """Remove an expired element from ``R_N``; return it.

        Its birth parent must be older and already gone: labels ascend
        with kappa, so the parent expired first, and anything that
        dominated the parent away dominated this element too.  A doomed
        chunk member in ``pending`` owns no interval or index entry.
        The index delete of an indexed record (its kappa is below
        ``indexed_below``, the chunk's first) is queued on ``deletes``;
        a chunk survivor is simply never indexed.
        """
        kappa = record.element.kappa
        parent = record.parent_kappa
        if parent >= kappa or parent in self._records or parent in pending:
            state = "is not older" if parent >= kappa else "outlived it"
            raise StructureCorruptionError(
                f"expiring element {kappa}: birth parent {parent} {state}"
            )
        if record.handle is None:
            del pending[kappa]
        else:
            self._detach(record)
            if kappa < indexed_below:
                deletes.append(kappa)
        return record.element

    def _detach(self, record: _Record) -> None:
        """Remove a record's interval and its entry in ``_records`` (its
        index entry is queued for the chunk's
        :meth:`DenseIndex.delete_many`)."""
        self._intervals.remove(record.handle)
        record.handle = None
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
        for record in self._records.values():
            parent = self._records.get(record.parent_kappa)
            parent_label = 0.0 if parent is None else parent.label
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
        arrival, expiry and dominance ejection (anything that can
        change a query answer)."""
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
        return [record.element for record in self._records.values()]

    def critical_parent(self, kappa: int) -> Optional[StreamElement]:
        """The critical dominator of the ``R_N`` element labelled
        ``kappa`` (``None`` for roots, and once the parent has left
        ``R_N``)."""
        parent = self._records.get(self._records[kappa].parent_kappa)
        return None if parent is None else parent.element

    def dominance_graph_edges(self) -> List[tuple]:
        """All critical-dominance edges as ``(parent_kappa, child_kappa)``
        pairs (``parent_kappa == 0`` for roots, and once the parent has
        left ``R_N``)."""
        records = self._records
        return sorted(
            (record.parent_kappa if record.parent_kappa in records else 0, kappa)
            for kappa, record in records.items()
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
