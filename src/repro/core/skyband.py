"""Windowed k-skybands: the paper's machinery, one level deeper.

The *k-skyband* of a point set contains every point dominated by fewer
than ``k`` others (``k = 1`` is the skyline).  This module answers
**n-of-N k-skyband queries** — the k-skyband of the most recent ``n``
elements, for any ``n <= N`` — by generalising the paper's two pillars:

**Pruning (Theorem 1, generalised).**  An element with ``>= k``
*younger* dominators can never enter the k-skyband of any window that
contains it (those dominators are in every such window).  The minimal
retained set ``R_N^k`` therefore keeps elements with fewer than ``k``
younger weak dominators; each retained element tracks its younger-
dominator count ``j``.

**Encoding (Theorem 3, generalised).**  Retained element ``e`` is in
the k-skyband of the most recent ``n`` elements iff fewer than ``k``
of its dominators lie inside the window.  Its ``j`` younger dominators
always do; so ``e`` qualifies iff fewer than ``k - j`` of its *older*
dominators do — i.e. iff its ``(k-j)``-th youngest older dominator
precedes the window.  Encoding ``e`` as the half-open interval
``(kappa(that dominator), kappa(e)]`` (0 when it does not exist) turns
the query into the same **stabbing query** at ``M - n + 1``.

Why older-dominator ranks computed against ``R_N^k`` are exact even
though pruned elements also dominate: if a pruned ``x`` dominates
``e``, then ``x``'s ``>= k`` younger dominators transitively dominate
``e`` and are younger than ``x`` — so the ``k`` *youngest* older
dominators of ``e`` can never be pruned elements, and the top-``k``
best-first search over the retained R-tree returns the true list.

Unlike Algorithm 1, expiry needs **no re-rooting**: thresholds are raw
positions, and a stab point ``M - n + 1 >= M - N + 1`` always clears an
expired dominator's position, so intervals age out of relevance by
themselves; per arrival only the dominated elements' intervals move.

Tie convention matches the rest of the library (DESIGN.md §7): a
*younger* exact duplicate counts as a dominator (so old copies fade as
new ones arrive) while an *older* duplicate does not count against the
newcomer — i.e. an element is reported when fewer than ``k`` in-window
elements strictly dominate it or duplicate it more recently.  For
``k = 1`` this engine reproduces :class:`~repro.core.nofn.NofNSkyline`
exactly (property-tested).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.accel.batch_prefilter import (
    BatchPrefilter,
    iter_chunks,
    resolve_batch_chunk,
)
from repro.accel.stab_cache import StabCache
from repro.core.element import StreamElement
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


class _BandRecord:
    """Book-keeping for one element of ``R_N^k``."""

    __slots__ = ("element", "younger", "older_doms", "handle")

    def __init__(self, element: StreamElement) -> None:
        self.element = element
        #: Number of younger weak dominators seen so far (< k).
        self.younger = 0
        #: kappas of the youngest older weak dominators, youngest first
        #: (at most k entries; computed exactly on arrival).
        self.older_doms: List[int] = []
        self.handle: Optional[IntervalHandle] = None


def _band_record_kappa(record: _BandRecord) -> int:
    """Query-order sort key (module-level so the cache can share it)."""
    return record.element.kappa


class KSkybandEngine:
    """Sliding-window engine answering all n-of-N k-skyband queries.

    Parameters
    ----------
    dim:
        Dimensionality of the stream's value vectors.
    capacity:
        ``N`` — the window size; queries may use any ``n <= N``.
    k:
        Band depth: report elements dominated by fewer than ``k``
        in-window elements.  ``k = 1`` is the skyline.
    sanitize:
        Runtime invariant checking: ``"off"`` (default), ``"sampled"``,
        ``"full"``, or a shared
        :class:`~repro.sanitize.InvariantSanitizer`.
    rtree_max_entries / query_cache / batch_chunk:
        Index, query and batched-ingest knobs (see
        :class:`~repro.core.nofn.NofNSkyline`): the R-tree fan-out, the
        versioned stab cache behind :meth:`query`, and the
        :meth:`append_many` slice size (clamped to ``capacity`` here so
        no chunk member can expire before its in-chunk pruner arrives).
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        k: int,
        rtree_max_entries: int = 12,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise InvalidWindowError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.dim = dim
        self.capacity = capacity
        self.k = k
        self._batch_chunk = resolve_batch_chunk(batch_chunk)
        self._sanitizer = InvariantSanitizer.coerce(sanitize)
        self._m = 0
        self._records: Dict[int, _BandRecord] = {}
        self._labels: LabelSet[_BandRecord] = LabelSet()
        self._intervals: IntervalTree[_BandRecord] = IntervalTree()
        self._rtree = SoARTree(dim, max_entries=rtree_max_entries)
        # Memoized answers come back pre-sorted in query order, so the
        # cached query path never re-sorts.
        self._stab_cache: Optional[StabCache[_BandRecord]] = (
            StabCache(self._intervals, sort_key=_band_record_kappa)
            if query_cache
            else None
        )
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> StreamElement:
        """Ingest one stream element; return it."""
        self._m += 1
        element = StreamElement(values, self._m, payload)
        self._arrive(element)
        return element

    def _arrive(self, element: StreamElement) -> None:
        """Run the per-arrival maintenance for an already-built element
        (``self._m`` has been advanced to ``element.kappa``)."""
        # Expiry: drop retained elements that left the window.  Their
        # positions fall below every admissible stab point, so nobody
        # else's interval needs touching.
        threshold = self._m - self.capacity + 1
        expired = 0
        while self._labels:
            oldest_kappa, oldest = self._labels.oldest()
            if oldest_kappa >= threshold:
                break
            self._discard(oldest)
            expired += 1

        # The newcomer's exact top-k older *strict* dominators, computed
        # BEFORE this arrival's pruning: an element pruned by this very
        # arrival counts the newcomer among its k younger dominators, so
        # it has only k-1 older witnesses and must still be visible here
        # (the module-doc argument covers elements pruned on *earlier*
        # arrivals only).  Older exact duplicates are skipped — they do
        # not count against the newcomer under the youngest-copy tie
        # convention (which is what makes k = 1 coincide exactly with
        # NofNSkyline).
        older_doms: List[int] = []
        bound: Optional[int] = None
        while len(older_doms) < self.k:
            entry = self._rtree.max_kappa_dominator(
                element.values, kappa_below=bound
            )
            if entry is None:
                break
            bound = entry.kappa
            # Duplicate-identity check, not a dominance test: an exact
            # twin is excluded from older_doms by the tie rule.
            if entry.point != element.values:  # lint: skip=REPRO004
                older_doms.append(entry.kappa)

        # Dominated elements gain one younger dominator each; those
        # reaching k are pruned (generalised Theorem 1).
        demoted = 0
        for entry in self._rtree.report_dominated(element.values):
            record: _BandRecord = entry.data
            record.younger += 1
            if record.younger >= self.k:
                self._rtree.delete(record.element.kappa)
                self._discard(record)
                demoted += 1
            else:
                self._reseat(record)

        record = _BandRecord(element)
        record.older_doms = older_doms
        record.handle = self._intervals.insert(
            float(self._threshold_kappa(record)), float(element.kappa), record
        )
        self._rtree.insert(element.values, element.kappa, record)
        self._labels.append(element.kappa, record)
        self._records[element.kappa] = record

        self.stats.record_arrival(
            expired=expired, dominated=demoted, rn_size=len(self._records)
        )
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[StreamElement]:
        """Ingest a batch of stream elements; return them.

        Semantically identical to calling :meth:`append` once per point
        — identical retained set, interval encoding, query answers and
        maintenance stats afterwards — but faster on bursty feeds: the
        vectorised intra-batch prefilter (at skyband depth ``k``)
        identifies members that accumulate ``k`` younger same-batch weak
        dominators before the batch ends; they skip all index
        maintenance, contributing only their kappa to other members'
        older-dominator lists while "alive".

        Validation is all-or-nothing: dimension mismatches and invalid
        values raise before any engine state changes.
        """
        elements = self._batch_elements(points, payloads)
        self._ingest_elements(elements)
        return elements

    def _batch_chunk_size(self) -> int:
        """Largest batch chunk whose members cannot expire before their
        in-chunk ``k``-th dominator arrives (kappas are consecutive
        here; the sharded sub-stream variant tightens this for its
        strided kappa sequence)."""
        return min(self._batch_chunk, self.capacity)

    def _ingest_elements(self, elements: List[StreamElement]) -> None:
        """Run the chunked batch-arrival loop over validated elements
        (kappas already assigned and strictly increasing)."""
        started = perf_counter()
        dropped = 0
        for lo, hi in iter_chunks(len(elements), self._batch_chunk_size()):
            dropped += self._arrive_chunk(elements, lo, hi)
            if self._sanitizer is not None:
                self._sanitizer.maybe_verify(self)
        self.stats.record_batch(
            size=len(elements), dropped=dropped, seconds=perf_counter() - started
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

    def _arrive_chunk(
        self, elements: List[StreamElement], lo: int, hi: int
    ) -> int:
        """Ingest ``elements[lo:hi]`` (at most ``capacity`` of them, so
        no chunk member can expire before its in-chunk ``k``-th
        dominator arrives).

        The index is frozen for the chunk: one chunk-wide dominance
        report (all-attribution — every arrival sees its own victims,
        since each hit increments a younger-dominator count) runs up
        front, every mutation is deferred, and the chunk flushes with
        one :meth:`SoARTree.delete_many` + one
        :meth:`SoARTree.insert_many`.

        ``pending`` parks prefilter casualties until their pruning
        arrival: logically retained (they count towards ``rn_size`` and
        appear in younger members' older-dominator lists — exactly as
        the R-tree would surface them per element) but never indexed.
        Per-element semantics are reconstructed exactly:

        * a frozen-tree victim only counts while its record is still
          retained (aliveness against ``self._records``);
        * increments *from* chunk survivors *to* chunk survivors come
          from the prefilter's dominance matrix
          (:meth:`BatchPrefilter.older_weak_victims`) — the prefilter
          bound guarantees they stay below ``k``, so mid-chunk
          survivors reseat but never demote;
        * older-dominator lists merge the intra-chunk stream (alive
          pending members and installed survivors, youngest first — all
          younger than anything indexed) with the frozen-tree stream,
          skipping entries that died mid-chunk.  Doomed members skip
          the search: the list only ever feeds their interval encoding,
          which they never get.
        """
        chunk = elements[lo:hi]
        points = [e.values for e in chunk]
        pre = BatchPrefilter(points, k=self.k)
        # Expiry gate: if the oldest retained position survives even the
        # chunk's final threshold, no arrival in the chunk can expire
        # anything (chunk members themselves cannot, chunk <= capacity).
        threshold_end = chunk[-1].kappa - self.capacity + 1
        may_expire = bool(self._labels) and self._labels.oldest()[0] < threshold_end
        rtree = self._rtree
        victims0 = rtree.report_dominated_batch(points, first_only=False)
        deferred_deletes: List[int] = []
        deferred_inserts: Dict[int, _BandRecord] = {}
        pending: Dict[int, StreamElement] = {}
        for i, element in enumerate(chunk):
            self._m = element.kappa

            expired = 0
            if may_expire:
                threshold = self._m - self.capacity + 1
                while self._labels:
                    oldest_kappa, oldest = self._labels.oldest()
                    if oldest_kappa >= threshold:
                        break
                    self._discard_deferred(
                        oldest, deferred_deletes, deferred_inserts
                    )
                    expired += 1

            # Merged top-k older strict dominator search (computed
            # before this arrival's pruning, as per element).  Every
            # intra-chunk candidate outranks the whole frozen tree, so
            # the merge is: intra stream first (alive pending members
            # and installed survivors, youngest first), then the
            # frozen-tree stream with mid-chunk casualties skipped.
            older_doms: List[int] = []
            if not pre.is_doomed(i):
                for h in pre.older_weak_dominators(i):
                    if len(older_doms) >= self.k:
                        break
                    kappa_h = chunk[h].kappa
                    if kappa_h in pending:
                        candidate_values = pending[kappa_h].values
                    elif kappa_h in self._records:
                        candidate_values = self._records[kappa_h].element.values
                    else:
                        continue  # pruned or expired mid-chunk
                    # Duplicate-identity check (tie rule), as per element.
                    if candidate_values != element.values:  # lint: skip=REPRO004
                        older_doms.append(kappa_h)
                bound: Optional[int] = None
                while len(older_doms) < self.k:
                    entry = rtree.max_kappa_dominator(
                        element.values, kappa_below=bound
                    )
                    if entry is None:
                        break
                    bound = entry.kappa
                    if entry.kappa not in self._records:
                        continue  # died mid-chunk: not a witness anymore
                    # Duplicate-identity check (tie rule), as per element.
                    if entry.point != element.values:  # lint: skip=REPRO004
                        older_doms.append(entry.kappa)

            demoted = 0
            for entry in victims0[i]:
                dominated_record = self._records.get(entry.kappa)
                if dominated_record is None:
                    continue  # already pruned or expired this chunk
                dominated_record.younger += 1
                if dominated_record.younger >= self.k:
                    self._discard_deferred(
                        dominated_record, deferred_deletes, deferred_inserts
                    )
                    demoted += 1
                else:
                    self._reseat(dominated_record)
            for h in pre.older_weak_victims(i):
                survivor = self._records.get(chunk[h].kappa)
                if survivor is None:
                    continue  # pending (no index state) or already gone
                survivor.younger += 1
                if survivor.younger >= self.k:  # pragma: no cover
                    # Unreachable by the prefilter bound; kept for the
                    # same defensive shape as the frozen-tree branch.
                    self._discard_deferred(
                        survivor, deferred_deletes, deferred_inserts
                    )
                    demoted += 1
                else:
                    self._reseat(survivor)
            for h in pre.killed_at(i):
                if pending.pop(chunk[h].kappa, None) is not None:
                    demoted += 1

            if pre.is_doomed(i):
                pending[element.kappa] = element
            else:
                record = _BandRecord(element)
                record.older_doms = older_doms
                record.handle = self._intervals.insert(
                    float(self._threshold_kappa(record)),
                    float(element.kappa),
                    record,
                )
                deferred_inserts[element.kappa] = record
                self._labels.append(element.kappa, record)
                self._records[element.kappa] = record

            self.stats.record_arrival(
                expired=expired,
                dominated=demoted,
                rn_size=len(self._records) + len(pending),
            )
        if pending:
            raise StructureCorruptionError(
                f"{len(pending)} doomed batch members survived their chunk"
            )
        if deferred_deletes:
            rtree.delete_many(deferred_deletes)
        if deferred_inserts:
            survivors = list(deferred_inserts.values())
            rtree.insert_many(
                [r.element.values for r in survivors],
                [r.element.kappa for r in survivors],
                survivors,
            )
        return pre.dropped

    def _discard_deferred(
        self,
        record: _BandRecord,
        deferred_deletes: List[int],
        deferred_inserts: Dict[int, _BandRecord],
    ) -> None:
        """Deferred-mutation variant of :meth:`_discard`: the frozen
        tree is flushed at chunk end, so the record's physical entry is
        either queued for :meth:`SoARTree.delete_many` or simply dropped
        from the pending inserts."""
        kappa = record.element.kappa
        self._intervals.remove(record.handle)
        record.handle = None
        self._labels.remove(kappa)
        del self._records[kappa]
        if deferred_inserts.pop(kappa, None) is None:
            deferred_deletes.append(kappa)

    def _threshold_kappa(self, record: _BandRecord) -> int:
        """Position of the dominator whose window-exit admits ``record``.

        The ``(k - younger)``-th youngest older dominator, or 0 when
        fewer exist (the element qualifies for every window holding it).
        """
        need = self.k - record.younger
        if len(record.older_doms) < need:
            return 0
        return record.older_doms[need - 1]

    def _reseat(self, record: _BandRecord) -> None:
        """Re-encode a record after its younger-dominator count grew."""
        record.handle = self._intervals.replace(
            record.handle,
            float(self._threshold_kappa(record)),
            float(record.element.kappa),
        )

    def _discard(self, record: _BandRecord) -> None:
        kappa = record.element.kappa
        self._intervals.remove(record.handle)
        record.handle = None
        self._labels.remove(kappa)
        del self._records[kappa]
        if kappa in self._rtree:
            self._rtree.delete(kappa)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, n: int) -> List[StreamElement]:
        """The k-skyband of the most recent ``n`` elements, sorted by
        ``kappa``.

        Raises
        ------
        InvalidWindowError
            If ``n`` is not in ``[1, capacity]``.
        """
        if not 1 <= n <= self.capacity:
            raise InvalidWindowError(
                f"n must be in [1, {self.capacity}], got {n}"
            )
        if self._m == 0:
            self.stats.record_query(0)
            return []
        stab = max(1, self._m - n + 1)
        if self._stab_cache is not None:
            records = self._stab_cache.stab(stab)  # pre-sorted by kappa
        else:
            records = self._intervals.stab(stab)
            records.sort(key=_band_record_kappa)
        self.stats.record_query(len(records))
        return [r.element for r in records]

    def skyband(self) -> List[StreamElement]:
        """The k-skyband of the whole window."""
        return self.query(self.capacity)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def seen_so_far(self) -> int:
        """``M`` — number of elements ingested."""
        return self._m

    @property
    def retained_size(self) -> int:
        """``|R_N^k|`` — elements with fewer than k younger dominators."""
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify cross-structure consistency and band membership
        against brute force.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_skyband

        verify_skyband(self)

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
        """Monotonic version of the interval encoding (see
        :attr:`repro.core.nofn.NofNSkyline.structure_version`)."""
        return self._intervals.version

    @property
    def stab_cache(self) -> Optional[StabCache[_BandRecord]]:
        """The query cache, or ``None`` when ``query_cache=False``."""
        return self._stab_cache

    @property
    def batch_chunk(self) -> int:
        """The effective batched-ingest chunk size (the ``batch_chunk``
        knob, or the library default when unset)."""
        return self._batch_chunk

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss/rebuild counters of the query cache (``None`` when
        caching is disabled)."""
        if self._stab_cache is None:
            return None
        return self._stab_cache.stats()
