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
newest-first search over the retained index returns the true list.

As in the n-of-N engine, expiry needs **no re-rooting**: thresholds
are raw positions, and a stab point ``M - n + 1 >= M - N + 1`` always
clears an expired dominator's position, so intervals age out of
relevance by themselves; per arrival only the dominated elements'
intervals move.  The intervals live in the dense index's ``low`` and
``label`` columns, beside each element's point: a dominated element's
reseat rewrites one ``low``.  Expiry itself looks up the one position
that leaves at each arrival, ``M - N``.

Tie convention matches the rest of the library (DESIGN.md §7): a
*younger* exact duplicate counts as a dominator (so old copies fade as
new ones arrive) while an *older* duplicate does not count against the
newcomer — i.e. an element is reported when fewer than ``k`` in-window
elements strictly dominate it or duplicate it more recently.  For
``k = 1`` this engine reproduces :class:`~repro.core.nofn.NofNSkyline`
exactly (property-tested).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.accel.batch_prefilter import BatchPrefilter
from repro.accel.stab_cache import StabCache
from repro.core.element import StreamElement, batch_elements, checked_element
from repro.core.engine import WindowEngine, row_block
from repro.exceptions import InvalidWindowError, StructureCorruptionError
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.dense_index import DenseIndex


class _BandRecord:
    """Book-keeping for one element of ``R_N^k``: the payload of its
    index row, which holds its point and interval."""

    __slots__ = ("element", "younger", "older_doms")

    def __init__(self, element: StreamElement) -> None:
        self.element = element
        #: Number of younger weak dominators seen so far (< k).
        self.younger = 0
        #: kappas of the youngest older weak dominators, youngest first
        #: (at most k entries; computed exactly on arrival).
        self.older_doms: List[int] = []


class KSkybandEngine(WindowEngine):
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
    query_cache / batch_chunk:
        Query and batched-ingest knobs (see
        :class:`~repro.core.nofn.NofNSkyline`): the versioned stab
        cache behind :meth:`query`, and the :meth:`append_many` slice
        size (clamped to ``capacity`` here so
        no chunk member can expire before its in-chunk pruner arrives).
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        k: int,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        super().__init__(dim, capacity, sanitize, batch_chunk)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        # In kappa order, oldest first.
        self._records: Dict[int, _BandRecord] = {}
        self._rtree = DenseIndex(dim)
        self._stab_cache: Optional[StabCache[StreamElement]] = (
            StabCache(self._rtree, self._stab_index) if query_cache else None
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> StreamElement:
        """Ingest one stream element; return it.

        A point the engine rejects raises before any state changes.
        The element runs through the batch pipeline as a chunk of one.
        """
        element = checked_element(values, self._m + 1, self.dim, payload)
        self._arrive_chunk([element], row_block(element.values))
        self._chunk_done()
        return element

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
        values raise before any engine state changes.  ``points`` may
        also be a ``(B, dim)`` NumPy array.
        """
        elements, matrix = batch_elements(points, self._m + 1, self.dim, payloads)
        self._ingest(
            len(elements),
            lambda lo, hi: self._arrive_chunk(elements[lo:hi], matrix[lo:hi]),
        )
        return elements

    def _arrive_chunk(self, chunk: List[StreamElement], block: Any) -> int:
        """Ingest one chunk, ``block`` holding its coordinate rows (at
        most ``capacity`` members, so no chunk member can expire before
        its in-chunk ``k``-th dominator arrives).

        The index is frozen for the chunk: one chunk-wide dominance
        report (all-attribution — every arrival sees its own victims,
        since each hit increments a younger-dominator count) runs up
        front, every mutation is deferred, and the chunk flushes with
        one :meth:`DenseIndex.delete_many` + one
        :meth:`DenseIndex.insert_many`.  While it is frozen the index
        holds exactly the retained elements older than the chunk.

        Older-dominator lists are computed *before* the arrival's own
        pruning: an element pruned by this very arrival counts the
        newcomer among its k younger dominators, so it has only k-1
        older witnesses and must still be visible here (the module-doc
        argument covers elements pruned on *earlier* arrivals only).
        Older exact duplicates are skipped — they do not count against
        the newcomer under the youngest-copy tie convention (which is
        what makes k = 1 coincide exactly with NofNSkyline).

        ``pending`` parks prefilter casualties until their pruning
        arrival: logically retained (they count towards ``rn_size`` and
        appear in younger members' older-dominator lists — exactly as
        the R-tree would surface them per element) but never indexed.
        Per-element semantics are reconstructed exactly:

        * a frozen-tree victim only counts while its record is still
          retained (aliveness against ``self._records``), and its
          reseat rewrites its row's ``low`` at once;
        * increments *from* chunk survivors *to* chunk survivors come
          from the prefilter's dominance matrix
          (:meth:`BatchPrefilter.older_weak_victims`, listed for every
          member in one pass over the matrix) — the prefilter
          bound guarantees they stay below ``k``, so mid-chunk
          survivors never demote, and the flush computes each one's
          threshold from its final count;
        * older-dominator lists merge the intra-chunk stream (alive
          pending members and installed survivors, youngest first — all
          younger than anything indexed) with the frozen-tree stream,
          skipping entries that died mid-chunk.  Doomed members skip
          the search: the list only ever feeds their interval encoding,
          which they never get;
        * the stats counters are added once per chunk.
        """
        pre = BatchPrefilter(block, k=self.k)
        rtree = self._rtree
        victims0 = rtree.report_dominated_batch(block, first_only=False)
        first = chunk[0].kappa  # the index holds every retained kappa below it
        deletes: List[int] = []
        pending: Dict[int, StreamElement] = {}
        expired_count = demoted_count = rn_sum = rn_peak = 0
        for i, element in enumerate(chunk):
            self._m = element.kappa

            # The one position leaving the window (chunk members
            # cannot: a chunk holds at most ``capacity`` of them).
            expired = 0
            leaving = self._records.get(self._m - self.capacity)
            if leaving is not None:
                self._discard(leaving, deletes, first)
                expired = 1

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
                    self._discard(dominated_record, deletes, first)
                    demoted += 1
                else:
                    # Its threshold dominator moved: re-encode its row.
                    rtree.set_low(
                        entry.kappa,
                        float(self._threshold_kappa(dominated_record)),
                    )
            for h in pre.older_weak_victims(i):
                survivor = self._records.get(chunk[h].kappa)
                if survivor is None:
                    continue  # pending (no index state) or already gone
                survivor.younger += 1
                if survivor.younger >= self.k:  # pragma: no cover
                    # Unreachable by the prefilter bound; kept for the
                    # same defensive shape as the frozen-tree branch.
                    self._discard(survivor, deletes, first)
                    demoted += 1
            for h in pre.killed_at(i):
                if pending.pop(chunk[h].kappa, None) is not None:
                    demoted += 1

            if pre.is_doomed(i):
                pending[element.kappa] = element
            else:
                record = _BandRecord(element)
                record.older_doms = older_doms
                self._records[element.kappa] = record

            expired_count += expired
            demoted_count += demoted
            rn_size = len(self._records) + len(pending)
            rn_sum += rn_size
            if rn_size > rn_peak:
                rn_peak = rn_size
        self.stats.record_arrivals(
            len(chunk), expired_count, demoted_count, rn_sum, rn_peak
        )
        if pending:
            raise StructureCorruptionError(
                f"{len(pending)} doomed batch members survived their chunk"
            )
        if deletes:
            rtree.delete_many(deletes)
        rows = [i for i in pre.survivors if chunk[i].kappa in self._records]
        if rows:
            records = [self._records[chunk[i].kappa] for i in rows]
            rtree.insert_many(
                block if len(rows) == len(chunk) else block[rows],
                [chunk[i].kappa for i in rows],
                records,
                lows=[float(self._threshold_kappa(r)) for r in records],
            )
        return pre.dropped

    def _discard(
        self, record: _BandRecord, deletes: List[int], indexed_below: int
    ) -> None:
        """Remove a pruned or expired record's book-keeping.  Its index
        row (and interval) delete is queued on ``deletes`` for the
        chunk's :meth:`DenseIndex.delete_many` when the record is
        indexed (its kappa is below ``indexed_below``, the chunk's
        first); a chunk survivor is simply never indexed."""
        kappa = record.element.kappa
        del self._records[kappa]
        if kappa < indexed_below:
            deletes.append(kappa)

    def _threshold_kappa(self, record: _BandRecord) -> int:
        """Position of the dominator whose window-exit admits ``record``.

        The ``(k - younger)``-th youngest older dominator, or 0 when
        fewer exist (the element qualifies for every window holding it).
        """
        need = self.k - record.younger
        if len(record.older_doms) < need:
            return 0
        return record.older_doms[need - 1]

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
            answer = self._stab_cache.stab(stab)
        else:
            answer = self._stab_index(stab)
        self.stats.record_query(len(answer))
        return answer

    def _stab_index(self, t: float) -> List[StreamElement]:
        """The elements whose interval ``t`` stabs, in kappa order: one
        stab of the index, which the query cache memoizes."""
        return [record.element for record in self._rtree.stab(t)]

    def skyband(self) -> List[StreamElement]:
        """The k-skyband of the whole window."""
        return self.query(self.capacity)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

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
    def structure_version(self) -> int:
        """Monotonic version of the interval encoding (see
        :attr:`repro.core.nofn.NofNSkyline.structure_version`); a
        reseat's ``low`` rewrite moves it too."""
        return self._rtree.version

    @property
    def stab_cache(self) -> Optional[StabCache[StreamElement]]:
        """The query cache, or ``None`` when ``query_cache=False``."""
        return self._stab_cache

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss/rebuild counters of the query cache (``None`` when
        caching is disabled)."""
        if self._stab_cache is None:
            return None
        return self._stab_cache.stats()
