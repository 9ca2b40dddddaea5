"""(n1,n2)-of-N skyline queries (paper section 4).

An (n1,n2)-of-N query asks for the skyline of the elements between the
``n2``-th and the ``n1``-th most recent arrivals (``n1 <= n2 <= N``) —
recent "historic" information, with n-of-N as the special case
``n1 = 1``.

Unlike n-of-N processing, *all* of ``P_N`` must be retained (``n1``
could equal ``n2``).  Every element ``e`` carries two ancestors:

* ``a_e`` — the **critical ancestor**: youngest *older* dominator
  (Equation 1; ``0`` when none exists), and
* ``b_e`` — the **backward critical ancestor**: oldest *younger*
  dominator (Equation 2; ``infinity`` — stored as ``None`` — while no
  younger dominator exists, i.e. while ``e`` is in ``R_N``).

Theorem 4: ``e`` answers an (n1,n2)-of-N query iff ::

    kappa(a_e) < M - n2 + 1 <= kappa(e) <= M - n1 + 1 < kappa(b_e)

The edge set (the *CBC dominance graph*) is encoded as intervals
``(kappa(a_e), kappa(e)]`` annotated with ``kappa(b_e)`` and split over
two interval trees (Figure 11):

* ``I_RN`` — elements still in ``R_N`` (``b_e = infinity``), which is
  exactly the n-of-N structure of section 3.2, and
* ``I_RN-`` — superseded elements (finite ``b_e``).

Queries stab both trees with ``M - n2 + 1`` and post-filter on the
``b_e`` condition (Algorithm 3); maintenance (Algorithm 4) mirrors
Algorithm 1, with dominated elements *demoted* from ``I_RN`` to
``I_RN-`` instead of discarded.  Every element moves between the trees
at most once, keeping updates amortised ``O(log N)``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.structures.dense_index import DenseIndex
from repro.structures.interval_tree import IntervalHandle, IntervalTree


class _WindowRecord:
    """Book-keeping for one element of ``P_N`` (CBC graph vertex)."""

    __slots__ = (
        "element",
        "a_kappa",
        "b_kappa",
        "handle",
        "in_rn",
        "dependents",
    )

    def __init__(self, element: StreamElement) -> None:
        self.element = element
        self.a_kappa: int = 0
        self.b_kappa: Optional[int] = None  # None encodes +infinity
        self.handle: Optional[IntervalHandle] = None
        self.in_rn = True
        #: kappas of elements whose critical ancestor is this element.
        self.dependents: Set[int] = set()


class N1N2Skyline:
    """Sliding-window engine answering all (n1,n2)-of-N skyline queries.

    Parameters
    ----------
    dim:
        Dimensionality of the stream's value vectors.
    capacity:
        ``N`` — the window size; queries may use any
        ``1 <= n1 <= n2 <= N``.
    sanitize:
        Runtime invariant checking: ``"off"`` (default), ``"sampled"``,
        ``"full"``, or a shared
        :class:`~repro.sanitize.InvariantSanitizer`.
    query_cache / batch_chunk:
        Query and batched-ingest knobs (see
        :class:`~repro.core.nofn.NofNSkyline`).  Each interval tree
        (``I_RN`` and ``I_RN-``) gets its own versioned stab cache; the
        cached answers are the *raw* stab lists, post-filtered per query
        on the Theorem-4 bounds exactly as the uncached path does.

    Notes
    -----
    Space is ``O(N)``: the whole window is retained, as section 4
    requires.  Use :class:`repro.core.nofn.NofNSkyline` when only
    ``n1 = 1`` queries are needed — it stores only ``R_N``.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
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
        self._records: Dict[int, _WindowRecord] = {}
        self._live = IntervalTree()  # I_RN   (b = infinity)
        self._superseded = IntervalTree()  # I_RN- (finite b)
        self._rtree = DenseIndex(dim)
        self._live_cache: Optional[StabCache[_WindowRecord]] = (
            StabCache(self._live) if query_cache else None
        )
        self._superseded_cache: Optional[StabCache[_WindowRecord]] = (
            StabCache(self._superseded) if query_cache else None
        )
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 4)
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> StreamElement:
        """Ingest one stream element; return it."""
        self._m += 1
        element = StreamElement(values, self._m, payload)

        # -- Expire the element leaving P_N (always the oldest). --------
        expired = 0
        leaving = self._m - self.capacity
        if leaving >= 1:
            self._expire(self._records[leaving])
            expired = 1

        # -- Demote D_{e_new}: e_new becomes their backward ancestor. ---
        demoted = 0
        for entry in self._rtree.remove_dominated(element.values):
            record: _WindowRecord = entry.data
            self._demote(record, b_kappa=element.kappa)
            demoted += 1

        # -- Critical ancestor of the newcomer (best-first search). -----
        record = _WindowRecord(element)
        parent_entry = self._rtree.max_kappa_dominator(element.values)
        if parent_entry is not None:
            parent: _WindowRecord = parent_entry.data
            record.a_kappa = parent.element.kappa
            parent.dependents.add(element.kappa)

        record.handle = self._live.insert(
            float(record.a_kappa), float(element.kappa), record
        )
        self._rtree.insert(element.values, element.kappa, record)
        self._records[element.kappa] = record

        self.stats.record_arrival(
            expired=expired, dominated=demoted, rn_size=len(self._rtree)
        )
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)
        return element

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[StreamElement]:
        """Ingest a batch of stream elements; return them.

        Semantically identical to calling :meth:`append` once per point
        — identical window contents, CBC-graph ancestors, query answers
        and maintenance stats afterwards — but faster on bursty feeds:
        batch members the vectorised intra-batch prefilter proves
        dominated by a younger same-batch member are installed as
        superseded records directly (their backward critical ancestor is
        already known), skipping the R-tree and ``I_RN`` insert/remove
        cycle entirely.

        Validation is all-or-nothing: dimension mismatches and invalid
        values raise before any engine state changes.
        """
        started = perf_counter()
        elements = self._batch_elements(points, payloads)
        dropped = 0
        chunk = min(self._batch_chunk, self.capacity)
        for lo, hi in iter_chunks(len(elements), chunk):
            dropped += self._arrive_chunk(elements, lo, hi)
            if self._sanitizer is not None:
                self._sanitizer.maybe_verify(self)
        self.stats.record_batch(
            size=len(elements), dropped=dropped, seconds=perf_counter() - started
        )
        return elements

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
        no chunk member can expire before its in-chunk dominator
        arrives).

        All R-tree mutations the chunk causes are deferred: demotions
        and expiries accumulate into one bulk
        :meth:`~repro.structures.dense_index.DenseIndex.delete_many` and the
        chunk's surviving members land with one
        :meth:`~repro.structures.dense_index.DenseIndex.insert_many`, so the
        tree is searched (and re-summarised) once per chunk instead of
        once per element.  The tree therefore stays at its chunk-start
        state throughout; the two batched searches below answer every
        member's demotion report and critical-ancestor query against
        that frozen state, and per-arrival staleness is repaired with
        window-membership (``_records``) and ``in_rn`` checks.  Chunk
        members themselves never appear in the frozen answers, so the
        intra-chunk prefilter stream is merged in first — chunk kappas
        outrank every indexed kappa, making the first logically-alive
        intra candidate automatically the youngest.

        ``alive_doomed`` tracks prefilter casualties whose killer has
        not arrived yet: logically still in ``R_N`` (they count towards
        ``rn_size``, are candidate critical ancestors, and are reported
        as demotions at their killer's arrival) but physically already
        installed as superseded records.  A surviving member never has
        an alive doomed ancestor: that ancestor's killer would dominate
        the survivor too.
        """
        chunk = elements[lo:hi]
        points = [e.values for e in chunk]
        pre = BatchPrefilter(points, k=1)
        base_kappa = chunk[0].kappa
        rtree = self._rtree
        victims0 = rtree.report_dominated_batch(points)
        parents0 = rtree.max_kappa_dominator_batch(points)

        deferred_deletes: List[int] = []
        deferred_inserts: Dict[int, _WindowRecord] = {}

        def defer_delete(kappa: int) -> None:
            if deferred_inserts.pop(kappa, None) is None:
                deferred_deletes.append(kappa)

        alive_doomed: Dict[int, _WindowRecord] = {}
        live_rn = len(rtree)  # |R_N| were the deferred flushes applied
        for i, element in enumerate(chunk):
            kappa = element.kappa
            self._m = kappa

            expired = 0
            leaving = kappa - self.capacity
            if leaving >= 1:
                leaving_record = self._records[leaving]
                if leaving_record.in_rn:
                    live_rn -= 1
                self._expire(leaving_record, defer_delete)
                expired = 1

            demoted = 0
            for entry in victims0[i]:
                victim = self._records.get(entry.kappa)
                if victim is None:
                    continue  # expired earlier in the chunk
                self._demote(victim, b_kappa=kappa)
                defer_delete(entry.kappa)
                live_rn -= 1
                demoted += 1
            for h in pre.killed_at(i):
                if alive_doomed.pop(base_kappa + h, None) is not None:
                    demoted += 1

            record = _WindowRecord(element)
            # Youngest logically-alive older dominator: intra-chunk
            # candidates first (surviving members sit in
            # ``deferred_inserts``, doomed-but-unkilled ones in
            # ``alive_doomed`` — neither is in the frozen tree), then
            # the frozen-tree answer, stale-walked past members the
            # chunk has already expired or demoted.
            parent: Optional[_WindowRecord] = None
            for h in pre.older_weak_dominators(i):
                kappa_h = base_kappa + h
                candidate = alive_doomed.get(kappa_h)
                if candidate is None:
                    record_h = self._records.get(kappa_h)
                    if record_h is not None and record_h.in_rn:
                        candidate = record_h
                if candidate is not None:
                    parent = candidate
                    break
            if parent is None:
                parent_entry = parents0[i]
                while parent_entry is not None:
                    stale = self._records.get(parent_entry.kappa)
                    if stale is not None and stale.in_rn:
                        parent = stale
                        break
                    parent_entry = rtree.max_kappa_dominator(
                        element.values, kappa_below=parent_entry.kappa
                    )
            if parent is not None:
                record.a_kappa = parent.element.kappa
                parent.dependents.add(kappa)
            if pre.is_doomed(i):
                record.b_kappa = base_kappa + pre.kill[i]
                record.in_rn = False
                record.handle = self._superseded.insert(
                    float(record.a_kappa), float(kappa), record
                )
                alive_doomed[kappa] = record
            else:
                record.handle = self._live.insert(
                    float(record.a_kappa), float(kappa), record
                )
                deferred_inserts[kappa] = record
                live_rn += 1
            self._records[kappa] = record

            self.stats.record_arrival(
                expired=expired,
                dominated=demoted,
                rn_size=live_rn + len(alive_doomed),
            )
        if alive_doomed:
            raise StructureCorruptionError(
                f"{len(alive_doomed)} doomed batch members survived their chunk"
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

    def _expire(
        self,
        record: _WindowRecord,
        defer: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Drop the oldest window element, re-rooting its dependents.

        ``defer``, when given, receives the R-tree deletion instead of
        it being applied immediately (the batched frozen-tree path)."""
        if record.a_kappa != 0:
            raise StructureCorruptionError(
                f"expiring element {record.element.kappa} of P_N still has "
                f"a live critical ancestor ({record.a_kappa})"
            )
        for dep_kappa in sorted(record.dependents):
            dep = self._records[dep_kappa]
            tree = self._live if dep.in_rn else self._superseded
            dep.handle = tree.replace(dep.handle, 0.0, float(dep_kappa))
            dep.a_kappa = 0
        record.dependents.clear()
        tree = self._live if record.in_rn else self._superseded
        tree.remove(record.handle)
        record.handle = None
        if record.in_rn:
            if defer is None:
                self._rtree.delete(record.element.kappa)
            else:
                defer(record.element.kappa)
        del self._records[record.element.kappa]

    def _demote(self, record: _WindowRecord, b_kappa: int) -> None:
        """Move a newly-dominated element from ``I_RN`` to ``I_RN-``.

        Its R-tree entry has already been removed (by
        :meth:`DenseIndex.remove_dominated`, or queued for the chunk's
        :meth:`DenseIndex.delete_many`); its interval keeps the same
        endpoints, but now carries a finite backward ancestor.
        """
        self._live.remove(record.handle)
        record.handle = self._superseded.insert(
            float(record.a_kappa), float(record.element.kappa), record
        )
        record.b_kappa = b_kappa
        record.in_rn = False

    # ------------------------------------------------------------------
    # Query processing (Algorithm 3)
    # ------------------------------------------------------------------

    def query(self, n1: int, n2: int) -> List[StreamElement]:
        """Skyline of the elements between the ``n2``-th and ``n1``-th
        most recent arrivals, sorted by ``kappa``.

        Raises
        ------
        InvalidWindowError
            Unless ``1 <= n1 <= n2 <= capacity``.
        """
        if not 1 <= n1 <= n2 <= self.capacity:
            raise InvalidWindowError(
                f"need 1 <= n1 <= n2 <= {self.capacity}, got ({n1}, {n2})"
            )
        self.stats.queries += 1
        if self._m == 0:
            return []
        upper = self._m - n1 + 1  # kappa of the n1-th most recent element
        if upper < 1:
            return []  # the requested slice predates the stream
        stab = max(1, self._m - n2 + 1)

        results: List[StreamElement] = []
        live = (
            self._live_cache.stab(stab)
            if self._live_cache is not None
            else self._live.stab(stab)
        )
        for record in live:
            # Live elements have b = infinity; only the upper bound on
            # kappa(e) needs checking.
            if record.element.kappa <= upper:
                results.append(record.element)
        if n1 > 1:
            # Superseded elements have finite b <= M; they can only
            # qualify when the slice ends strictly before the present.
            superseded = (
                self._superseded_cache.stab(stab)
                if self._superseded_cache is not None
                else self._superseded.stab(stab)
            )
            for record in superseded:
                if record.element.kappa <= upper < record.b_kappa:
                    results.append(record.element)
        results.sort(key=lambda e: e.kappa)
        self.stats.query_results += len(results)
        return results

    def query_nofn(self, n: int) -> List[StreamElement]:
        """The n-of-N special case (``n1 = 1``)."""
        return self.query(1, n)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def seen_so_far(self) -> int:
        """``M`` — number of elements ingested."""
        return self._m

    @property
    def window_size(self) -> int:
        """Current ``|P_N|`` (= min(M, N))."""
        return len(self._records)

    @property
    def rn_size(self) -> int:
        """Current ``|R_N|`` within the window."""
        return len(self._rtree)

    def window_elements(self) -> List[StreamElement]:
        """Every element of ``P_N``, oldest first."""
        return [self._records[k].element for k in sorted(self._records)]

    def ancestors(self, kappa: int) -> Tuple[int, Optional[int]]:
        """``(kappa(a_e), kappa(b_e))`` for the window element labelled
        ``kappa`` (``0`` means no critical ancestor; ``None`` means the
        backward critical ancestor does not exist yet)."""
        record = self._records[kappa]
        return record.a_kappa, record.b_kappa

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify CBC-graph and cross-structure consistency, with the
        Theorem-4 ancestors recomputed by brute force.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_n1n2

        verify_n1n2(self)

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
        """Monotonic version of the interval encoding: the sum of both
        trees' versions (every demotion, expiry or arrival bumps it)."""
        return self._live.version + self._superseded.version

    @property
    def batch_chunk(self) -> int:
        """The effective batched-ingest chunk size (the ``batch_chunk``
        knob, or the library default when unset)."""
        return self._batch_chunk

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Combined hit/miss/rebuild counters of the two stab caches
        (``None`` when caching is disabled)."""
        if self._live_cache is None or self._superseded_cache is None:
            return None
        merged = dict(self._live_cache.stats())
        for key, value in self._superseded_cache.stats().items():
            merged[key] += value
        return merged


class ContinuousN1N2Query:
    """A continuous (n1,n2)-of-N query.

    The paper develops a space-efficient trigger algorithm for this case
    but omits it for space (section 4, final paragraph); following
    DESIGN.md §4, this wrapper maintains the result by re-running the
    stabbing query per arrival — the strategy the paper itself
    benchmarks as "running nN per new data element" in Figure 16 — and
    reports the per-arrival result delta so applications can react to
    changes only.
    """

    def __init__(self, engine: N1N2Skyline, n1: int, n2: int) -> None:
        if not 1 <= n1 <= n2 <= engine.capacity:
            raise InvalidWindowError(
                f"need 1 <= n1 <= n2 <= {engine.capacity}, got ({n1}, {n2})"
            )
        self.engine = engine
        self.n1 = n1
        self.n2 = n2
        self._current: List[StreamElement] = engine.query(n1, n2)

    def append(
        self, values: Sequence[float], payload: Any = None
    ) -> Tuple[List[StreamElement], List[StreamElement]]:
        """Feed one element; return ``(added, removed)`` result changes."""
        self.engine.append(values, payload)
        return self.refresh()

    def refresh(self) -> Tuple[List[StreamElement], List[StreamElement]]:
        """Recompute the result; return ``(added, removed)``."""
        fresh = self.engine.query(self.n1, self.n2)
        old = {e.kappa: e for e in self._current}
        new = {e.kappa: e for e in fresh}
        added = [e for k, e in new.items() if k not in old]
        removed = [e for k, e in old.items() if k not in new]
        self._current = fresh
        return added, removed

    def result(self) -> List[StreamElement]:
        """The current result, sorted by arrival position."""
        return list(self._current)
