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
  dominator (Equation 2; infinity while no younger dominator exists,
  i.e. while ``e`` is in ``R_N``).

Theorem 4: ``e`` answers an (n1,n2)-of-N query iff ::

    kappa(a_e) < M - n2 + 1 <= kappa(e) <= M - n1 + 1 < kappa(b_e)

so a query is one filter over the contiguous kappa range
``[M - n2 + 1, M - n1 + 1]``.  The engine holds ``P_N`` as a ring of
``N`` slots (``e`` in slot ``(kappa(e) - 1) % N``) with two float64
columns beside it: ``a`` (``kappa(a_e)``, 0 for none) and ``b``
(``kappa(b_e)``, ``+inf`` while in ``R_N``).  The kappa range covers
one or two runs of slots, and Algorithm 3 is the mask
``(a < M - n2 + 1) & (b > M - n1 + 1)`` over them; the hits come out
in kappa order.  Maintenance (Algorithm 4) mirrors Algorithm 1 over a
dense dominance index of ``R_N``: a demotion writes the newcomer's
kappa into the demoted element's ``b``, and an arrival overwrites the
slot of the element it expires.

Expiry needs no re-rooting.  Every admissible stab point
``M - n2 + 1`` is at least ``M - N + 1``, so the raw kappa of an
expired critical ancestor passes ``a < M - n2 + 1`` exactly as 0
would; :meth:`N1N2Skyline.ancestors` and snapshots report it as 0.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple, cast

import numpy as _np

from repro.accel.batch_prefilter import BatchPrefilter
from repro.core.element import StreamElement, batch_elements, checked_element
from repro.core.engine import WindowEngine, row_block
from repro.exceptions import InvalidWindowError, StructureCorruptionError
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.dense_index import DenseIndex

_INF = float("inf")


class N1N2Skyline(WindowEngine):
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
    batch_chunk:
        Batched-ingest chunk size (see
        :class:`~repro.core.nofn.NofNSkyline`).

    Notes
    -----
    Space is ``O(N)``: the whole window is retained, as section 4
    requires, and the ring and its two columns are allocated up front
    (24 bytes per slot).  Use :class:`repro.core.nofn.NofNSkyline` when only
    ``n1 = 1`` queries are needed — it stores only ``R_N``.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        sanitize: SanitizeArg = "off",
        batch_chunk: Optional[int] = None,
    ) -> None:
        super().__init__(dim, capacity, sanitize, batch_chunk)
        #: ``P_N``: the element labelled ``kappa`` sits in slot
        #: ``(kappa - 1) % capacity``.
        self._ring: List[Optional[StreamElement]] = [None] * capacity
        self._a = _np.zeros(capacity)  # kappa(a_e); 0 for none
        self._b = _np.full(capacity, _INF)  # kappa(b_e); +inf in R_N
        self._rtree = DenseIndex(dim)

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 4)
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
        — identical window contents, CBC-graph ancestors, query answers
        and maintenance stats afterwards — but faster on bursty feeds:
        batch members the vectorised intra-batch prefilter proves
        dominated by a younger same-batch member are installed as
        superseded directly (their backward critical ancestor is
        already known), skipping the dominance index entirely.

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
        its in-chunk dominator arrives, and no two share a slot); return
        how many members the prefilter dropped.  This is Algorithm 4:
        an arrival expires the element in its slot, demotes
        ``D_{e_new}`` (the newcomer becomes their backward ancestor) and
        takes its critical ancestor from a best-first search.

        All dominance-index mutations the chunk causes are deferred:
        demotions and expiries accumulate into one bulk
        :meth:`~repro.structures.dense_index.DenseIndex.delete_many` and
        the chunk's surviving members land with one
        :meth:`~repro.structures.dense_index.DenseIndex.insert_many`.
        The index therefore stays at its chunk-start state throughout;
        the two batched searches below answer the members' demotion
        reports and critical-ancestor queries against that frozen state,
        and per-arrival staleness is repaired from the columns: an
        indexed element is still in ``R_N`` iff its kappa is above
        ``M - N`` (a victim that expired earlier in the chunk shares its
        slot with a younger member) and its ``b`` is ``+inf``.  Chunk
        members themselves never appear in the frozen answers, so the
        intra-chunk prefilter stream is merged in first — chunk kappas
        outrank every indexed kappa, making the first logically-alive
        intra candidate automatically the youngest.  As in
        :meth:`repro.core.nofn.NofNSkyline._arrive_chunk`, the demotion
        report searches with the prefilter's survivors alone, and only
        members without an older same-chunk dominator take their
        critical ancestor from the chunk-wide search.

        ``alive_doomed`` holds prefilter casualties whose killer has not
        arrived yet: logically still in ``R_N`` (they count towards
        ``rn_size``, are candidate critical ancestors, and are reported
        as demotions at their killer's arrival) but already installed
        with their final ``b``.  A surviving member never has an alive
        doomed ancestor: that ancestor's killer would dominate the
        survivor too.
        """
        pre = BatchPrefilter(block, k=1)
        base_kappa = chunk[0].kappa
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
        n = self.capacity
        a, b = self._a, self._b

        deletes: List[int] = []
        alive_doomed: Set[int] = set()
        live_rn = len(rtree)  # |R_N| were the deferred writes applied
        expired_count = dominated_count = rn_sum = rn_peak = 0
        for i, element in enumerate(chunk):
            kappa = element.kappa
            self._m = kappa
            slot = (kappa - 1) % n

            expired = 0
            if kappa > n:
                expired = 1
                if b[slot] == _INF:
                    deletes.append(kappa - n)
                    live_rn -= 1

            demoted = 0
            for victim in victims0[i]:
                if victim.kappa > kappa - n:  # not expired in this chunk
                    b[(victim.kappa - 1) % n] = kappa
                    deletes.append(victim.kappa)
                    live_rn -= 1
                    demoted += 1
            for h in pre.killed_at(i):
                alive_doomed.remove(base_kappa + h)
                demoted += 1

            # Youngest logically-alive older dominator: intra-chunk
            # candidates first (survivors have b = +inf, doomed ones
            # are alive until their killer arrives), then the
            # frozen-index answer, stale-walked past elements the chunk
            # has already demoted.  The walk stops at the first expired
            # candidate: every older one has expired too.
            parent = 0
            head = youngest[i]
            if head >= 0:
                kappa_h = base_kappa + head
                if kappa_h in alive_doomed or b[(kappa_h - 1) % n] == _INF:
                    parent = kappa_h
                else:
                    # An equal point killed at this arrival: walk the
                    # older candidates.
                    for h in pre.older_weak_dominators(i):
                        kappa_h = base_kappa + h
                        if kappa_h in alive_doomed or b[(kappa_h - 1) % n] == _INF:
                            parent = kappa_h
                            break
            if not parent:
                if head < 0:
                    entry = frozen_parents[roots_seen]
                    roots_seen += 1
                else:
                    entry = rtree.max_kappa_dominator(element.values)
                while entry is not None and entry.kappa > kappa - n:
                    if b[(entry.kappa - 1) % n] == _INF:
                        parent = entry.kappa
                        break
                    entry = rtree.max_kappa_dominator(
                        element.values, kappa_below=entry.kappa
                    )
            self._ring[slot] = element
            a[slot] = parent
            if pre.is_doomed(i):
                b[slot] = base_kappa + pre.kill[i]
                alive_doomed.add(kappa)
            else:
                b[slot] = _INF
                live_rn += 1

            expired_count += expired
            dominated_count += demoted
            rn_size = live_rn + len(alive_doomed)
            rn_sum += rn_size
            if rn_size > rn_peak:
                rn_peak = rn_size
        self.stats.record_arrivals(
            len(chunk), expired_count, dominated_count, rn_sum, rn_peak
        )
        if alive_doomed:
            raise StructureCorruptionError(
                f"{len(alive_doomed)} doomed batch members survived their chunk"
            )
        if deletes:
            rtree.delete_many(deletes)
        survivors = pre.survivors
        if survivors:
            # No member expires within its chunk, so every survivor
            # is installed.
            rtree.insert_many(
                block if len(survivors) == len(chunk) else block[survivors],
                [base_kappa + i for i in survivors],
            )
        return pre.dropped

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
        upper = self._m - n1 + 1  # kappa of the n1-th most recent element
        if upper < 1:
            return []  # the requested slice predates the stream
        results = self._slice_skyline(max(1, self._m - n2 + 1), upper)
        self.stats.query_results += len(results)
        return results

    def _slice_skyline(self, stab: int, upper: int) -> List[StreamElement]:
        """Theorem 4's filter over the slots of kappas ``[stab, upper]``
        (both inside the window), in kappa order."""
        n = self.capacity
        first, last = (stab - 1) % n, (upper - 1) % n
        runs = [(first, last + 1)] if first <= last else [(first, n), (0, last + 1)]
        ring = cast(List[StreamElement], self._ring)  # window slots are full
        out: List[StreamElement] = []
        for start, stop in runs:
            hits = _np.flatnonzero(
                (self._a[start:stop] < stab) & (self._b[start:stop] > upper)
            )
            out.extend(ring[start + i] for i in hits.tolist())
        return out

    def query_nofn(self, n: int) -> List[StreamElement]:
        """The n-of-N special case (``n1 = 1``)."""
        return self.query(1, n)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def window_size(self) -> int:
        """Current ``|P_N|`` (= min(M, N))."""
        return len(self)

    @property
    def rn_size(self) -> int:
        """Current ``|R_N|`` within the window."""
        return len(self._rtree)

    def window_elements(self) -> List[StreamElement]:
        """Every element of ``P_N``, oldest first."""
        n = self.capacity
        ring = cast(List[StreamElement], self._ring)  # window slots are full
        first = self._m - len(self) + 1
        return [ring[(kappa - 1) % n] for kappa in range(first, self._m + 1)]

    def ancestors(self, kappa: int) -> Tuple[int, Optional[int]]:
        """``(kappa(a_e), kappa(b_e))`` for the window element labelled
        ``kappa`` (``0`` means no critical ancestor in the window;
        ``None`` means the backward critical ancestor does not exist
        yet).

        Raises
        ------
        KeyError
            If ``kappa`` is not in the window.
        """
        if not self._m - len(self) < kappa <= self._m:
            raise KeyError(kappa)
        slot = (kappa - 1) % self.capacity
        a = int(self._a[slot])
        b = float(self._b[slot])
        return (
            a if a > self._m - self.capacity else 0,
            None if b == _INF else int(b),
        )

    def __len__(self) -> int:
        return min(self._m, self.capacity)

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the ring, its columns and the dominance index, with
        the Theorem-4 ancestors and slice skylines recomputed by brute
        force.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_n1n2

        verify_n1n2(self)


class ContinuousN1N2Query:
    """A continuous (n1,n2)-of-N query.

    The paper develops a space-efficient trigger algorithm for this case
    but omits it for space (section 4, final paragraph); following
    DESIGN.md §4, this wrapper maintains the result by re-running the
    query per arrival — the strategy the paper itself
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
