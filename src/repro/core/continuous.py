"""Continuous n-of-N queries (paper section 3.4, Algorithm 2).

A continuous query is registered once and its result set ``S_n`` is
kept up to date as the stream advances.  Re-running the stabbing query
per arrival costs ``O(log N + s)``; the trigger-based algorithm here
instead applies Proposition 1 incrementally:

* **Deletion** — a result element leaves when the newcomer dominates it
  or when it expires from the most recent ``n`` elements;
* **Insertion** — the newcomer enters when its critical dominator (if
  any) is already outside the window; and when a result element
  expires, the elements it *critically dominated* take its place
  (cascading until the trigger list's oldest kappa is inside the window
  again).

The paper keeps a min-heap on kappa over ``S_n`` as the trigger list;
here each query keeps the kappas of ``S_n`` in one ascending list.
Only its first entry must be examined per arrival, giving ``O(delta)``
result maintenance plus an ``O(log s)`` search and an ``O(s)`` C-level
memmove per result change, where ``delta`` is the number of result
changes.

The manager consumes the :class:`~repro.core.events.ArrivalOutcome`
emitted by :meth:`NofNSkyline.append`; this realises the paper's
"linking an element to the continuous queries which are using it".

Registration seeds each query's result set through
:meth:`NofNSkyline.query`, so it answers from the engine's versioned
stab cache when that is enabled — registering many queries between
arrivals costs one snapshot rebuild, not one tree walk per query.

**Dispatch** is sublinear in the number of registered queries: handles
are deduped into per-``n`` :class:`~repro.core.query_index.QueryGroup`
objects kept on a sorted axis, and each arrival's change records are
routed to only the affected contiguous group range by binary search —
``O(log Q + affected)`` per event instead of the seed's ``O(Q)`` loop
(see :mod:`repro.core.query_index` for the derivation, and the
``query_index`` knob below for the escape hatch).

Usage::

    engine = NofNSkyline(dim=2, capacity=1000)
    manager = ContinuousQueryManager(engine)
    handle = manager.register(n=100)
    for point in stream:
        manager.append(point)          # feeds engine + all queries
        current = handle.result()      # always equals engine.query(100)
"""

from __future__ import annotations

import bisect
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as _np

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.core.nofn import NofNSkyline
from repro.core.query_index import (
    INDEX_MODES,
    QueryGroup,
    QueryIndex,
    resolve_index_mode,
)
from repro.exceptions import InvalidWindowError, QueryNotRegisteredError
from repro.sanitize.sanitizer import InvariantSanitizer, SanitizeArg

if TYPE_CHECKING:
    from repro.accel.stab_cache import StabCache

__all__ = [
    "INDEX_MODES",
    "ContinuousQueryHandle",
    "ContinuousQueryManager",
]

#: Minimum number of change records in a batch before the vectorised
#: ``searchsorted`` routing pass beats per-record ``bisect`` calls.
_BATCH_KERNEL_MIN = 8


class ContinuousQueryHandle:
    """A registered continuous n-of-N query.

    The handle is a *view* onto the :class:`QueryGroup` shared by every
    registered query with the same ``n``; it is updated by its
    :class:`ContinuousQueryManager` and read by the application.
    ``changes`` counts this handle's insertions+deletions since its own
    registration (the group's counter minus a per-handle base), so two
    handles at the same ``n`` registered at different times report
    different counts — exactly as the per-handle implementation did.
    """

    __slots__ = ("query_id", "n", "_group", "_changes_base")

    def __init__(
        self, query_id: int, n: int, group: QueryGroup, changes_base: int
    ) -> None:
        self.query_id = query_id
        self.n = n
        self._group = group
        self._changes_base = changes_base

    @property
    def changes(self) -> int:
        """Number of element insertions+deletions applied since
        registration (the paper's cumulative ``delta``)."""
        return self._group.changes - self._changes_base

    @property
    def _members(self) -> Dict[int, StreamElement]:
        return self._group._members

    def result(self) -> List[StreamElement]:
        """The current skyline of the most recent ``n`` elements,
        sorted by arrival position."""
        return self._group.result()

    def result_kappas(self) -> List[int]:
        """Arrival labels of the current result, ascending."""
        return self._group.result_kappas()

    def __contains__(self, kappa: int) -> bool:
        return kappa in self._group

    def __len__(self) -> int:
        return len(self._group)


class ContinuousQueryManager:
    """Runs any number of continuous n-of-N queries over one engine.

    The manager wraps an :class:`NofNSkyline`; feed the stream through
    :meth:`append` / :meth:`append_many` (or call :meth:`process` /
    :meth:`process_batch` yourself with the outcomes of
    ``engine.append`` / ``engine.append_many`` if you drive the engine
    directly — every outcome since the manager's construction must reach
    it, in order).

    The manager keeps its own mirror of the critical dominance forest,
    advanced purely from the outcomes it consumes.  That makes trigger
    processing independent of the engine's *current* state — essential
    for batched ingestion, where the engine has already advanced to the
    end of the batch while the manager replays the batch's outcomes one
    arrival at a time.

    Parameters
    ----------
    engine:
        The n-of-N engine to wrap.
    sanitize:
        Runtime invariant checking of the manager's own state (trigger
        lists, graph mirror, result sync, query-index structure):
        ``"off"`` (default), ``"sampled"``, ``"full"``, or a shared
        :class:`~repro.sanitize.InvariantSanitizer`.  Independent of
        the engine's own ``sanitize`` setting.
    query_index:
        Dispatch strategy for registered queries.  ``"auto"`` (default)
        and ``"on"`` dedupe handles into per-``n`` groups on a sorted
        stab-point axis and route each change record to its contiguous
        group range by binary search; ``"off"`` keeps the seed
        per-handle ``O(Q)`` loop (the measured baseline).  Results,
        ``changes`` counters and trigger order are identical either way.
    """

    def __init__(
        self,
        engine: NofNSkyline,
        sanitize: SanitizeArg = "off",
        query_index: str = "auto",
    ) -> None:
        self.engine = engine
        #: The resolved ``query_index`` knob: ``"on"`` or ``"off"``.
        self.query_index = resolve_index_mode(query_index)
        self._sanitizer = InvariantSanitizer.coerce(sanitize)
        self._queries: Dict[int, ContinuousQueryHandle] = {}
        self._next_id = 1
        self._index: Optional[QueryIndex] = (
            QueryIndex() if self.query_index == "on" else None
        )
        # Dominance-forest mirror over R_N: element, parent kappa (0 for
        # roots) and children kappas per retained element.
        self._graph_elements: Dict[int, StreamElement] = {}
        self._graph_parent: Dict[int, int] = {}
        self._graph_children: Dict[int, Set[int]] = {}
        for element in engine.non_redundant():
            self._graph_elements[element.kappa] = element
            self._graph_children[element.kappa] = set()
        for parent_kappa, child_kappa in engine.dominance_graph_edges():
            self._graph_parent[child_kappa] = parent_kappa
            if parent_kappa:
                self._graph_children[parent_kappa].add(child_kappa)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, n: int) -> ContinuousQueryHandle:
        """Register a continuous n-of-N query.

        The initial result is computed with one stabbing query; from
        then on the result is maintained incrementally.  With the query
        index on, a second registration at an already-registered ``n``
        shares that group's state instead of seeding a new one.
        """
        if not 1 <= n <= self.engine.capacity:
            raise InvalidWindowError(
                f"n must be in [1, {self.engine.capacity}], got {n}"
            )
        if self._index is None:
            group = QueryGroup(n)
            group.refs = 1
            for element in self.engine.query(n):
                group.add(element)
        else:
            group, created = self._index.acquire(n)
            if created:
                for element in self.engine.query(n):
                    group.add(element)
                self._index.schedule(group)
        handle = ContinuousQueryHandle(
            self._next_id, n, group, changes_base=group.changes
        )
        self._next_id += 1
        self._queries[handle.query_id] = handle
        return handle

    def unregister(self, handle: ContinuousQueryHandle) -> None:
        """Stop maintaining ``handle``.

        The handle's result freezes at its current value (even when
        other handles at the same ``n`` stay registered — the departing
        handle is detached onto a private copy of the group state).
        """
        if self._queries.pop(handle.query_id, None) is None:
            raise QueryNotRegisteredError(
                f"query {handle.query_id} is not registered here"
            )
        if self._index is None:
            handle._group.refs = 0
            return
        group = self._index.release(handle.n)
        if group.refs > 0 and group is handle._group:
            # Other handles still share this group; freeze the departing
            # handle on a private snapshot so its result stops moving.
            delta = handle.changes
            frozen = QueryGroup(handle.n)
            for element in group.result():
                frozen.add(element)
            handle._group = frozen
            handle._changes_base = frozen.changes - delta

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[ContinuousQueryHandle]:
        return iter(list(self._queries.values()))

    # ------------------------------------------------------------------
    # Stream feeding
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> ArrivalOutcome:
        """Feed one element to the engine and update every query."""
        outcome = self.engine.append(values, payload)
        self.process(outcome)
        return outcome

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> BatchOutcome:
        """Feed a batch to the engine and update every query.

        Every query fires exactly the triggers — in the same order —
        that element-by-element :meth:`append` calls would have fired.
        """
        batch = self.engine.append_many(points, payloads)
        self.process_batch(batch)
        return batch

    def process(self, outcome: ArrivalOutcome) -> None:
        """Apply one arrival's changes (Algorithm 2) to every query."""
        removed_kappas = outcome.removed_kappas
        # Children of an element that expired from R_N this arrival are
        # dropped from the mirror below; resolve them from the outcome's
        # captured snapshot instead.
        expired_children = {
            rec.element.kappa: rec.children for rec in outcome.expired
        }
        index = self._index
        if index is None:
            self._advance_graph(outcome)
            for handle in self._queries.values():
                self._process_query(
                    handle, outcome, removed_kappas, expired_children
                )
        else:
            # Removal bounds read each ejected element's parent from the
            # mirror *before* this arrival is applied to it.
            removals = self._removal_bounds(outcome)
            self._advance_graph(outcome)
            self._route_arrival(
                index, outcome, removals, removed_kappas, expired_children
            )
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)

    def process_batch(self, batch: BatchOutcome) -> None:
        """Apply a batch's changes arrival by arrival to every query.

        With the query index on, the whole batch's change records are
        bounds-resolved up front and routed to group ranges in one
        vectorised ``searchsorted`` pass over the sorted stab-point
        axis; the per-arrival replay then applies precomputed slices.
        Trigger order and results are identical to per-arrival
        :meth:`process` calls.
        """
        index = self._index
        outcomes: Tuple[ArrivalOutcome, ...] = batch.outcomes
        if index is None or not outcomes or not index._order:
            for outcome in outcomes:
                self.process(outcome)
            return

        # Phase 1: collect (arrival, element, lo, hi) removal records
        # and per-arrival insertion bounds.  Parents are resolved
        # against the pre-batch mirror plus a batch-local hint table of
        # newcomers' birth parents — the mirror itself is only advanced
        # in phase 3.  A parent that expires mid-batch re-roots its
        # children to 0, which widens the true range; the stale bound is
        # then still a superset (it reaches past every registered n),
        # and application below stays exact via the membership check.
        sentinel = self.engine.capacity + 1
        rem_arrival: List[int] = []
        rem_elements: List[StreamElement] = []
        rem_lo: List[int] = []
        rem_hi: List[int] = []
        ins_hi: List[int] = []
        hints: Dict[int, int] = {}
        for i, outcome in enumerate(outcomes):
            m = outcome.seen_so_far
            for element in outcome.dominated_removed:
                kappa = element.kappa
                parent = hints.get(kappa)
                if parent is None:
                    parent = self._graph_parent.get(kappa, 0)
                rem_arrival.append(i)
                rem_elements.append(element)
                rem_lo.append(m - kappa)
                rem_hi.append(m - parent - 1 if parent else sentinel)
            parent = outcome.parent_kappa
            ins_hi.append(m - parent if parent else sentinel)
            hints[outcome.element.kappa] = parent

        # Phase 2: route every bound to an axis slice in one pass.
        rem_left, rem_right = self._route_bounds(index, rem_lo, rem_hi)
        _, ins_right = self._route_bounds(index, None, ins_hi)

        # Phase 3: per-arrival replay — apply the precomputed slices,
        # then fire this arrival's expiry cascades.  Order per group is
        # removals, insertion, cascade: the seed per-handle order.
        order = index._order
        rem_ptr = 0
        rem_count = len(rem_arrival)
        touched = 0
        for i, outcome in enumerate(outcomes):
            removed_kappas = outcome.removed_kappas
            expired_children = {
                rec.element.kappa: rec.children for rec in outcome.expired
            }
            self._advance_graph(outcome)
            while rem_ptr < rem_count and rem_arrival[rem_ptr] == i:
                kappa = rem_elements[rem_ptr].kappa
                for group in order[rem_left[rem_ptr]:rem_right[rem_ptr]]:
                    touched += 1
                    if kappa in group._members:
                        group.remove(kappa)
                rem_ptr += 1
            newcomer = outcome.element
            for group in order[: ins_right[i]]:
                touched += 1
                group.add(newcomer)
                if len(group._members) == 1:
                    index.schedule(group)
            self._fire_triggers(
                index, outcome.seen_so_far, removed_kappas, expired_children
            )
            if self._sanitizer is not None:
                self._sanitizer.maybe_verify(self)
        index._routed_events += rem_count + len(outcomes)
        index._touched_groups += touched
        index._batch_passes += 1

    @staticmethod
    def _route_bounds(
        index: QueryIndex,
        lows: Optional[List[int]],
        highs: List[int],
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Map inclusive (lo, hi) window bounds to axis slice indices.

        Vectorised through the index's NumPy axis mirror when the batch
        carries enough records to amortise the call; identical
        ``bisect`` routing otherwise.
        """
        axis = index._axis
        if len(highs) >= _BATCH_KERNEL_MIN:
            kernel = index.axis_kernel()
            left = (
                _np.searchsorted(kernel, _np.asarray(lows, dtype=_np.int64))
                if lows is not None
                else _np.zeros(len(highs), dtype=_np.int64)
            )
            right = _np.searchsorted(
                kernel, _np.asarray(highs, dtype=_np.int64), side="right"
            )
            return left.tolist(), right.tolist()
        left_list = (
            [bisect.bisect_left(axis, lo) for lo in lows]
            if lows is not None
            else [0] * len(highs)
        )
        right_list = [bisect.bisect_right(axis, hi) for hi in highs]
        return left_list, right_list

    # ------------------------------------------------------------------
    # Indexed dispatch (query_index="on")
    # ------------------------------------------------------------------

    def _removal_bounds(
        self, outcome: ArrivalOutcome
    ) -> List[Tuple[StreamElement, int, Optional[int]]]:
        """Inclusive window-size ranges hit by this arrival's dominated
        removals, read against the pre-arrival mirror.

        An ejected element with label ``kappa`` and critical parent
        ``p`` was a result member of exactly the windows
        ``M - kappa <= n <= M - p - 1`` (unbounded above when it was a
        root) at stream length ``M - 1`` — Proposition 1 with the
        window endpoints moved to the query side.
        """
        m = outcome.seen_so_far
        bounds: List[Tuple[StreamElement, int, Optional[int]]] = []
        for element in outcome.dominated_removed:
            parent = self._graph_parent.get(element.kappa, 0)
            hi = m - parent - 1 if parent else None
            bounds.append((element, m - element.kappa, hi))
        return bounds

    def _route_arrival(
        self,
        index: QueryIndex,
        outcome: ArrivalOutcome,
        removals: List[Tuple[StreamElement, int, Optional[int]]],
        removed_kappas: FrozenSet[int],
        expired_children: Dict[int, Tuple[StreamElement, ...]],
    ) -> None:
        """Apply one arrival to only the affected group ranges."""
        m = outcome.seen_so_far
        touched = 0
        # Lines 3-5 per affected group: drop ejected result elements.
        for element, lo, hi in removals:
            kappa = element.kappa
            for group in index.range_between(lo, hi):
                touched += 1
                if kappa in group._members:
                    group.remove(kappa)
        # Lines 6-8: the newcomer joins every window its critical
        # dominator has already left — an ascending-axis prefix.
        parent = outcome.parent_kappa
        newcomer = outcome.element
        for group in index.prefix_upto(m - parent if parent else None):
            touched += 1
            group.add(newcomer)
            if len(group._members) == 1:
                # The group went non-empty: give it a trigger entry.
                index.schedule(group)
        # Lines 9-14: only groups whose trigger is actually due.
        self._fire_triggers(index, m, removed_kappas, expired_children)
        index._routed_events += len(removals) + 1
        index._touched_groups += touched

    def _fire_triggers(
        self,
        index: QueryIndex,
        m: int,
        removed_kappas: FrozenSet[int],
        expired_children: Dict[int, Tuple[StreamElement, ...]],
    ) -> None:
        """Fire every group whose due is at most stream length ``m``,
        cascading child promotions exactly as the seed per-handle loop
        did.

        Dues may be stale-early (a removal can leave a due pointing at
        an already-gone trigger); an early firing expires nothing and
        :meth:`QueryIndex.schedule` re-anchors the due, which is then at
        ``kappas[0] + n >= m + 1``.
        """
        for group in index.pop_due(m):
            self._expire(
                group, m - group.n + 1, removed_kappas, expired_children
            )
            index.schedule(group)

    # ------------------------------------------------------------------
    # Shared maintenance
    # ------------------------------------------------------------------

    def _advance_graph(self, outcome: ArrivalOutcome) -> None:
        """Replay one arrival's maintenance on the dominance-forest
        mirror (same order as Algorithm 1: expire, eject, install)."""
        for rec in outcome.expired:
            kappa = rec.element.kappa
            for child in rec.children:
                self._graph_parent[child.kappa] = 0
            self._graph_elements.pop(kappa, None)
            self._graph_parent.pop(kappa, None)
            self._graph_children.pop(kappa, None)
        for element in outcome.dominated_removed:
            kappa = element.kappa
            parent_kappa = self._graph_parent.pop(kappa, 0)
            children = self._graph_children.get(parent_kappa)
            if children is not None:
                children.discard(kappa)
            self._graph_elements.pop(kappa, None)
            self._graph_children.pop(kappa, None)
        newcomer = outcome.element
        self._graph_elements[newcomer.kappa] = newcomer
        self._graph_parent[newcomer.kappa] = outcome.parent_kappa
        self._graph_children[newcomer.kappa] = set()
        if outcome.parent_kappa:
            self._graph_children[outcome.parent_kappa].add(newcomer.kappa)

    def _process_query(
        self,
        handle: ContinuousQueryHandle,
        outcome: ArrivalOutcome,
        removed_kappas: FrozenSet[int],
        expired_children: Dict[int, Tuple[StreamElement, ...]],
    ) -> None:
        """The seed per-handle maintenance loop (``query_index="off"``)."""
        group = handle._group
        window_start = outcome.seen_so_far - handle.n + 1

        # Lines 3-5: drop result elements the newcomer dominates.
        for element in outcome.dominated_removed:
            if element.kappa in group._members:
                group.remove(element.kappa)

        # Lines 6-8: the newcomer joins unless its critical dominator is
        # still inside the n-window.  (A root always joins — including
        # early in the stream, when the window is not yet full and
        # ``window_start`` is non-positive.)
        if outcome.parent_kappa == 0 or outcome.parent_kappa < window_start:
            group.add(outcome.element)

        self._expire(group, window_start, removed_kappas, expired_children)

    def _expire(
        self,
        group: QueryGroup,
        window_start: int,
        removed_kappas: FrozenSet[int],
        expired_children: Dict[int, Tuple[StreamElement, ...]],
    ) -> None:
        """Lines 9-14: fire the trigger while the oldest result element
        has left the window; each firing promotes the children of the
        expired element (cascading if a child is itself already outside
        the window)."""
        kappas = group._kappas
        members = group._members
        while kappas and kappas[0] < window_start:
            top_kappa = kappas[0]
            group.remove(top_kappa)
            for child in self._children_of(top_kappa, expired_children):
                if child.kappa in removed_kappas or child.kappa in members:
                    # Dominated by the newcomer this very arrival (and
                    # hence not skyline), or already present.
                    continue
                group.add(child)

    def _children_of(
        self, kappa: int, expired_children: Dict[int, Tuple[StreamElement, ...]]
    ) -> List[StreamElement]:
        """Critical children of ``kappa`` as of the arrival being
        processed.

        Resolved from the manager's dominance-forest mirror when the
        element is still in ``R_N``, otherwise from the expiry snapshot
        captured in the arrival outcome.  (The live engine is never
        consulted: during batch processing it is already at the end of
        the batch, ahead of the arrival being replayed.)
        """
        if kappa in expired_children:
            return list(expired_children[kappa])
        children = self._graph_children.get(kappa, ())
        return [self._graph_elements[c] for c in sorted(children)]

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

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
        """Monotonic version of the wrapped engine's interval encoding."""
        return self.engine.structure_version

    @property
    def stab_cache(self) -> "Optional[StabCache[Any]]":
        """The wrapped engine's query cache (``None`` when disabled)."""
        return self.engine.stab_cache

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss/rebuild counters of the wrapped engine's query
        cache (``None`` when caching is disabled)."""
        return self.engine.cache_stats()

    def query_index_stats(self) -> Optional[Dict[str, int]]:
        """Group and routing counters of the query index, or ``None``
        when ``query_index="off"``."""
        return None if self._index is None else self._index.stats()

    def check_invariants(self) -> None:
        """Verify trigger lists, the graph mirror, result sync and the
        query-index structure.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_continuous

        verify_continuous(self)
