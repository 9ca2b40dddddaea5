"""Continuous n-of-N queries (paper section 3.4, Proposition 1).

A continuous query is registered once and its result set ``S_n`` is
kept up to date as the stream advances.  The paper maintains each
result with triggers (Algorithm 2).  This module uses Proposition 1 in
closed form instead: an element's membership in ``S_n`` is one interval
of stream lengths, so a whole batch of arrivals changes every
registered query by a count that one difference array computes.

**The closed form.**  Take an element ``e`` with critical parent ``p``
at its arrival (``kappa_p = 0`` for a root) that leaves ``R_N`` by
dominance at arrival ``D_e`` (``D_e = inf`` while it stays).  Then
``e`` is in ``S_n`` at stream length ``m`` exactly when
``start_n <= m <= end_n``, with

* ``start_n = kappa_e`` for a root and ``max(kappa_e, kappa_p + n)``
  otherwise;
* ``end_n = min(kappa_e + n - 1, D_e - 1)``.

The birth parent is enough: a parent leaves ``R_N`` by dominance only
at an arrival that also dominates ``e``, and by expiry only once
``kappa_p + n <= m`` holds anyway (docs/THEORY.md has the proof).

**Counting.**  Over a batch ``(M0, M1]`` query ``n`` gains one change
at ``start_n`` and one at ``end_n + 1`` whenever they fall inside the
batch and ``start_n <= end_n``.  For one element the ``n`` that see an
insertion form one contiguous run of the sorted window axis, and so do
the ``n`` that see a deletion; one ``searchsorted`` per bound and one
``bincount``/``cumsum`` difference array count every window at once.

**State.**  One row per element of ``R_N`` at the last stream length
the manager processed: kappa, birth parent and the element, in kappa
order.  A batch appends its newcomers, marks the arrivals that dominate
rows, counts, then drops the rows that left ``R_N``.  Results are read
from the rows, not from the engine, so a caller who drives the engine
directly reads the manager's own state until it hands the outcomes
over.

Usage::

    engine = NofNSkyline(dim=2, capacity=1000)
    manager = ContinuousQueryManager(engine)
    handle = manager.register(n=100)
    for point in stream:
        manager.append(point)          # feeds engine + all queries
        current = handle.result()      # always equals engine.query(100)
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
)

import numpy as _np

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.core.nofn import NofNSkyline
from repro.exceptions import InvalidWindowError, QueryNotRegisteredError
from repro.sanitize.sanitizer import InvariantSanitizer, SanitizeArg

if TYPE_CHECKING:
    from repro.accel.stab_cache import StabCache

__all__ = [
    "ContinuousQueryHandle",
    "ContinuousQueryManager",
]

#: Death arrival of a row still in ``R_N``.
_ALIVE = 1 << 62
#: A root's parent as the counting sees it: far enough below every
#: stream length that ``kappa_p + n`` never binds.
_ROOT = -(1 << 40)


class ContinuousQueryHandle:
    """A registered continuous n-of-N query.

    Handles at the same ``n`` share the manager's change counter for
    that window; ``changes`` counts this handle's insertions+deletions
    since its own registration (the counter minus a per-handle base).
    An unregistered handle keeps its last result and count.
    """

    __slots__ = ("query_id", "n", "_manager", "_changes_base", "_frozen")

    def __init__(
        self,
        query_id: int,
        n: int,
        manager: "ContinuousQueryManager",
        changes_base: int,
    ) -> None:
        self.query_id = query_id
        self.n = n
        self._manager: Optional[ContinuousQueryManager] = manager
        #: Live: the window's counter at registration.  Detached: the
        #: final count.
        self._changes_base = changes_base
        self._frozen: List[StreamElement] = []

    @property
    def changes(self) -> int:
        """Number of element insertions+deletions applied since
        registration (the paper's cumulative ``delta``)."""
        manager = self._manager
        if manager is None:
            return self._changes_base
        return manager._window_changes(self.n) - self._changes_base

    def _members(self) -> List[StreamElement]:
        manager = self._manager
        if manager is None:
            return self._frozen
        return manager._result(self.n)

    def result(self) -> List[StreamElement]:
        """The current skyline of the most recent ``n`` elements,
        sorted by arrival position."""
        return list(self._members())

    def result_kappas(self) -> List[int]:
        """Arrival labels of the current result, ascending."""
        return [element.kappa for element in self._members()]

    def __contains__(self, kappa: int) -> bool:
        return kappa in self.result_kappas()

    def __len__(self) -> int:
        return len(self._members())


class ContinuousQueryManager:
    """Runs any number of continuous n-of-N queries over one engine.

    The manager wraps an :class:`NofNSkyline`; feed the stream through
    :meth:`append` / :meth:`append_many` (or call :meth:`process` /
    :meth:`process_batch` yourself with the outcomes of
    ``engine.append`` / ``engine.append_many`` if you drive the engine
    directly — every outcome since the manager's construction must reach
    it, in order).

    Parameters
    ----------
    engine:
        The n-of-N engine to wrap.  Its current ``R_N`` and critical
        parents seed the manager's rows.
    sanitize:
        Runtime invariant checking of the manager's own state (its rows,
        window axis and results): ``"off"`` (default), ``"sampled"``,
        ``"full"``, or a shared
        :class:`~repro.sanitize.InvariantSanitizer`.  Independent of
        the engine's own ``sanitize`` setting.
    """

    def __init__(self, engine: NofNSkyline, sanitize: SanitizeArg = "off") -> None:
        self.engine = engine
        self._sanitizer = InvariantSanitizer.coerce(sanitize)
        self._queries: Dict[int, ContinuousQueryHandle] = {}
        self._next_id = 1
        # The distinct registered windows, ascending, with the number of
        # handles on each and each window's cumulative change counter.
        self._axis = _np.zeros(0, dtype=_np.int64)
        self._refs = _np.zeros(0, dtype=_np.int64)
        self._counts = _np.zeros(0, dtype=_np.int64)
        self._seed()

    def _seed(self) -> None:
        """Take the rows from the engine: its ``R_N`` with the current
        critical parents, at its current stream length."""
        engine = self.engine
        #: The stream length the rows describe.
        self._m = engine.seen_so_far
        elements = engine.non_redundant()  # oldest first: kappa order
        parents = {child: parent for parent, child in engine.dominance_graph_edges()}
        self._elements: List[StreamElement] = elements
        self._kappa = _np.array([e.kappa for e in elements], dtype=_np.int64)
        self._parent = _np.array(
            [parents.get(e.kappa, 0) for e in elements], dtype=_np.int64
        )
        #: ``n -> result`` at ``_m``; cleared by every batch.
        self._memo: Dict[int, List[StreamElement]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, n: int) -> ContinuousQueryHandle:
        """Register a continuous n-of-N query.

        Its result is answered from the manager's rows; registering
        counts no change.  Handles at an already-registered ``n`` share
        that window's counter.  While no handle is registered nothing
        reads the rows, so a registration then re-reads them from the
        engine, which the caller may have fed directly.
        """
        if not 1 <= n <= self.engine.capacity:
            raise InvalidWindowError(
                f"n must be in [1, {self.engine.capacity}], got {n}"
            )
        if not len(self._axis):
            self._seed()
        axis = self._axis
        slot = int(axis.searchsorted(n))
        if slot < len(axis) and axis[slot] == n:
            self._refs[slot] += 1
        else:
            self._axis = _np.concatenate((axis[:slot], (n,), axis[slot:]))
            refs, counts = self._refs, self._counts
            self._refs = _np.concatenate((refs[:slot], (1,), refs[slot:]))
            self._counts = _np.concatenate((counts[:slot], (0,), counts[slot:]))
        handle = ContinuousQueryHandle(
            self._next_id, n, self, changes_base=int(self._counts[slot])
        )
        self._next_id += 1
        self._queries[handle.query_id] = handle
        return handle

    def unregister(self, handle: ContinuousQueryHandle) -> None:
        """Stop maintaining ``handle``.

        The handle's result and ``changes`` freeze at their current
        values, while other handles at the same ``n`` keep tracking.
        """
        if self._queries.get(handle.query_id) is not handle:
            raise QueryNotRegisteredError(
                f"query {handle.query_id} is not registered here"
            )
        del self._queries[handle.query_id]
        handle._frozen = self._result(handle.n)
        handle._changes_base = handle.changes
        handle._manager = None
        slot = int(self._axis.searchsorted(handle.n))
        self._refs[slot] -= 1
        if self._refs[slot] == 0:
            self._axis = _np.delete(self._axis, slot)
            self._refs = _np.delete(self._refs, slot)
            self._counts = _np.delete(self._counts, slot)

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

        Results and ``changes`` end up exactly where element-by-element
        :meth:`append` calls would have left them.
        """
        batch = self.engine.append_many(points, payloads)
        self.process_batch(batch)
        return batch

    def process(self, outcome: ArrivalOutcome) -> None:
        """Apply one arrival to every query: :meth:`process_batch` over
        a batch of one."""
        self.process_batch(BatchOutcome((outcome,)))

    def process_batch(self, batch: BatchOutcome) -> None:
        """Apply a batch of arrivals to every query.

        Appends the newcomers as rows, marks the arrival that dominated
        each ejected row, counts every window's changes over the batch
        in one pass, and drops the rows that left ``R_N``.
        """
        outcomes = batch.outcomes
        if not outcomes:
            return
        m0 = self._m
        m1 = outcomes[-1].seen_so_far
        born: List[StreamElement] = []
        born_parent: List[int] = []
        dead: List[int] = []
        dead_at: List[int] = []
        for outcome in outcomes:
            born.append(outcome.element)
            born_parent.append(outcome.parent_kappa)
            for victim in outcome.dominated_removed:
                dead.append(victim.kappa)
                dead_at.append(outcome.seen_so_far)
        elements = self._elements + born
        kappa = _np.concatenate(
            (self._kappa, _np.array([e.kappa for e in born], dtype=_np.int64))
        )
        parent = _np.concatenate(
            (self._parent, _np.array(born_parent, dtype=_np.int64))
        )
        death = _np.full(len(kappa), _ALIVE, dtype=_np.int64)
        if dead:
            death[_np.searchsorted(kappa, dead)] = dead_at
        if len(self._axis):
            self._count(m0, m1, kappa, parent, death)
        keep = ((death > m1) & (kappa > m1 - self.engine.capacity)).nonzero()[0]
        self._elements = [elements[i] for i in keep.tolist()]
        self._kappa = kappa[keep]
        self._parent = parent[keep]
        self._m = m1
        self._memo = {}
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)

    def _count(
        self, m0: int, m1: int, kappa: Any, parent: Any, death: Any
    ) -> None:
        """Add every window's changes over the batch ``(m0, m1]``.

        Each row contributes one run ``lo < n <= hi`` of windows that
        see it inserted and one run that see it deleted; the runs become
        +1/-1 marks on the sorted axis, and a prefix sum turns the marks
        into per-window counts.
        """
        p = _np.where(parent == 0, _ROOT, parent)
        # The last stream length inside the batch at which e is in R_N.
        last = _np.minimum(death - 1, m1)
        # Insertion at start_n: a newcomer's start is in the batch for
        # every n with kappa_p + n <= last; an older row's start is
        # only when kappa_p + n passes m0.  n <= last - kappa_p is also
        # what keeps start_n <= end_n.
        ins_lo = _np.where(kappa > m0, 0, m0 - p)
        ins_hi = last - p
        # Deletion at end_n + 1 = min(kappa + n, D): window expiry for
        # m0 - kappa < n < D - kappa, then the death itself for every
        # n up to D - kappa_p - 1 (where start_n <= end_n still holds).
        del_lo = m0 - kappa
        del_hi = _np.where(death <= m1, death - 1 - p, m1 - kappa)
        axis = self._axis
        left = axis.searchsorted(_np.concatenate((ins_lo, del_lo)), "right")
        right = axis.searchsorted(_np.concatenate((ins_hi, del_hi)), "right")
        right = _np.maximum(left, right)
        size = len(axis) + 1
        marks = _np.bincount(left, minlength=size) - _np.bincount(
            right, minlength=size
        )
        self._counts += marks[:-1].cumsum()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _window_changes(self, n: int) -> int:
        """The cumulative change counter of registered window ``n``."""
        return int(self._counts[self._axis.searchsorted(n)])

    def _result(self, n: int) -> List[StreamElement]:
        """``S_n`` at the manager's stream length, in kappa order (the
        memoised list itself: callers copy it).

        A row is a member iff it is among the last ``n`` arrivals and
        its birth parent is not (roots have parent 0).
        """
        result = self._memo.get(n)
        if result is None:
            start = max(1, self._m - n + 1)
            rows = ((self._kappa >= start) & (self._parent < start)).nonzero()[0]
            elements = self._elements
            result = [elements[i] for i in rows.tolist()]
            self._memo[n] = result
        return result

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

    def check_invariants(self) -> None:
        """Verify the manager's rows, window axis and results.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_continuous

        verify_continuous(self)
