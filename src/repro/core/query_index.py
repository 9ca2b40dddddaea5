"""A stabbing index over the *registered continuous queries* themselves.

The paper's central move encodes each retained element as an interval so
that an n-of-N query becomes a stab at ``M - n + 1``.  This module turns
the same trick inward, onto the query set: a registered query with
window ``n`` is exactly a stab point on the ``n`` axis, and every result
change produced by one arrival affects a *contiguous* run of windows —

* a newcomer with critical parent ``p`` joins every query with
  ``n <= M - p`` (all of them when it is a root);
* an element ``e`` (parent ``p_e``) ejected by a dominating newcomer
  leaves every query with ``M - kappa_e <= n <= M - p_e - 1``
  (unbounded above for roots);
* ``e`` expires from query ``n`` at exactly ``M = kappa_e + n``.

So instead of looping over every registered handle per arrival
(``O(Q)`` dispatch), the manager keeps the distinct window sizes in a
sorted axis and routes each change record to its group range by binary
search: ``O(log Q + affected)``.  Handles that share an ``n`` dedupe
into one :class:`QueryGroup` — their trigger heaps were always
identical, so they now share one heap, one member set and one memoised
sorted view.

Window expiries are driven by a second heap *over the groups*: each
group's next trigger time is ``top_kappa + n``, so the manager pops only
the groups whose trigger actually fires this arrival instead of peeking
``Q`` heap tops.  Entries are allowed to run *early* (a removal can push
a group's real trigger time later without rescheduling); firing early is
a no-op that reschedules exactly.  They must never run *late* — the
sanitizer's ``continuous-index`` invariant checks that direction.

The sorted axis is mirrored into a NumPy array (``_axis_kernel``,
rebuilt lazily after registration changes) so that
:meth:`ContinuousQueryManager.process_batch` can route a whole batch's
change records with one vectorised ``searchsorted`` pass.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as _np

from repro.core.element import StreamElement
from repro.exceptions import KeyNotFoundError
from repro.structures.heap import MinIndexedHeap

__all__ = [
    "INDEX_MODES",
    "QueryGroup",
    "QueryIndex",
    "mixed_query_plan",
    "resolve_index_mode",
]

#: Values of the manager's ``query_index`` knob.  ``auto`` resolves to
#: ``on`` — the scalar routing path is pure Python (``bisect``) and
#: needs no optional dependency; ``off`` keeps the seed per-handle loop
#: (the measured baseline and an escape hatch).
INDEX_MODES = ("auto", "on", "off")


def mixed_query_plan(count: int, capacity: int) -> List[int]:
    """A deterministic mixed distinct/duplicate window-size plan.

    Used by the CLI, benchmarks and smoke scripts so they all register
    the same query population for a given ``(count, capacity)``: a pool
    of ``ceil(count / 2)`` window sizes spread over ``[1, capacity]``
    by a multiplicative hash, cycled — so roughly half the
    registrations share a window with another handle and exercise the
    dedupe/refcount path.
    """
    if count <= 0:
        return []
    pool = max(1, (count + 1) // 2)
    return [((i % pool) * 7919) % capacity + 1 for i in range(count)]


def resolve_index_mode(mode: str) -> str:
    """Validate the ``query_index`` knob and resolve ``auto``."""
    if mode not in INDEX_MODES:
        raise ValueError(
            f"query_index must be one of {INDEX_MODES}, got {mode!r}"
        )
    return "on" if mode == "auto" else mode


class QueryGroup:
    """Shared state of every registered handle with the same ``n``.

    Owns the result members, the trigger min-heap on kappa
    (Algorithm 2's trigger list) and the cumulative ``changes`` counter.
    The sorted result view is memoised and invalidated through the
    ``changes`` counter, so repeated ``result()`` calls between
    maintenance events cost one shallow copy instead of a re-sort.
    """

    __slots__ = (
        "n", "refs", "changes", "_members", "_heap",
        "_sorted_kappas", "_sorted_elements", "_sorted_changes",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        #: Number of registered handles viewing this group.
        self.refs = 0
        #: Insertions + deletions applied since the group was built
        #: (the paper's cumulative ``delta``).
        self.changes = 0
        self._members: Dict[int, StreamElement] = {}
        self._heap: MinIndexedHeap[int] = MinIndexedHeap()
        # Memoised sorted views, built lazily (``None`` = not built);
        # invalidated through the ``changes`` counter.
        self._sorted_kappas: Optional[List[int]] = None
        self._sorted_elements: Optional[List[StreamElement]] = None
        self._sorted_changes = -1

    # -- mutations ------------------------------------------------------

    def add(self, element: StreamElement) -> None:
        self.changes += 1
        self._members[element.kappa] = element
        self._heap.push(element.kappa, element.kappa)

    def remove(self, kappa: int) -> None:
        self.changes += 1
        del self._members[kappa]
        self._heap.delete(kappa)

    # -- memoised sorted views ------------------------------------------

    def _refresh(self) -> "tuple[List[int], List[StreamElement]]":
        kappas = self._sorted_kappas
        elements = self._sorted_elements
        if (kappas is None or elements is None
                or self._sorted_changes != self.changes):
            kappas = sorted(self._members)
            elements = [self._members[k] for k in kappas]
            self._sorted_kappas = kappas
            self._sorted_elements = elements
            self._sorted_changes = self.changes
        return kappas, elements

    def result(self) -> List[StreamElement]:
        """The current result, sorted by arrival position (a copy)."""
        _, elements = self._refresh()
        return list(elements)

    def result_kappas(self) -> List[int]:
        """Arrival labels of the current result, ascending (a copy)."""
        kappas, _ = self._refresh()
        return list(kappas)

    def __contains__(self, kappa: int) -> bool:
        return kappa in self._members

    def __len__(self) -> int:
        return len(self._members)


class QueryIndex:
    """Sorted-axis registry of :class:`QueryGroup`, routed by stabbing.

    ``_axis`` holds the distinct registered window sizes ascending;
    ``_order`` holds the groups in the same order, so a routed range is
    a plain list slice.  ``_version`` counts registration changes —
    the lazily rebuilt ``_axis_kernel`` NumPy mirror is dropped on every
    bump so batch routing never searches a stale axis.
    """

    def __init__(self) -> None:
        self._groups: Dict[int, QueryGroup] = {}
        self._order: List[QueryGroup] = []
        self._axis: List[int] = []
        #: Lazily rebuilt NumPy mirror of ``_axis`` for vectorised
        #: batch routing (``None`` = stale).
        self._axis_kernel: Optional[Any] = None
        #: group n -> earliest stream length at which its trigger can
        #: fire (``top_kappa + n``); entries may run early, never late.
        self._expiry: MinIndexedHeap[int] = MinIndexedHeap()
        self._version = 0
        # Routing telemetry for ``query_index_stats()``.
        self._routed_events = 0
        self._touched_groups = 0
        self._batch_passes = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def acquire(self, n: int) -> "tuple[QueryGroup, bool]":
        """Get (or build) the group for ``n``; returns ``(group, created)``."""
        group = self._groups.get(n)
        if group is not None:
            group.refs += 1
            return group, False
        self._version += 1
        group = QueryGroup(n)
        group.refs = 1
        self._groups[n] = group
        slot = bisect.bisect_left(self._axis, n)
        self._axis.insert(slot, n)
        self._order.insert(slot, group)
        self._axis_kernel = None
        return group, True

    def release(self, n: int) -> QueryGroup:
        """Drop one reference to group ``n``; returns the group."""
        group = self._groups.get(n)
        if group is None:
            raise KeyNotFoundError(f"no query group for n={n}")
        group.refs -= 1
        if group.refs > 0:
            return group
        self._version += 1
        del self._groups[n]
        slot = bisect.bisect_left(self._axis, n)
        del self._axis[slot]
        del self._order[slot]
        self._axis_kernel = None
        self._expiry.discard(n)
        return group

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def range_between(
        self, lo: int, hi: Optional[int]
    ) -> Sequence[QueryGroup]:
        """Groups with ``lo <= n <= hi`` (``hi=None`` = unbounded)."""
        left = bisect.bisect_left(self._axis, lo)
        right = (
            len(self._axis) if hi is None
            else bisect.bisect_right(self._axis, hi)
        )
        return self._order[left:right]

    def prefix_upto(self, hi: Optional[int]) -> Sequence[QueryGroup]:
        """Groups with ``n <= hi`` (``hi=None`` = all groups)."""
        if hi is None:
            return self._order
        return self._order[: bisect.bisect_right(self._axis, hi)]

    def axis_kernel(self) -> Any:
        """The NumPy mirror of the sorted axis, rebuilt if stale."""
        kernel = self._axis_kernel
        if kernel is None:
            kernel = _np.asarray(self._axis, dtype=_np.int64)
            self._axis_kernel = kernel
        return kernel

    # ------------------------------------------------------------------
    # Expiry scheduling
    # ------------------------------------------------------------------

    def schedule(self, group: QueryGroup) -> None:
        """(Re)compute ``group``'s next-trigger entry from its heap top.

        Dropping the entry when the heap is empty and firing stale-early
        entries are both safe; this is the only place entries move
        *later*, so it must run after every cascade.
        """
        self._version += 1
        n = group.n
        heap = group._heap
        if not heap:
            self._expiry.discard(n)
            return
        top_kappa, _ = heap.peek()
        due = top_kappa + n
        if n in self._expiry:
            self._expiry.update_priority(n, due)
        else:
            self._expiry.push(n, due)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def group(self, n: int) -> Optional[QueryGroup]:
        return self._groups.get(n)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[QueryGroup]:
        return iter(list(self._order))

    def __contains__(self, n: int) -> bool:
        return n in self._groups

    def stats(self) -> Dict[str, int]:
        """Registration and routing counters (all monotonic except
        ``groups``/``handles``, which describe the current state)."""
        return {
            "groups": len(self._order),
            "handles": sum(group.refs for group in self._order),
            "version": self._version,
            "routed_events": self._routed_events,
            "touched_groups": self._touched_groups,
            "batch_passes": self._batch_passes,
        }
