"""A dynamic interval tree answering *stabbing queries*.

Section 2.3 of the paper treats stabbing-query processing as a black
box: given ``m`` intervals and a stabbing point ``p``, report every
interval containing ``p``, with ``O(log m)`` amortised updates.  The
encoding scheme of section 3.2 stores the half-open interval
``(kappa(e'), kappa(e)]`` for every critical-dominance edge and stabs
with ``M - n + 1`` to answer an n-of-N query.

This module implements the black box as a CLRS-style *augmented*
red-black tree (built on :mod:`repro.structures.rbtree`): intervals are
keyed by ``(low, high, seq)`` (the sequence number admits duplicate
endpoints), and every node carries the maximum ``high`` within its
subtree.  A stab at ``t`` descends only into subtrees whose max-high
reaches ``t`` and prunes right subtrees whose lows already equal or
exceed ``t``, giving output-sensitive ``O(min(m, k log m) + log m)``
reporting — the same update complexity as the Edelsbrunner/Mehlhorn
structure the paper cites, and indistinguishable at reproduction scale
(see DESIGN.md §4).

Intervals are half-open ``(low, high]`` — exactly the shape produced by
the paper's encoding: ``low < t <= high`` means "stabbed".

Beside the tree, every write goes through to a **flat slot mirror**:
NumPy ``low``/``high`` arrays (grown by doubling) and a payload list,
one slot per live interval, recycled through a free list.  Each handle
records its slot, so :meth:`~IntervalTree.insert`,
:meth:`~IntervalTree.remove` and :meth:`~IntervalTree.replace` keep the
mirror current in ``O(1)``.  A dead slot holds the sentinel
``(+inf, -inf]``, which no point can stab.  The read-path cache
(:class:`repro.accel.stab_cache.StabCache`) and the shard replicas
answer from the mirror with vectorised passes, so no read ever walks
the tree into a copy; the tree itself stays the paper's structure, the
uncached read path and the oracle the mirror is checked against.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, List, Optional, Set, Tuple, TypeVar

import numpy as np

from repro.exceptions import InvalidIntervalError, corruption
from repro.structures.rbtree import NIL, RBNode, RedBlackTree

D = TypeVar("D")

#: Aggregate value used for empty subtrees; compares below every high.
_NEG_INF = float("-inf")
#: Low endpoint of a dead slot (its high is ``_NEG_INF``).
_INF = float("inf")
#: Mirror slots allocated up front; the arrays double when full.
_INITIAL_SLOTS = 16


class Interval(Generic[D]):
    """A half-open interval ``(low, high]`` carrying an opaque payload.

    ``high`` may be ``math.inf`` (used by the (n1,n2)-of-N structures
    for live elements whose backward critical ancestor does not exist).
    """

    __slots__ = ("low", "high", "data")

    def __init__(self, low: float, high: float, data: D) -> None:
        if not low < high:
            raise InvalidIntervalError(
                f"half-open interval needs low < high, got ({low}, {high}]"
            )
        self.low = low
        self.high = high
        self.data = data

    def contains(self, t: float) -> bool:
        """Whether ``t`` stabs this interval: ``low < t <= high``."""
        return self.low < t <= self.high

    def __repr__(self) -> str:
        return f"Interval(({self.low}, {self.high}], data={self.data!r})"


class IntervalHandle(Generic[D]):
    """An opaque handle returned by :meth:`IntervalTree.insert`.

    Handles stay valid until the interval is removed, letting the n-of-N
    engine maintain the constant-time links between interval endpoints
    and the label set (paper, Figure 6).  A handle also names the
    interval's slot in the tree's flat mirror.
    """

    __slots__ = ("interval", "_node", "_slot")

    def __init__(self, interval: Interval[D], node: RBNode, slot: int) -> None:
        self.interval = interval
        self._node = node
        self._slot = slot


def _augment_max_high(node: RBNode) -> None:
    """Recompute a node's subtree max-high from its children."""
    best = node.value.high
    left = node.left
    if left is not NIL and left.aggregate > best:
        best = left.aggregate
    right = node.right
    if right is not NIL and right.aggregate > best:
        best = right.aggregate
    node.aggregate = best


class IntervalTree(Generic[D]):
    """Dynamic set of half-open intervals supporting stabbing queries."""

    def __init__(self) -> None:
        self._tree: RedBlackTree = RedBlackTree(augment=_augment_max_high)
        self._seq = 0
        self._version = 0
        # The flat mirror: slots [0, len(self._payloads)) are in use or
        # on the free list; dead and never-used slots hold the sentinel.
        self._lows = np.full(_INITIAL_SLOTS, _INF)
        self._highs = np.full(_INITIAL_SLOTS, _NEG_INF)
        self._payloads: List[Any] = []
        self._handles: List[Optional[IntervalHandle[D]]] = []
        self._free: List[int] = []

    @property
    def version(self) -> int:
        """Monotonically increasing structure version.

        Bumped by every :meth:`insert` and :meth:`remove` (and twice by
        :meth:`replace`).  Two equal versions guarantee an identical
        interval set, so read-path caches — notably
        :class:`repro.accel.stab_cache.StabCache` — can validate a
        memoized answer with a single integer comparison.
        """
        return self._version

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, low: float, high: float, data: D) -> IntervalHandle[D]:
        """Insert ``(low, high]`` with payload ``data``; return a handle."""
        interval = Interval(low, high, data)
        key = (low, high, self._seq)
        self._seq += 1
        self._version += 1
        node = self._tree.insert(key, interval)
        if self._free:
            slot = self._free.pop()
            self._payloads[slot] = data
        else:
            slot = len(self._payloads)
            if slot == self._lows.shape[0]:
                self._lows = np.concatenate(
                    (self._lows, np.full(slot, _INF))
                )
                self._highs = np.concatenate(
                    (self._highs, np.full(slot, _NEG_INF))
                )
            self._payloads.append(data)
            self._handles.append(None)
        self._lows[slot] = low
        self._highs[slot] = high
        handle = IntervalHandle(interval, node, slot)
        self._handles[slot] = handle
        return handle

    def remove(self, handle: IntervalHandle[D]) -> None:
        """Remove the interval behind ``handle``.

        The handle must be live (obtained from :meth:`insert` and not
        yet removed); double removal is a programming error.
        """
        self._tree.delete_node(handle._node)
        self._version += 1
        handle._node = NIL
        slot = handle._slot
        self._lows[slot] = _INF
        self._highs[slot] = _NEG_INF
        self._payloads[slot] = None
        self._handles[slot] = None
        self._free.append(slot)

    def replace(
        self, handle: IntervalHandle[D], low: float, high: float
    ) -> IntervalHandle[D]:
        """Atomically swap an interval's endpoints, keeping its payload.

        Used by Algorithm 1 line 6: on expiry of a root's parent, the
        child's interval ``(kappa(parent), kappa(e)]`` becomes
        ``(0, kappa(e)]``.  The freed mirror slot is the one the new
        interval takes.
        """
        data = handle.interval.data
        self.remove(handle)
        return self.insert(low, high, data)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab(self, t: float) -> List[D]:
        """Payloads of every interval with ``low < t <= high``.

        Output order follows the tree's depth-first traversal: it is
        deterministic for a given update history but not sorted; callers
        that need sorted results (the engines sort by ``kappa``) order
        the output themselves.
        """
        # Iterative DFS: recursion depth could hit Python's limit for
        # large windows even on a balanced tree's worst paths.  This
        # loop and the one in :meth:`stab_intervals` differ only in what
        # they append; keeping two copies removes a per-node flag branch
        # from the hot path.
        out: List[D] = []
        stack = [self._tree.root]
        while stack:
            current = stack.pop()
            if current is NIL or current.aggregate < t:
                continue
            interval: Interval[D] = current.value
            if interval.low < t:
                if t <= interval.high:
                    out.append(interval.data)
                # Right keys have low >= this low; they may still be < t.
                stack.append(current.right)
            # Left subtree always has lows <= this low; worth visiting
            # whenever its max-high reaches t (checked on pop).
            stack.append(current.left)
        return out

    def stab_intervals(self, t: float) -> List[Interval[D]]:
        """Like :meth:`stab` but returning the :class:`Interval` objects."""
        out: List[Interval[D]] = []
        stack = [self._tree.root]
        while stack:
            current = stack.pop()
            if current is NIL or current.aggregate < t:
                continue
            interval: Interval[D] = current.value
            if interval.low < t:
                if t <= interval.high:
                    out.append(interval)
                stack.append(current.right)
            stack.append(current.left)
        return out

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def intervals(self) -> Iterator[Interval[D]]:
        """Iterate intervals in ``(low, high, insertion)`` order."""
        for _, interval in self._tree.items():
            yield interval

    # ------------------------------------------------------------------
    # The flat mirror
    # ------------------------------------------------------------------

    def slots(self) -> Tuple[Any, Any, List[Any]]:
        """The mirror as ``(lows, highs, payloads)``, one entry per slot.

        ``lows``/``highs`` are ``float64`` views of arrays the next
        growth replaces, and ``payloads`` is the live list: read them
        now, do not keep them across writes.  Dead slots hold
        ``(+inf, -inf]`` and a ``None`` payload, so a vectorised
        ``(lows < t) & (t <= highs)`` pass needs no liveness filter.
        """
        top = len(self._payloads)
        return self._lows[:top], self._highs[:top], self._payloads

    def sorted_by_low(self) -> Tuple[Any, Any, List[D]]:
        """Fresh ``(lows, highs, payloads)`` of the live intervals, sorted
        by ``(low, high)`` — the export the shard replicas publish."""
        lows, highs, payloads = self.slots()
        # Dead slots carry low = +inf, which no live low reaches (a
        # live low is below its high), so they sort past the live ones.
        order = np.lexsort((highs, lows))[: len(self._tree)]
        return lows[order], highs[order], [payloads[i] for i in order.tolist()]

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify red-black properties, max-high aggregates and the flat
        mirror against the tree.

        Raises
        ------
        StructureCorruptionError
            On the first violated property (survives ``python -O``).
        """
        self._tree.check_invariants()
        self._check_aggregate(self._tree.root)
        self._check_mirror()

    def _check_mirror(self) -> None:
        """Every live handle's slot mirrors its interval; every other
        slot is dead; the live slots are exactly the tree's intervals."""
        lows, highs, payloads = self.slots()
        if not (
            len(payloads) == len(self._handles)
            <= self._lows.shape[0] == self._highs.shape[0]
        ):
            raise corruption(
                "interval_tree",
                "slot-mirror",
                f"{len(payloads)} payloads and {len(self._handles)} "
                f"handles over {self._lows.shape[0]}/"
                f"{self._highs.shape[0]} allocated slots",
            )
        free = set(self._free)
        live: Set[int] = set()
        for slot, handle in enumerate(self._handles):
            if handle is None:
                if (
                    slot not in free
                    or lows[slot] != _INF
                    or highs[slot] != _NEG_INF
                    or payloads[slot] is not None
                ):
                    raise corruption(
                        "interval_tree",
                        "slot-mirror",
                        f"free slot {slot} holds ({lows[slot]}, "
                        f"{highs[slot]}] / {payloads[slot]!r} or is "
                        f"missing from the free list",
                    )
                continue
            interval = handle.interval
            if (
                handle._slot != slot
                or handle._node is NIL
                or handle._node.value is not interval
                or lows[slot] != interval.low
                or highs[slot] != interval.high
                or payloads[slot] is not interval.data
            ):
                raise corruption(
                    "interval_tree",
                    "slot-mirror",
                    f"slot {slot} holds ({lows[slot]}, {highs[slot]}] / "
                    f"{payloads[slot]!r}, its handle says slot "
                    f"{handle._slot} with {interval!r}",
                )
            live.add(id(interval))
        tree_intervals = {id(interval) for interval in self.intervals()}
        if (
            len(free) != len(self._free)
            or len(live) + len(free) != len(self._handles)
            or live != tree_intervals
        ):
            raise corruption(
                "interval_tree",
                "slot-mirror",
                f"{len(live)} live slots and {len(self._free)} free "
                f"entries over {len(self._handles)} slots do not match "
                f"the tree's {len(self._tree)} intervals",
            )

    def _check_aggregate(self, node: RBNode) -> float:
        if node is NIL:
            return _NEG_INF
        expected = max(
            node.value.high,
            self._check_aggregate(node.left),
            self._check_aggregate(node.right),
        )
        if node.aggregate != expected:
            raise corruption(
                "interval_tree",
                "max-high-augmentation",
                f"aggregate mismatch at {node.key!r}: "
                f"{node.aggregate} != {expected}",
            )
        return expected
