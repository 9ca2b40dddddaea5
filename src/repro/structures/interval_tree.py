"""A dynamic set of intervals answering *stabbing queries*.

Section 2.3 of the paper treats stabbing-query processing as a black
box: given ``m`` intervals and a stabbing point ``p``, report every
interval containing ``p``, with ``O(log m)`` amortised updates.  The
encoding scheme of section 3.2 stores the half-open interval
``(kappa(e'), kappa(e)]`` for every critical-dominance edge and stabs
with ``M - n + 1`` to answer an n-of-N query.

This module implements the black box as **flat slot arrays**: NumPy
``low``/``high`` arrays (grown by doubling) and a payload list, one
slot per live interval, recycled through a free list.  Each handle
records its slot, so :meth:`~IntervalTree.insert`,
:meth:`~IntervalTree.remove` and :meth:`~IntervalTree.replace` cost
``O(1)`` (amortised over the doublings).  A dead slot holds the
sentinel ``(+inf, -inf]``, which no point can stab, so a stab is one
vectorised ``(low < t) & (t <= high)`` pass over the slots with no
liveness filter: ``O(m)`` comparisons in NumPy where a balanced
interval tree would walk ``O(log m + k)`` nodes in the interpreter
(DESIGN.md §4 gives the trade).  The engines read through
:class:`repro.accel.stab_cache.StabCache`, which memoizes those passes
per elementary span.

Intervals are half-open ``(low, high]`` — exactly the shape produced by
the paper's encoding: ``low < t <= high`` means "stabbed".
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from repro.exceptions import InvalidIntervalError, KeyNotFoundError, corruption

D = TypeVar("D")

#: Low endpoint of a dead slot.
_INF = float("inf")
#: High endpoint of a dead slot.
_NEG_INF = float("-inf")
#: Slots allocated up front; the arrays double when full.
_INITIAL_SLOTS = 16


class Interval(Generic[D]):
    """A half-open interval ``(low, high]`` carrying an opaque payload.

    ``high`` may be ``math.inf``: every point above ``low`` stabs such
    an interval.
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
    engine keep constant-time links between its records and their
    interval endpoints (paper, Figure 6).  A handle names the interval's
    slot and the tree version its insert produced, which orders
    insertions.
    """

    __slots__ = ("interval", "_slot", "_seq")

    def __init__(self, interval: Interval[D], slot: int, seq: int) -> None:
        self.interval = interval
        self._slot = slot
        self._seq = seq


class IntervalTree(Generic[D]):
    """Dynamic set of half-open intervals supporting stabbing queries."""

    def __init__(self) -> None:
        self._version = 0
        # Slots [0, len(self._payloads)) are in use or on the free list;
        # dead and never-used slots hold the sentinel.
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
        self._version += 1
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
        handle = IntervalHandle(interval, slot, self._version)
        self._handles[slot] = handle
        return handle

    def remove(self, handle: IntervalHandle[D]) -> None:
        """Remove the interval behind ``handle``.

        Raises
        ------
        KeyNotFoundError
            If ``handle`` is not live in this tree (already removed, or
            from another tree); nothing changes.
        """
        slot = handle._slot
        if slot >= len(self._handles) or self._handles[slot] is not handle:
            raise KeyNotFoundError(
                f"interval handle for {handle.interval!r} is not live in "
                f"this tree"
            )
        self._version += 1
        self._lows[slot] = _INF
        self._highs[slot] = _NEG_INF
        self._payloads[slot] = None
        self._handles[slot] = None
        self._free.append(slot)

    def replace(
        self, handle: IntervalHandle[D], low: float, high: float
    ) -> IntervalHandle[D]:
        """Atomically swap an interval's endpoints, keeping its payload.

        Used by the k-skyband engine to re-encode an element whose
        younger-dominator count grew (its threshold dominator moves).
        The n-of-N engines never call it: they keep birth parents
        instead of re-rooting (Algorithm 1, lines 5-7).  The freed slot
        is the one the new interval takes.  Raises like :meth:`remove`
        on a handle that is not live.
        """
        data = handle.interval.data
        self.remove(handle)
        return self.insert(low, high, data)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _stabbed_slots(self, t: float) -> List[int]:
        lows, highs, _ = self.slots()
        hit: List[int] = np.flatnonzero((lows < t) & (highs >= t)).tolist()
        return hit

    def stab(self, t: float) -> List[D]:
        """Payloads of every interval with ``low < t <= high``.

        Output follows slot order: deterministic for a given update
        history but not sorted; callers that need sorted results (the
        engines sort by ``kappa``) order the output themselves.
        """
        return [self._payloads[i] for i in self._stabbed_slots(t)]

    def stab_intervals(self, t: float) -> List[Interval[D]]:
        """Like :meth:`stab` but returning the :class:`Interval` objects."""
        # Dead slots are never stabbed; the filter only narrows the type.
        hits = (self._handles[i] for i in self._stabbed_slots(t))
        return [handle.interval for handle in hits if handle is not None]

    def __len__(self) -> int:
        return len(self._handles) - len(self._free)

    def intervals(self) -> Iterator[Interval[D]]:
        """Iterate intervals in ``(low, high, insertion)`` order."""
        live = [handle for handle in self._handles if handle is not None]
        live.sort(key=lambda h: (h.interval.low, h.interval.high, h._seq))
        for handle in live:
            yield handle.interval

    # ------------------------------------------------------------------
    # The slot arrays
    # ------------------------------------------------------------------

    def slots(self) -> Tuple[Any, Any, List[Any]]:
        """The slots as ``(lows, highs, payloads)``, one entry per slot.

        ``lows``/``highs`` are ``float64`` views of arrays the next
        growth replaces, and ``payloads`` is the live list: read them
        now, do not keep them across writes.  Dead slots hold
        ``(+inf, -inf]`` and a ``None`` payload, so a vectorised
        ``(lows < t) & (t <= highs)`` pass needs no liveness filter.
        """
        top = len(self._payloads)
        return self._lows[:top], self._highs[:top], self._payloads

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the slot arrays against the handles: every live
        handle's slot holds its interval, every other slot is dead and
        on the free list exactly once, and the live count adds up.

        Raises
        ------
        StructureCorruptionError
            On the first violated property (survives ``python -O``).
        """
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
        live = 0
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
            live += 1
        if len(free) != len(self._free) or live + len(free) != len(
            self._handles
        ):
            raise corruption(
                "interval_tree",
                "slot-mirror",
                f"{live} live slots and {len(self._free)} free entries "
                f"over {len(self._handles)} slots",
            )
