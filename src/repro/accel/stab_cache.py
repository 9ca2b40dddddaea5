"""Versioned read-path cache for stabbing queries over the dense index.

The paper reduces every n-of-N query to *one stabbing query* over the
interval encoding of the critical dominance graph (Theorem 3).  The
engines keep that encoding in the rows of their
:class:`~repro.structures.dense_index.DenseIndex`: beside each element's
point, a ``low`` and a ``label`` column hold its interval
``(low, label]``, and a stab is one ``O(m)`` vectorised pass over them.
Query traffic is typically far heavier than the update stream cares to
admit, and the intervals change only when an arrival, an expiry or a
dominance ejection writes the index, so most stabs can be answered
without any pass.

:class:`StabCache` memoizes an *answer function* (the engine's uncached
stab: :meth:`DenseIndex.stab` and whatever the engine builds from its
hits) per elementary span of the index's interval columns:

* **Versioned invalidation** — the index bumps an integer version on
  every write; the cache compares that single integer per query, so
  invalidation is O(1) and *exact*: a cached answer is reused iff the
  intervals are bit-for-bit the ones it was computed from.
* **Straight-through first read** — the first stab after a write calls
  the answer function and nothing else, so a query that follows every
  write (one query per batch) costs what the uncached query costs.
  Its answer is kept, and seeds the memo if the same version is read
  again.
* **Elementary-span memo** — the answer to a stab is constant between
  consecutive interval endpoints: for ``t`` inside a span
  ``(v_i, v_{i+1}]`` of the sorted endpoint values, every ``low < t``
  and ``t <= label`` comparison has the same outcome for all of the
  span (an endpoint can never fall strictly inside it).  The memo
  therefore keys on the span index — one ``bisect`` per query — so
  *distinct but equivalent* stab points share a single entry.  The
  second stab at a version sorts the columns' distinct endpoint values
  in NumPy to rebuild that key; a deleted row's ``+inf`` low and its
  kept label add bounds that split no answer, so nothing needs
  filtering.  Under query workloads that sweep ``n`` (or under
  continuous polling) most queries collapse onto at most
  ``2 |R_N| + 1`` spans and answer from the memo.

A memo entry is the answer function's list, so a hit returns the
engine's final answer without touching a row.  Callers receive a
**fresh list** per call and may mutate it freely; the memo stores
immutable tuples.  The cache never mutates the index, keeps no view of
its columns between calls, and may be dropped or re-attached at any
time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

import numpy as _np

from repro.structures.dense_index import DenseIndex

D = TypeVar("D")

#: Memo entries kept before the table is dropped wholesale.  Bounds
#: memory when the index holds more elementary spans than this; a plain
#: clear beats an LRU here because the flat scan a miss falls back to
#: is already cheap.
DEFAULT_MAX_MEMO = 1024


class StabCache(Generic[D]):
    """Read-optimised view of one :class:`DenseIndex`'s intervals.

    Parameters
    ----------
    index:
        The live index to read.  The cache reads ``index.version`` and
        ``index.intervals()`` only; it never mutates the index.
    answer:
        The uncached stab the cache memoizes: the answer list at a stab
        point, in label order.  Defaults to ``index.stab`` (the hit
        rows' payloads); the engines pass their own uncached stab, so a
        memo hit returns their query's answer.
    max_memo:
        Memo-table capacity (distinct elementary spans); the table is
        cleared when full.

    Attributes
    ----------
    hits / misses:
        Stabs the memo answered, and stabs that called ``answer`` (the
        first stab after each write among them).
    rebuilds:
        How many index versions the cache caught up with: each second
        stab at a version re-sorts the span key and clears the memo.
    """

    __slots__ = (
        "_index",
        "_answer",
        "_seen_version",
        "_read_version",
        "_first",
        "_bounds",
        "_memo",
        "_max_memo",
        "hits",
        "misses",
        "rebuilds",
    )

    def __init__(
        self,
        index: DenseIndex,
        answer: Optional[Callable[[float], List[D]]] = None,
        max_memo: int = DEFAULT_MAX_MEMO,
    ) -> None:
        if max_memo < 1:
            raise ValueError(f"max_memo must be >= 1, got {max_memo}")
        self._index = index
        self._answer: Callable[[float], List[D]] = (
            index.stab if answer is None else answer
        )
        self._seen_version = -1  # index versions start at 0
        #: The version the last straight-through stab read, and that
        #: stab's point and answer.
        self._read_version = -1
        self._first: Optional[Tuple[float, Tuple[D, ...]]] = None
        self._bounds = array("d")
        self._memo: Dict[int, Tuple[D, ...]] = {}
        self._max_memo = max_memo
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab(self, t: float) -> List[D]:
        """The answer function's list at ``t``: from the memo when an
        equivalent stab point was answered at the index's current
        version.  Always returns a fresh list."""
        # The index's counter is read directly: the property call would
        # be a measurable share of a memo hit.
        version = self._index._version
        if version != self._seen_version:
            if version != self._read_version:
                # The first stab after a write: the span key pays for
                # its rebuild only if this version is read again.
                out = self._answer(t)
                self._read_version = version
                self._first = (t, tuple(out))
                self.misses += 1
                return out
            self._catch_up()
        # Stab answers are constant on the elementary spans between
        # consecutive endpoint values; the span index is the memo key.
        # The bounds are floats, and bisecting with a float skips the
        # slower int-to-float comparison at every step.
        span = bisect_left(self._bounds, float(t))
        cached = self._memo.get(span)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        out = self._answer(t)
        if len(self._memo) >= self._max_memo:
            self._memo.clear()
        self._memo[span] = tuple(out)
        return out

    def is_fresh(self) -> bool:
        """Whether the memo matches the index's current version."""
        return self._index.version == self._seen_version

    def invalidate(self) -> None:
        """Drop the span key and memo: the next stab at the current
        version rebuilds them."""
        self._seen_version = -1
        self._read_version = self._index.version
        self._first = None
        self._memo.clear()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters, for telemetry and the benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "memo_size": len(self._memo),
            "snapshot_size": len(self._index),
        }

    # ------------------------------------------------------------------
    # Version catch-up
    # ------------------------------------------------------------------

    def _catch_up(self) -> None:
        """Re-key the memo for the index's current intervals, seeded
        with the straight-through stab's answer."""
        lows, labels, _ = self._index.intervals()
        bounds = _np.unique(_np.concatenate((lows, labels)))
        # ``bisect`` on an ``array('d')`` beats a scalar ``searchsorted``
        # per query, and the array is one memcpy from NumPy where a list
        # would box every value.
        self._bounds = array("d", bounds.tobytes())
        self._memo.clear()
        if self._first is not None:
            t, answer = self._first
            self._memo[bisect_left(self._bounds, float(t))] = answer
            self._first = None
        self._seen_version = self._index.version
        self.rebuilds += 1
