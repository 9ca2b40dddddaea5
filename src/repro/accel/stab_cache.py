"""Versioned read-path cache for interval-tree stabbing queries.

The paper reduces every n-of-N query to *one stabbing query* over the
interval encoding of the critical dominance graph (Theorem 3).  The
engines keep that encoding in an
:class:`~repro.structures.interval_tree.IntervalTree`: flat
``low``/``high`` slot arrays plus a payload list, written in ``O(1)``
per insert and remove, where every stab is one ``O(m)`` vectorised
pass.  Query traffic is typically far heavier than the update stream
cares to admit, and the interval set changes only when an arrival,
an expiry or a dominance ejection touches the tree, so most stabs can
be answered without any pass.

:class:`StabCache` answers from the tree's **slot arrays** and
memoizes per elementary span:

* **Versioned invalidation** — the interval tree bumps an integer
  version on every insert/remove; the cache compares that single
  integer per query, so invalidation is O(1) and *exact*: a cached
  answer is reused iff the interval set is bit-for-bit the one it was
  computed from.
* **Vectorised scan** — a memo miss is one ``(low < t) & (t <= high)``
  pass over the tree's slots plus ``np.flatnonzero``.  Dead slots
  hold ``(+inf, -inf]``, which no point stabs, so nothing is filtered.
* **Elementary-span memo** — the answer to a stab is constant between
  consecutive interval endpoints: for ``t`` inside a span
  ``(v_i, v_{i+1}]`` of the sorted endpoint values, every ``low < t``
  and ``t <= high`` comparison has the same outcome for all of the
  span (an endpoint can never fall strictly inside it).  The memo
  therefore keys on the span index — one ``bisect`` per query — so
  *distinct but equivalent* stab points share a single entry.  The
  first stab after a write sorts the slots' distinct endpoint values
  in NumPy to rebuild that key; dead slots add at most a ``-inf``
  below every stab point (shifting every span index by one) and a
  ``+inf`` above them, so nothing needs filtering.  Under query
  workloads that sweep ``n`` (or under continuous polling) most
  queries collapse onto at most ``2 |R_N| + 1`` spans and answer from
  the memo.

Every answer is ordered by ascending ``high`` once, on the miss (one
``argsort`` over the hits), instead of per query by the caller: in
every engine an interval's ``high`` is its element's own label, so
this is kappa order.  Callers receive a **fresh list**
per call and may mutate it freely; the memo stores immutable tuples.
The cache never mutates the tree, keeps no view of its slots between
calls, and may be dropped or re-attached at any time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Generic, List, Tuple, TypeVar

import numpy as _np

from repro.structures.interval_tree import IntervalTree

D = TypeVar("D")

#: Memo entries kept before the table is dropped wholesale.  Bounds
#: memory when the tree holds more elementary spans than this; a plain
#: clear beats an LRU here because the flat scan a miss falls back to
#: is already cheap.
DEFAULT_MAX_MEMO = 1024


class StabCache(Generic[D]):
    """Read-optimised view of one :class:`IntervalTree`.

    Parameters
    ----------
    tree:
        The live tree to read.  The cache reads ``tree.version`` and
        ``tree.slots()`` only; it never mutates the tree.
    max_memo:
        Memo-table capacity (distinct elementary spans); the table is
        cleared when full.

    Attributes
    ----------
    hits / misses:
        Memo-table hits and misses across the cache's lifetime.
    rebuilds:
        How many tree versions the cache caught up with: each first
        stab after a write re-sorts the span key and clears the memo.
    """

    __slots__ = (
        "_tree",
        "_seen_version",
        "_bounds",
        "_memo",
        "_max_memo",
        "hits",
        "misses",
        "rebuilds",
    )

    def __init__(
        self,
        tree: IntervalTree[D],
        max_memo: int = DEFAULT_MAX_MEMO,
    ) -> None:
        if max_memo < 1:
            raise ValueError(f"max_memo must be >= 1, got {max_memo}")
        self._tree = tree
        self._seen_version = -1  # tree versions start at 0
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
        """Payloads of every interval with ``low < t <= high``.

        Same answer set as :meth:`IntervalTree.stab`, ordered by
        ascending ``high`` (intervals sharing a high come back in no set
        order).  Always returns a fresh list.
        """
        # The tree's counter is read directly: the property call would
        # be a measurable share of a memo hit.
        if self._tree._version != self._seen_version:
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
        lows, highs, payloads = self._tree.slots()
        hit = _np.flatnonzero((lows < t) & (highs >= t))
        # The engines' highs are distinct labels, so the default
        # (unstable, SIMD) sort is exact and ~3x a stable one.
        hit = hit[_np.argsort(highs[hit])]
        out = [payloads[i] for i in hit.tolist()]
        if len(self._memo) >= self._max_memo:
            self._memo.clear()
        self._memo[span] = tuple(out)
        return out

    def is_fresh(self) -> bool:
        """Whether the memo matches the tree's current version."""
        return self._tree.version == self._seen_version

    def invalidate(self) -> None:
        """Drop the span key and memo, forcing a catch-up on next stab."""
        self._seen_version = -1
        self._memo.clear()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters, for telemetry and the benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "memo_size": len(self._memo),
            "snapshot_size": len(self._tree),
        }

    # ------------------------------------------------------------------
    # Version catch-up
    # ------------------------------------------------------------------

    def _catch_up(self) -> None:
        """Re-key the memo for the tree's current interval set."""
        lows, highs, _ = self._tree.slots()
        bounds = _np.unique(_np.concatenate((lows, highs)))
        # ``bisect`` on an ``array('d')`` beats a scalar ``searchsorted``
        # per query, and the array is one memcpy from NumPy where a list
        # would box every value.
        self._bounds = array("d", bounds.tobytes())
        self._memo.clear()
        self._seen_version = self._tree.version
        self.rebuilds += 1
