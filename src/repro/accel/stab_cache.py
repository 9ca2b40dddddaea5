"""Versioned read-path cache for interval-tree stabbing queries.

The paper reduces every n-of-N query to *one stabbing query* over the
interval encoding of the critical dominance graph (Theorem 3).  The
engines' write path keeps that encoding in an augmented red-black tree
(:class:`~repro.structures.interval_tree.IntervalTree`), which is the
right structure for ``O(log m)`` updates — but answering reads through
it pays pure-Python pointer chasing per node.  Query traffic is
typically far heavier than the update stream cares to admit, and the
interval set changes only when an arrival, expiry or re-rooting touches
the tree.

:class:`StabCache` therefore trades a little write-side work for a flat
read path:

* **Versioned invalidation** — the interval tree bumps an integer
  version on every insert/remove; the cache compares that single
  integer per query, so invalidation is O(1) and *exact*: a cached
  answer is reused iff the interval set is bit-for-bit the one it was
  computed from.
* **Flat snapshot** — on the first stab after a write the cache walks
  the tree once (in ``(low, high, seq)`` key order, so lows arrive
  sorted) into contiguous ``low``/``high`` arrays.  A stab at ``t``
  becomes ``searchsorted`` + one vectorised comparison +
  ``np.flatnonzero`` instead of an RB-tree descent.
* **Elementary-span memo** — the answer to a stab is constant between
  consecutive interval endpoints: for ``t`` inside a span
  ``(v_i, v_{i+1}]`` of the sorted endpoint values, every ``low < t``
  and ``t <= high`` comparison has the same outcome for all of the
  span (an endpoint can never fall strictly inside it).  The memo
  therefore keys on the span index — one ``bisect`` per query — so
  *distinct but equivalent* stab points share a single entry.  Under
  query workloads that sweep ``n`` (or under continuous polling) most
  queries collapse onto at most ``2 |R_N| + 1`` spans and answer from
  the memo without touching the arrays.

Results can be memoized **pre-sorted**: pass ``sort_key`` and every
answer is ordered by it once, on the miss, instead of per query by the
caller (the engines sort by kappa this way).  Callers receive a
**fresh list** per call and may mutate it freely; the memo stores
immutable tuples.  The cache never mutates the tree and may be dropped
or re-attached at any time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

import numpy as _np

from repro.structures.interval_tree import IntervalTree

D = TypeVar("D")

#: Memo entries kept before the table is dropped wholesale.  Bounds
#: memory when the tree holds more elementary spans than this; a plain
#: clear beats an LRU here because the flat path a miss falls back to
#: is already cheap.
DEFAULT_MAX_MEMO = 1024


class StabCache(Generic[D]):
    """Read-optimised view of one :class:`IntervalTree`.

    Parameters
    ----------
    tree:
        The live tree to mirror.  The cache reads ``tree.version`` and
        ``tree.intervals()`` only; it never mutates the tree.
    max_memo:
        Memo-table capacity (distinct elementary spans); the table is
        cleared when full.
    sort_key:
        When given, answers are sorted by it once per memo entry, so
        every :meth:`stab` returns an ordered list for free.  Without
        it results follow the snapshot (ascending ``low``).

    Attributes
    ----------
    hits / misses:
        Memo-table hits and misses across the cache's lifetime.
    rebuilds:
        How many times the flat snapshot was rebuilt after a write.
    """

    __slots__ = (
        "_tree",
        "_snap_version",
        "_lows",
        "_highs",
        "_data",
        "_bounds",
        "_memo",
        "_max_memo",
        "_sort_key",
        "hits",
        "misses",
        "rebuilds",
    )

    def __init__(
        self,
        tree: IntervalTree[D],
        max_memo: int = DEFAULT_MAX_MEMO,
        sort_key: Optional[Callable[[D], Any]] = None,
    ) -> None:
        if max_memo < 1:
            raise ValueError(f"max_memo must be >= 1, got {max_memo}")
        self._tree = tree
        self._snap_version = -1  # tree versions start at 0: forces a build
        self._lows: Any = []
        self._highs: Any = []
        self._data: List[D] = []
        self._bounds: List[float] = []
        self._memo: Dict[int, Tuple[D, ...]] = {}
        self._max_memo = max_memo
        self._sort_key = sort_key
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab(self, t: float) -> List[D]:
        """Payloads of every interval with ``low < t <= high``.

        Same answer set as :meth:`IntervalTree.stab`; output is ordered
        by ``sort_key`` when one was given, otherwise by the snapshot
        (ascending ``low``).  Always returns a fresh list.
        """
        if self._tree.version != self._snap_version:
            self._rebuild()
        # Stab answers are constant on the elementary spans between
        # consecutive endpoint values; the span index is the memo key.
        span = bisect_left(self._bounds, t)
        cached = self._memo.get(span)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        out = self._flat_stab(t)
        if self._sort_key is not None:
            out.sort(key=self._sort_key)
        if len(self._memo) >= self._max_memo:
            self._memo.clear()
        self._memo[span] = tuple(out)
        return out

    def is_fresh(self) -> bool:
        """Whether the snapshot matches the tree's current version."""
        return self._tree.version == self._snap_version

    def snapshot_arrays(self) -> Tuple[Any, Any, List[D]]:
        """The flat snapshot as ``(lows, highs, data)``, rebuilt first if
        the tree has moved on.

        This is the export surface of the cache: the shared-memory shard
        replicas (:mod:`repro.parallel.replicas`) publish exactly these
        arrays, so a reader in another process can answer stabs with the
        same ``searchsorted`` arithmetic :meth:`stab` uses locally:
        ``lows``/``highs`` are ``float64`` arrays sorted by ``low``.  The
        returned
        objects are the cache's own working copies — callers must treat
        them as read-only (they are replaced wholesale, never mutated,
        on the next rebuild).
        """
        if self._tree.version != self._snap_version:
            self._rebuild()
        return self._lows, self._highs, self._data

    def invalidate(self) -> None:
        """Drop the snapshot and memo, forcing a rebuild on next stab."""
        self._snap_version = -1
        self._memo.clear()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters, for telemetry and the benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "memo_size": len(self._memo),
            "snapshot_size": len(self._data),
        }

    # ------------------------------------------------------------------
    # Snapshot maintenance
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        """Flatten the tree into sorted-by-low parallel arrays."""
        lows: List[float] = []
        highs: List[float] = []
        data: List[D] = []
        # intervals() yields in (low, high, seq) key order, so ``lows``
        # is already sorted — no extra sort pass needed.
        for interval in self._tree.intervals():
            lows.append(interval.low)
            highs.append(interval.high)
            data.append(interval.data)
        self._lows = _np.asarray(lows, dtype=_np.float64)
        self._highs = _np.asarray(highs, dtype=_np.float64)
        self._data = data
        # Elementary-span boundaries for the memo key (a plain list:
        # ``bisect`` on it beats a scalar ``searchsorted`` call).
        self._bounds = sorted(set(lows).union(highs))
        self._memo.clear()
        self._snap_version = self._tree.version
        self.rebuilds += 1

    def _flat_stab(self, t: float) -> List[D]:
        """Vectorised stab over the flat snapshot: ``low < t <= high``."""
        data = self._data
        # Lows are sorted: everything left of ``idx`` has low < t.
        idx = int(_np.searchsorted(self._lows, t, side="left"))
        if idx == 0:
            return []
        hit = _np.flatnonzero(self._highs[:idx] >= t)
        return [data[i] for i in hit.tolist()]
