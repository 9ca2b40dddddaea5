"""Vectorised intra-batch dominance prefilter for batched ingestion.

Real feeds deliver points in bursts, and Theorem 2 (``E[|R_N|] =
O(log^d N)``) says almost every burst member is dominated quickly —
most often by a *younger member of the same burst*.  Such an element
would be inserted into the dominance index / interval tree / label set
only to be ejected again before any query can observe it (queries never
run mid-batch).  The batched ingestion paths
(:meth:`repro.core.nofn.NofNSkyline.append_many` and friends) therefore
precompute, with two NumPy broadcasts over the batch, *when* each batch
member dies at the hands of a younger same-batch member — and skip all
index maintenance for those casualties while still synthesising their
exact per-element :class:`~repro.core.events.ArrivalOutcome`.

The filter is a *skyband* filter: ``k = 1`` marks an element as doomed
at its first younger weak dominator (the skyline engines), ``k > 1`` at
its ``k``-th (the k-skyband engine, where an element is pruned once
``k`` younger dominators have arrived).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

__all__ = ["BatchPrefilter", "intra_batch_survivors", "resolve_batch_chunk"]

#: Batches larger than this are processed in slices of this size so the
#: pairwise dominance matrix stays small (``CHUNK^2`` booleans).  The
#: engines' ``batch_chunk`` knob overrides it per instance; this module
#: constant is the single source of the default
#: (:func:`resolve_batch_chunk`).
CHUNK = 1024


def resolve_batch_chunk(batch_chunk: Optional[int]) -> int:
    """Resolve an engine's ``batch_chunk`` knob to an effective chunk.

    ``None`` (the default everywhere) means :data:`CHUNK`.

    Raises
    ------
    ValueError
        If ``batch_chunk`` is given and smaller than 1.
    """
    if batch_chunk is None:
        return CHUNK
    chunk = int(batch_chunk)
    if chunk < 1:
        raise ValueError(f"batch_chunk must be >= 1, got {batch_chunk}")
    return chunk


class BatchPrefilter:
    """Pairwise weak-dominance analysis of one ingestion batch.

    Parameters
    ----------
    points:
        The batch's value vectors, in arrival order.
    k:
        Skyband depth: member ``i`` is *doomed* once ``k`` younger batch
        members weakly dominate it (``k = 1`` for the skyline engines).

    Attributes
    ----------
    kill:
        ``kill[i]`` is the batch index of the arrival at which member
        ``i`` accumulates its ``k``-th younger same-batch weak
        dominator (the arrival that removes it from the engine), or
        ``-1`` if fewer than ``k`` younger batch members dominate it.
    """

    __slots__ = ("size", "k", "kill", "_weak", "_killed_at")

    def __init__(self, points: Sequence[Sequence[float]], k: int = 1) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.size = len(points)
        self.k = k
        self.kill: List[int] = []
        self._weak = _np.zeros((0, 0), dtype=bool)
        arr = _np.asarray([tuple(p) for p in points], dtype=float)
        if arr.size:
            # weak[a, b] <=> points[a] weakly dominates points[b].  One
            # outer comparison per dimension keeps the working set at
            # B^2 booleans instead of materialising a B^2 x d cube.
            weak = arr[:, 0, None] <= arr[None, :, 0]
            for c in range(1, arr.shape[1]):
                weak &= arr[:, c, None] <= arr[None, :, c]
            # Younger-dominator relation: row index (the dominator) must
            # arrive after the column index.  tril(k=-1) keeps a > b.
            younger = _np.tril(weak, k=-1)
            if k == 1:
                # argmax finds each column's first younger dominator
                # directly; the cumsum is only needed for skyband depths.
                has = younger.any(axis=0)
                first = younger.argmax(axis=0)
            else:
                reached = _np.cumsum(younger, axis=0) >= k
                has = reached[-1]
                first = _np.argmax(reached, axis=0)
            self._weak = weak
            self.kill = _np.where(has, first, -1).tolist()
        self._killed_at: Dict[int, List[int]] = {}
        for idx, at in enumerate(self.kill):
            if at >= 0:
                self._killed_at.setdefault(at, []).append(idx)

    # -- queries --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Number of batch members the engines never need to index."""
        return sum(1 for at in self.kill if at >= 0)

    def is_doomed(self, i: int) -> bool:
        """Whether member ``i`` dies to a younger same-batch member."""
        return self.kill[i] >= 0

    def killed_at(self, j: int) -> List[int]:
        """Batch indices whose removal arrival is ``j`` (ascending)."""
        return self._killed_at.get(j, [])

    def older_weak_dominators(self, i: int) -> List[int]:
        """Batch indices ``h < i`` weakly dominating ``i``, youngest
        first — the batch-side candidates for member ``i``'s critical
        dominator search."""
        return _np.flatnonzero(self._weak[:i, i])[::-1].tolist()

    def older_weak_victims(self, j: int) -> List[int]:
        """Batch indices ``h < j`` weakly dominated by ``j``, ascending —
        the already-arrived members whose younger-dominator counts grow
        when member ``j`` arrives (the batch-side mirror of an index
        dominance report)."""
        return _np.flatnonzero(self._weak[j, :j]).tolist()

    def weakly_dominates(self, a: int, b: int) -> bool:
        """Whether batch member ``a`` weakly dominates member ``b``."""
        return bool(self._weak[a, b])


def intra_batch_survivors(
    points: Sequence[Sequence[float]], k: int = 1
) -> List[int]:
    """Indices of batch members with fewer than ``k`` younger same-batch
    weak dominators, ascending — the members that must touch the engine
    index when the batch is ingested."""
    pre = BatchPrefilter(points, k=k)
    return [i for i in range(pre.size) if not pre.is_doomed(i)]


def iter_chunks(count: int, chunk: int = CHUNK) -> List[Tuple[int, int]]:
    """``(start, stop)`` slice bounds covering ``range(count)`` in
    slices of at most ``chunk``."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
