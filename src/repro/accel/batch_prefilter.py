"""Vectorised intra-batch dominance prefilter for batched ingestion.

Real feeds deliver points in bursts, and Theorem 2 (``E[|R_N|] =
O(log^d N)``) says almost every burst member is dominated quickly —
most often by a *younger member of the same burst*.  Such an element
would be inserted into the dominance index, with its interval, only
to be ejected again before any query can observe it (queries never
run mid-batch).  The batched ingestion paths
(:meth:`repro.core.nofn.NofNSkyline.append_many` and friends) therefore
build one row-oriented ``B x B`` weak-dominance matrix over the batch
(``dom_by[i, h]``: member ``h`` weakly dominates member ``i``) and read
two row reductions off it: *when* each member dies at the hands of a
younger same-batch member, and (when a pipeline asks) which older
same-batch member is its youngest weak dominator (Algorithm 1's
critical-parent candidate).  The engines skip all index maintenance
for the casualties while still reporting each arrival exactly as
per-element ``append`` calls would.

The filter is a *skyband* filter: ``k = 1`` marks an element as doomed
at its first younger weak dominator (the skyline engines), ``k > 1`` at
its ``k``-th (the k-skyband engine, where an element is pruned once
``k`` younger dominators have arrived).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.structures.dense_index import _mask_buffers

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
        The batch's value vectors, in arrival order: a point sequence or
        a ``(B, d)`` matrix.
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
    survivors:
        The batch indices with ``kill[i] == -1``, ascending.  For
        ``k = 1`` every doomed member is weakly dominated by a survivor:
        the last member of its chain of killers.
    """

    __slots__ = (
        "size", "k", "kill", "survivors", "_dom_by", "_killed_at",
        "_youngest_older", "_victims",
    )

    def __init__(self, points: Sequence[Sequence[float]], k: int = 1) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.size = len(points)
        self.k = k
        self._youngest_older: Optional[List[int]] = None
        self._victims: Optional[List[List[int]]] = None
        if self.size == 1:
            # No other member: no pairs to compare.
            self.kill: List[int] = [-1]
            self.survivors: List[int] = [0]
            self._dom_by = _np.array([[True]])  # weak self-dominance
            self._youngest_older = [-1]
            self._killed_at: Dict[int, List[int]] = {}
            return
        if not self.size:
            self.kill = []
            self.survivors = []
            self._dom_by = _np.zeros((0, 0), dtype=bool)
        else:
            # One contiguous row per axis: each outer comparison below
            # then reads two contiguous vectors.
            cols = _np.ascontiguousarray(
                _np.asarray(points, dtype=float).reshape(self.size, -1).T
            )
            idx = _np.arange(self.size, dtype=_np.int32)
            with _mask_buffers():
                # dom_by[i, h] <=> points[h] weakly dominates points[i].
                # One outer comparison per axis keeps the working set at
                # B^2 booleans instead of a B^2 x d cube.
                dom_by = cols[0, :, None] >= cols[0, None, :]
                for c in range(1, cols.shape[0]):
                    dom_by &= cols[c, :, None] >= cols[c, None, :]
                # Younger dominators (h > i); a row reaches k at its
                # k-th, so only skyband depths need the cumsum.  The
                # triangle mask is written into ``hit`` in place: a
                # temporary B x B mask added about 0.7 MB of peak RSS
                # at B = 1,024.
                hit = idx[:, None] < idx[None, :]
                hit &= dom_by
                if k > 1:
                    hit = _np.cumsum(hit, axis=1, dtype=_np.int32) >= k
                # A row's argmax is its first hit, or 0 when it has none.
                first = hit.argmax(axis=1)
                kill = _np.where(hit[idx, first], first, -1)
            self.kill = kill.tolist()
            self.survivors = _np.flatnonzero(kill < 0).tolist()
            self._dom_by = dom_by
        self._killed_at = {}
        for i, at in enumerate(self.kill):
            if at >= 0:
                self._killed_at.setdefault(at, []).append(i)

    # -- queries --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Number of batch members the engines never need to index."""
        return self.size - len(self.survivors)

    @property
    def youngest_older(self) -> List[int]:
        """``youngest_older[i]`` is the largest batch index ``h < i``
        whose member weakly dominates member ``i`` — the first entry of
        :meth:`older_weak_dominators` — or ``-1`` if there is none.
        Computed on first read (the k-skyband engine never reads it)."""
        if self._youngest_older is None:
            size = self.size
            self._youngest_older = []
            if size:
                idx = _np.arange(size, dtype=_np.int32)
                with _mask_buffers():
                    # Older dominators (h < i), with the columns reversed
                    # (column j holds h = B - 1 - j): a row's first hit
                    # is then its youngest older dominator, and the
                    # argmax reads contiguous rows without a copy.
                    hit = idx[:, None] > (size - 1) - idx[None, :]
                    hit &= self._dom_by[:, ::-1]
                    pos = hit.argmax(axis=1)
                    self._youngest_older = _np.where(
                        hit[idx, pos], (size - 1) - pos, -1
                    ).tolist()
        return self._youngest_older

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
        if not i:
            return []
        return _np.flatnonzero(self._dom_by[i, :i])[::-1].tolist()

    def older_weak_victims(self, j: int) -> List[int]:
        """Batch indices ``h < j`` weakly dominated by ``j``, ascending —
        the already-arrived members whose younger-dominator counts grow
        when member ``j`` arrives (the batch-side mirror of an index
        dominance report).  The first call lists every member's victims
        in one pass over the matrix."""
        if not j:
            return []
        if self._victims is None:
            # (j, h) pairs with h < j and dom_by[h, j], ordered by j
            # and then h; each member's victims are one run of them.
            js, hs = _np.nonzero(_np.triu(self._dom_by, 1).T)
            ends = _np.searchsorted(js, _np.arange(self.size + 1)).tolist()
            victims = hs.tolist()
            self._victims = [
                victims[ends[j]:ends[j + 1]] for j in range(self.size)
            ]
        return self._victims[j]

    def weakly_dominates(self, a: int, b: int) -> bool:
        """Whether batch member ``a`` weakly dominates member ``b``."""
        return bool(self._dom_by[b, a])


def intra_batch_survivors(
    points: Sequence[Sequence[float]], k: int = 1
) -> List[int]:
    """Indices of batch members with fewer than ``k`` younger same-batch
    weak dominators, ascending — the members that must touch the engine
    index when the batch is ingested."""
    return BatchPrefilter(points, k=k).survivors


def iter_chunks(count: int, chunk: int = CHUNK) -> List[Tuple[int, int]]:
    """``(start, stop)`` slice bounds covering ``range(count)`` in
    slices of at most ``chunk``."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
