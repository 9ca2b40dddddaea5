"""Ablation variant: n-of-N maintenance over pure-Python scans.

Section 3.3 motivates the in-memory R-tree with the difficulty of
balancing multidimensional point structures under updates.  But
Theorem 2 says ``R_N`` stays *small* (``O(log^d N)`` on independent
data), which is why the engines answer Algorithm 1's two searches with
NumPy scans over a dense matrix (:mod:`repro.structures.dense_index`)
rather than an R-tree.

:class:`LinearScanNofNSkyline` is bit-for-bit the same engine as
:class:`~repro.core.nofn.NofNSkyline` — same dominance graph, same
interval encoding, same query path — except that the two searches are
plain-loop scans over the dense index's entries (the storage, interval
columns and stab stay the dense index's own):

* ``D_{e_new}`` — scan every record, keep the weakly dominated;
* critical dominator — scan every record, keep the max-kappa dominator.

Both are ``O(|R_N| * d)`` interpreter steps per arrival.  It is the
pure-Python reference the dense index is checked against, and
``benchmarks/bench_ablation_rtree.py`` prices it beside the dense
index: the NumPy scan pulls ahead of this one once ``|R_N|`` reaches a
few dozen elements.  Both scans beat the paper's pointer R-tree at
reproduction scale while an engine could still host it (EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.dominance import weakly_dominates
from repro.core.nofn import NofNSkyline
from repro.structures.dense_index import DenseEntry, DenseIndex


def _rows(points: Sequence[Sequence[float]]) -> List[Sequence[float]]:
    """A probe chunk as a list of float rows (the pipeline hands the
    batch methods slices of its ``(B, d)`` matrix)."""
    tolist = getattr(points, "tolist", None)
    return tolist() if tolist is not None else list(points)


class _ScanIndex(DenseIndex):
    """The engine's dense index with its three dominance searches
    (``max_kappa_dominator`` and the chunk pipeline's two batch
    searches) replaced by linear scans over the entries.

    Storage, writes, the interval columns and the stab are the dense
    index's own.
    """

    def max_kappa_dominator(
        self, q: Sequence[float], kappa_below: Optional[int] = None
    ) -> Optional[DenseEntry]:
        best = None
        for entry in self._entries.values():  # kappa order
            if kappa_below is not None and entry.kappa >= kappa_below:
                break
            if weakly_dominates(entry.point, q):
                best = entry
        return best

    def report_dominated_batch(
        self,
        points: Sequence[Sequence[float]],
        first_only: bool = True,
        survivors: Optional[Sequence[int]] = None,
    ) -> List[List[DenseEntry]]:
        """Non-destructive chunk-wide dominance report, buckets in kappa
        order: each dominated entry lands in the bucket of the
        *earliest* probe dominating it (the arrival that ejects it), or
        with ``first_only=False`` in every such bucket.  With
        ``survivors`` (the probes that dominate the rest, as for the
        dense index) an entry is looked up only once one of them
        dominates it."""
        probes = _rows(points)
        search = probes if survivors is None else [probes[s] for s in survivors]
        buckets: List[List[DenseEntry]] = [[] for _ in probes]
        for entry in self._entries.values():
            if not any(weakly_dominates(q, entry.point) for q in search):
                continue
            for bucket, q in zip(buckets, probes):
                if weakly_dominates(q, entry.point):
                    bucket.append(entry)
                    if first_only:
                        break
        return buckets

    def max_kappa_dominator_batch(
        self, points: Sequence[Sequence[float]]
    ) -> List[Optional[DenseEntry]]:
        return [self.max_kappa_dominator(q) for q in _rows(points)]


class LinearScanNofNSkyline(NofNSkyline):
    """The n-of-N engine with pure-Python scans instead of the dense
    NumPy index's dominance searches.

    Same knobs, query semantics and outcomes as :class:`NofNSkyline`;
    only the maintenance-search substrate differs.  Exists for the
    ablation benchmarks and as a correctness cross-check.
    """

    _index_class = _ScanIndex
