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
plain-loop scans over a dict:

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

from typing import Dict, List, Optional, Sequence

from repro.core.dominance import weakly_dominates
from repro.core.nofn import NofNSkyline
from repro.exceptions import corruption
from repro.sanitize.sanitizer import SanitizeArg


def _rows(points: Sequence[Sequence[float]]) -> List[Sequence[float]]:
    """A probe chunk as a list of float rows (the pipeline hands the
    batch methods slices of its ``(B, d)`` matrix)."""
    tolist = getattr(points, "tolist", None)
    return tolist() if tolist is not None else list(points)


class _ScanIndex:
    """A drop-in replacement for the engine's R-tree: a flat dict.

    Implements exactly the :class:`repro.structures.dense_index.DenseIndex`
    surface the engine uses (``max_kappa_dominator``, ``__len__`` and
    the chunk pipeline's four batch methods) with linear scans.
    """

    class _Entry:
        __slots__ = ("point", "kappa", "data")

        def __init__(
            self, point: Sequence[float], kappa: int, data: object
        ) -> None:
            self.point = tuple(point)
            self.kappa = kappa
            self.data = data

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._entries: Dict[int, _ScanIndex._Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, kappa: int) -> bool:
        return kappa in self._entries

    def max_kappa_dominator(
        self, q: Sequence[float], kappa_below: Optional[int] = None
    ) -> Optional["_ScanIndex._Entry"]:
        best = None
        for entry in self._entries.values():
            if kappa_below is not None and entry.kappa >= kappa_below:
                continue
            if weakly_dominates(entry.point, q):
                if best is None or entry.kappa > best.kappa:
                    best = entry
        return best

    def report_dominated_batch(
        self,
        points: Sequence[Sequence[float]],
        survivors: Optional[Sequence[int]] = None,
    ) -> List[List["_ScanIndex._Entry"]]:
        """Non-destructive chunk-wide dominance report: each dominated
        entry lands in the bucket of the *earliest* probe dominating it
        (the arrival that ejects it); buckets are kappa-sorted.  With
        ``survivors`` (the probes that dominate the rest, as for the
        dense index) an entry is looked up only once one of them
        dominates it."""
        probes = _rows(points)
        search = probes if survivors is None else [probes[s] for s in survivors]
        buckets: List[List[_ScanIndex._Entry]] = [[] for _ in probes]
        for kappa in sorted(self._entries):
            entry = self._entries[kappa]
            if not any(weakly_dominates(q, entry.point) for q in search):
                continue
            for bucket, q in zip(buckets, probes):
                if weakly_dominates(q, entry.point):
                    bucket.append(entry)
                    break
        return buckets

    def max_kappa_dominator_batch(
        self, points: Sequence[Sequence[float]]
    ) -> List[Optional["_ScanIndex._Entry"]]:
        return [self.max_kappa_dominator(q) for q in _rows(points)]

    def delete_many(self, kappas: Sequence[int]) -> List["_ScanIndex._Entry"]:
        return [self._entries.pop(kappa) for kappa in kappas]

    def insert_many(
        self,
        points: Sequence[Sequence[float]],
        kappas: Sequence[int],
        datas: Optional[Sequence[object]] = None,
    ) -> List["_ScanIndex._Entry"]:
        entries = [
            self._Entry(point, kappa, None if datas is None else datas[i])
            for i, (point, kappa) in enumerate(zip(_rows(points), kappas))
        ]
        for entry in entries:
            self._entries[entry.kappa] = entry
        return entries

    def check_invariants(self) -> None:
        for kappa, entry in self._entries.items():
            if entry.kappa != kappa:
                raise corruption(
                    "scan_index",
                    "rtree-links",
                    f"index key {kappa} holds entry labelled {entry.kappa}",
                    kappas=(kappa,),
                )


class LinearScanNofNSkyline(NofNSkyline):
    """The n-of-N engine with pure-Python scans instead of the dense
    NumPy index.

    Same knobs, query semantics and outcomes as :class:`NofNSkyline`;
    only the maintenance-search substrate differs.  Exists for the
    ablation benchmarks and as a correctness cross-check.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        super().__init__(
            dim,
            capacity,
            sanitize=sanitize,
            query_cache=query_cache,
            batch_chunk=batch_chunk,
        )
        # Swap the dominance index for the flat scan structure.
        self._rtree = _ScanIndex(dim)  # type: ignore[assignment]
