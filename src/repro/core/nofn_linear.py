"""Ablation variant: n-of-N maintenance without the R-tree.

Section 3.3 motivates the in-memory R-tree with the difficulty of
balancing multidimensional point structures under updates.  But
Theorem 2 says ``R_N`` stays *small* (``O(log^d N)`` on independent
data), which raises a fair design question this module lets the
benchmarks answer empirically: **is the R-tree worth it, or would
linear scans over** ``R_N`` **do?**

:class:`LinearScanNofNSkyline` is bit-for-bit the same engine as
:class:`~repro.core.nofn.NofNSkyline` — same dominance graph, same
interval encoding, same query path — except that Algorithm 1's two
R-tree searches are replaced by plain scans over the label set:

* ``D_{e_new}`` — scan every record, keep the weakly dominated;
* critical dominator — scan every record, keep the max-kappa dominator.

Both are ``O(|R_N| * d)`` per arrival instead of the R-tree's pruned
search.  ``benchmarks/bench_ablation_rtree.py`` compares the two; on
correlated/independent data the scan is competitive exactly because
``|R_N|`` is tiny, while anti-correlated data (large ``R_N``) is where
the R-tree's pruning pays — the trade-off the paper's design implies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.dominance import weakly_dominates
from repro.core.nofn import NofNSkyline
from repro.exceptions import corruption
from repro.sanitize.sanitizer import SanitizeArg


class _ScanIndex:
    """A drop-in replacement for the engine's R-tree: a flat dict.

    Implements exactly the :class:`repro.structures.rtree_soa.SoARTree`
    surface the engine uses (``insert``, ``delete``,
    ``remove_dominated``, ``max_kappa_dominator``, ``__len__`` and the
    chunk pipeline's four batch methods) with linear scans.
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

    def insert(
        self, point: Sequence[float], kappa: int, data: object = None
    ) -> "_ScanIndex._Entry":
        entry = self._Entry(point, kappa, data)
        self._entries[kappa] = entry
        return entry

    def delete(self, kappa: int) -> "_ScanIndex._Entry":
        return self._entries.pop(kappa)

    def remove_dominated(self, q: Sequence[float]) -> List["_ScanIndex._Entry"]:
        removed = [
            entry
            for entry in self._entries.values()
            if weakly_dominates(q, entry.point)
        ]
        for entry in removed:
            del self._entries[entry.kappa]
        return removed

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
        self, points: Sequence[Sequence[float]]
    ) -> List[List["_ScanIndex._Entry"]]:
        """Non-destructive chunk-wide dominance report: each dominated
        entry lands in the bucket of the *earliest* probe dominating it
        (the arrival whose ``remove_dominated`` would have claimed it);
        buckets are kappa-sorted."""
        buckets: List[List[_ScanIndex._Entry]] = [[] for _ in points]
        for kappa in sorted(self._entries):
            entry = self._entries[kappa]
            for bucket, q in zip(buckets, points):
                if weakly_dominates(q, entry.point):
                    bucket.append(entry)
                    break
        return buckets

    def max_kappa_dominator_batch(
        self, points: Sequence[Sequence[float]]
    ) -> List[Optional["_ScanIndex._Entry"]]:
        return [self.max_kappa_dominator(q) for q in points]

    def delete_many(self, kappas: Sequence[int]) -> List["_ScanIndex._Entry"]:
        return [self._entries.pop(kappa) for kappa in kappas]

    def insert_many(
        self,
        points: Sequence[Sequence[float]],
        kappas: Sequence[int],
        datas: Optional[Sequence[object]] = None,
    ) -> List["_ScanIndex._Entry"]:
        return [
            self.insert(point, kappa, None if datas is None else datas[i])
            for i, (point, kappa) in enumerate(zip(points, kappas))
        ]

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
    """The n-of-N engine with linear scans instead of the R-tree.

    Same query semantics and outcomes as :class:`NofNSkyline`; only the
    maintenance-search substrate differs.  Exists for the ablation
    benchmarks and as a correctness cross-check.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        **_ignored: object,
    ) -> None:
        # The stab cache lives on the interval tree, so it applies to
        # this variant unchanged; R-tree tuning does not, and is
        # absorbed by ``_ignored``.
        super().__init__(dim, capacity, sanitize=sanitize, query_cache=query_cache)
        # Swap the spatial index for the flat scan structure.
        self._rtree = _ScanIndex(dim)  # type: ignore[assignment]
