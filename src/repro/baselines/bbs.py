"""Branch-and-bound skyline (BBS) [Papadias, Tao, Fu, Seeger, SIGMOD 2003].

The paper cites BBS ([23]) as the progressive skyline algorithm with
guaranteed-minimal I/O on R-tree-indexed data.  This implementation
runs it over this library's own in-memory
:class:`~repro.structures.rtree.RTree`:

1. seed a min-heap with the root, keyed by *mindist* — the L1 distance
   of a box's lower corner (or a point) from the origin;
2. repeatedly pop the least entry; discard it if its lower corner is
   weakly dominated by a point already in the skyline; otherwise expand
   nodes into the heap, and emit points — the mindist order guarantees
   every dominator of a point is popped first, so emitted points are
   final.

The progressive variant yields skyline points one at a time in mindist
order, exactly the behaviour BBS is valued for; ``bbs_skyline`` wraps
it with the index-list interface shared by all baselines (strict
Pareto dominance; exact duplicates all reported).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.core.dominance import weakly_dominates
from repro.structures.rtree import RTree, RTreeEntry

Point = Tuple[float, ...]


def bbs_skyline(
    points: Sequence[Sequence[float]],
    max_entries: int = 12,
    min_entries: int = 4,
) -> List[int]:
    """Indices of the skyline of ``points``, ascending.

    Same semantics as the other baselines (strict dominance; all copies
    of a duplicated skyline point reported).
    """
    if not points:
        return []
    groups: Dict[Point, List[int]] = {}
    for idx, raw in enumerate(points):
        groups.setdefault(tuple(float(v) for v in raw), []).append(idx)
    result: List[int] = []
    for vector in bbs_progressive(
        list(groups), max_entries=max_entries, min_entries=min_entries
    ):
        result.extend(groups[vector])
    return sorted(result)


def bbs_progressive(
    points: Sequence[Sequence[float]],
    max_entries: int = 12,
    min_entries: int = 4,
) -> Iterator[Point]:
    """Yield distinct skyline points progressively, in mindist order.

    Points must be distinct vectors (``bbs_skyline`` handles duplicate
    collapsing); under distinct vectors weak and strict dominance
    coincide, so the emitted set is the strict-Pareto skyline.
    """
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        return
    dim = len(pts[0])
    tree = RTree(dim, max_entries=max_entries, min_entries=min_entries)
    for i, point in enumerate(pts):
        tree.insert(point, kappa=i + 1)

    # (mindist, corner, counter, item): the unique counter settles every
    # tie before the item, so nodes and entries are never compared.
    heap: List[Tuple[float, Point, int, Any]] = []
    counter = 0

    def push(item: Any, corner: Point) -> None:
        nonlocal counter
        # The corner tie-break matters for correctness, not just
        # determinism: float addition is monotone under componentwise <=
        # but can round two *different* corners to the same sum (e.g. a
        # subnormal coordinate vanishing into 1.0).  Dominance implies
        # lexicographic <=, so on equal sums the dominator still pops
        # first and the emitted-points-are-final invariant holds.
        heapq.heappush(heap, (sum(corner), corner, counter, item))
        counter += 1

    root = tree._root
    if root.mbr is not None:
        push(root, root.mbr.lower)

    skyline: List[Point] = []
    while heap:
        item = heapq.heappop(heap)[3]
        if isinstance(item, RTreeEntry):
            if _dominated(item.point, skyline):
                continue
            skyline.append(item.point)
            yield item.point
            continue
        if item.mbr is None or _dominated(item.mbr.lower, skyline):
            continue
        if item.is_leaf:
            for entry in item.children:
                if not _dominated(entry.point, skyline):
                    push(entry, entry.point)
        else:
            for child in item.children:
                if not _dominated(child.mbr.lower, skyline):
                    push(child, child.mbr.lower)


def _dominated(corner: Sequence[float], skyline: List[Point]) -> bool:
    return any(weakly_dominates(s, corner) for s in skyline)
