"""In-memory R-tree over the non-redundant set ``R_N``.

Section 3.3 of the paper organises ``R_N`` in a main-memory R-tree to
support the two computations driven by every arrival ``e_new``:

* **Dominance reporting** (``D_{e_new}``, Algorithm 1 line 9): a
  depth-first search that expands a node only when ``e_new`` falls in
  the node's *candidate region* (Figure 7a), harvests whole subtrees
  when ``e_new`` dominates the box's lower corner (*l-corner*), removes
  discovered elements immediately without rebalancing, shrinks bounding
  boxes as the recursion returns (Figure 8), and rebalances bottom-up
  once the search finishes.

* **Critical-dominator search** (Algorithm 1 line 14): a best-first
  search on a max-heap keyed by ``m_v`` — the maximum arrival label
  ``kappa`` within each subtree — that expands a node only when
  ``e_new`` falls in its dominator candidate region (Figure 7b) and
  terminates early when the box's upper corner dominates ``e_new``
  (*r-corner*), in which case the subtree's ``m_v`` element is the
  answer.

The tree is a classic Guttman R-tree with quadratic split and a
condense-and-reinsert deletion path (the "B+-tree bottom-up strategy
combined with [R*-tree] techniques" the paper describes maps to the
same underfull-node handling).  Every node additionally carries
``max_kappa``, the ``m_v`` augmentation.

Entries are points: ``(point, kappa, data)``; ``kappa`` values must be
unique (they are stream positions).

The engines run the struct-of-arrays rebuild of this surface
(:mod:`repro.structures.rtree_soa`); this tree is the paper-faithful
reference behind BBS, the fan-out/split ablation benchmarks and the
test oracle the SoA index is checked against.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    KeyNotFoundError,
    corruption,
)
from repro.structures.mbr import MBR

Point = Tuple[float, ...]

DEFAULT_MAX_ENTRIES = 12
DEFAULT_MIN_ENTRIES = 4


class RTreeEntry:
    """A leaf-level record: a point, its arrival label and a payload."""

    __slots__ = ("point", "kappa", "data", "_leaf")

    def __init__(self, point: Point, kappa: int, data: Any) -> None:
        self.point = point
        self.kappa = kappa
        self.data = data
        self._leaf: Optional["_Node"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RTreeEntry(kappa={self.kappa}, point={self.point})"


class _Node:
    """An internal or leaf node.

    Leaf nodes hold :class:`RTreeEntry` children; internal nodes hold
    child :class:`_Node` objects.  ``mbr`` and ``max_kappa`` summarise
    the whole subtree; both are ``None`` only for an empty root.
    """

    __slots__ = ("is_leaf", "children", "mbr", "max_kappa", "parent")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.children: List[Any] = []
        self.mbr: Optional[MBR] = None
        self.max_kappa: int = -1
        self.parent: Optional["_Node"] = None

    def recompute(self) -> None:
        """Refresh ``mbr`` and ``max_kappa`` from the children."""
        if not self.children:
            self.mbr = None
            self.max_kappa = -1
            return
        if self.is_leaf:
            self.mbr = MBR.union_of(
                MBR.from_point(entry.point) for entry in self.children
            )
            self.max_kappa = max(entry.kappa for entry in self.children)
        else:
            self.mbr = MBR.union_of(child.mbr for child in self.children)
            self.max_kappa = max(child.max_kappa for child in self.children)

    def adopt(self, child: Any) -> None:
        """Attach a child and set its parent link."""
        self.children.append(child)
        if self.is_leaf:
            child._leaf = self
        else:
            child.parent = self


class RTree:
    """A point R-tree with dominance-oriented searches.

    Parameters
    ----------
    dim:
        Dimensionality of stored points.
    max_entries / min_entries:
        Node capacity bounds; ``2 <= min_entries <= max_entries // 2``.
    split:
        Overflow policy: ``"quadratic"`` (Guttman, the default) or
        ``"rstar"``.
    """

    def __init__(
        self,
        dim: int,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int = DEFAULT_MIN_ENTRIES,
        split: str = "quadratic",
    ) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        if not 2 <= min_entries <= max_entries // 2:
            raise ValueError(
                f"need 2 <= min_entries <= max_entries // 2, got "
                f"min={min_entries}, max={max_entries}"
            )
        if split not in ("quadratic", "rstar"):
            raise ValueError(
                f"split must be 'quadratic' or 'rstar', got {split!r}"
            )
        self.dim = dim
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.split_policy = split
        #: Nodes expanded by the most recent :meth:`report_dominated`
        #: call (instrumentation for the pruning regression tests).
        self.last_report_visits = 0
        self._root = _Node(is_leaf=True)
        self._entries: Dict[int, RTreeEntry] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, kappa: int) -> bool:
        return kappa in self._entries

    def entries(self) -> Iterator[RTreeEntry]:
        """Iterate all entries (arbitrary deterministic order)."""
        return iter(list(self._entries.values()))

    def entry(self, kappa: int) -> RTreeEntry:
        """The entry labelled ``kappa``."""
        entry = self._entries.get(kappa)
        if entry is None:
            raise KeyNotFoundError(f"no entry with kappa={kappa}")
        return entry

    def height(self) -> int:
        """Tree height (a lone leaf root has height 1)."""
        node = self._root
        height = 1
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    # ------------------------------------------------------------------
    # Insertion (Guttman ChooseLeaf + quadratic split)
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float], kappa: int, data: Any = None) -> RTreeEntry:
        """Insert ``point`` with arrival label ``kappa``.

        Raises
        ------
        DuplicateKeyError
            If an entry with this ``kappa`` already exists.
        DimensionMismatchError
            If the point has the wrong dimensionality.
        """
        if len(point) != self.dim:
            raise DimensionMismatchError(self.dim, len(point))
        if kappa in self._entries:
            raise DuplicateKeyError(f"entry with kappa={kappa} already present")
        entry = RTreeEntry(tuple(float(v) for v in point), kappa, data)
        self._entries[kappa] = entry
        leaf = self._choose_leaf(entry.point)
        leaf.adopt(entry)
        self._handle_overflow_and_adjust(leaf)
        return entry

    def _choose_leaf(self, point: Point) -> _Node:
        node = self._root
        box = MBR.from_point(point)
        while not node.is_leaf:
            best = None
            best_key = None
            for child in node.children:
                enlargement = child.mbr.enlargement(box)
                key = (enlargement, child.mbr.area(), len(child.children))
                if best_key is None or key < best_key:
                    best_key = key
                    best = child
            node = best
        return node

    def _handle_overflow_and_adjust(self, node: _Node) -> None:
        """Split overflowing nodes bottom-up, then refresh summaries."""
        while True:
            if len(node.children) > self.max_entries:
                sibling = self._split(node)
                parent = node.parent
                if parent is None:
                    new_root = _Node(is_leaf=False)
                    new_root.adopt(node)
                    new_root.adopt(sibling)
                    new_root.recompute()
                    self._root = new_root
                    return
                parent.adopt(sibling)
                node.recompute()
                sibling.recompute()
                node = parent
            else:
                node.recompute()
                if node.parent is None:
                    return
                node = node.parent

    def _split(self, node: _Node) -> _Node:
        """Split an overflowing node per the configured policy."""
        if self.split_policy == "rstar":
            return self._split_rstar(node)
        return self._split_quadratic(node)

    def _split_rstar(self, node: _Node) -> _Node:
        """R*-tree split [Beckmann et al., the paper's citation [2]].

        Choose the split *axis* minimising the summed margins of all
        admissible distributions, then along that axis the distribution
        with the least overlap (ties: least total area).  Children are
        considered in lower-corner order per axis (points have a single
        corner, so the R*'s two sort passes coincide for leaves).
        """
        children = node.children
        boxes = [self._child_box(node, c) for c in children]
        m = self.min_entries
        count = len(children)

        best_axis = None
        best_axis_margin = None
        axis_orders = {}
        for axis in range(self.dim):
            order = sorted(
                range(count), key=lambda i: (boxes[i].lower[axis],
                                             boxes[i].upper[axis])
            )
            axis_orders[axis] = order
            margin_sum = 0.0
            for k in range(m, count - m + 1):
                left = MBR.union_of(boxes[i] for i in order[:k])
                right = MBR.union_of(boxes[i] for i in order[k:])
                margin_sum += left.margin() + right.margin()
            if best_axis_margin is None or margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis = axis

        order = axis_orders[best_axis]
        best_key = None
        best_k = m
        for k in range(m, count - m + 1):
            left = MBR.union_of(boxes[i] for i in order[:k])
            right = MBR.union_of(boxes[i] for i in order[k:])
            overlap = self._overlap_area(left, right)
            key = (overlap, left.area() + right.area())
            if best_key is None or key < best_key:
                best_key = key
                best_k = k

        sibling = _Node(is_leaf=node.is_leaf)
        keep = [children[i] for i in order[:best_k]]
        move = [children[i] for i in order[best_k:]]
        node.children = []
        for child in keep:
            node.adopt(child)
        for child in move:
            sibling.adopt(child)
        node.recompute()
        sibling.recompute()
        return sibling

    @staticmethod
    def _overlap_area(a: MBR, b: MBR) -> float:
        """Area of the intersection of two boxes (0 when disjoint)."""
        result = 1.0
        for lo_a, hi_a, lo_b, hi_b in zip(a.lower, a.upper, b.lower, b.upper):
            extent = min(hi_a, hi_b) - max(lo_a, lo_b)
            if extent <= 0:
                return 0.0
            result *= extent
        return result

    def _split_quadratic(self, node: _Node) -> _Node:
        """Quadratic split: distribute children between node and a sibling."""
        children = node.children
        boxes = [self._child_box(node, c) for c in children]

        # Pick the two seeds wasting the most area if grouped together.
        worst = -1.0
        seed_a = 0
        seed_b = 1
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                waste = (
                    boxes[i].union(boxes[j]).area()
                    - boxes[i].area()
                    - boxes[j].area()
                )
                if waste > worst:
                    worst = waste
                    seed_a, seed_b = i, j

        group_a = [children[seed_a]]
        group_b = [children[seed_b]]
        box_a = boxes[seed_a]
        box_b = boxes[seed_b]
        remaining = [
            (children[k], boxes[k])
            for k in range(len(children))
            if k not in (seed_a, seed_b)
        ]

        while remaining:
            # Force-assign when one group must take all leftovers.
            if len(group_a) + len(remaining) == self.min_entries:
                for child, box in remaining:
                    group_a.append(child)
                    box_a = box_a.union(box)
                break
            if len(group_b) + len(remaining) == self.min_entries:
                for child, box in remaining:
                    group_b.append(child)
                    box_b = box_b.union(box)
                break
            # Pick the child with the strongest group preference.
            best_idx = 0
            best_diff = -1.0
            for idx, (_, box) in enumerate(remaining):
                diff = abs(box_a.enlargement(box) - box_b.enlargement(box))
                if diff > best_diff:
                    best_diff = diff
                    best_idx = idx
            child, box = remaining.pop(best_idx)
            grow_a = box_a.enlargement(box)
            grow_b = box_b.enlargement(box)
            pick_a = (
                grow_a < grow_b
                or (grow_a == grow_b and box_a.area() < box_b.area())
                or (grow_a == grow_b and box_a.area() == box_b.area()
                    and len(group_a) <= len(group_b))
            )
            if pick_a:
                group_a.append(child)
                box_a = box_a.union(box)
            else:
                group_b.append(child)
                box_b = box_b.union(box)

        sibling = _Node(is_leaf=node.is_leaf)
        node.children = []
        for child in group_a:
            node.adopt(child)
        for child in group_b:
            sibling.adopt(child)
        node.recompute()
        sibling.recompute()
        return sibling

    @staticmethod
    def _child_box(node: _Node, child: Any) -> MBR:
        return MBR.from_point(child.point) if node.is_leaf else child.mbr

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, kappa: int) -> RTreeEntry:
        """Remove the entry labelled ``kappa`` and rebalance."""
        entry = self._entries.pop(kappa, None)
        if entry is None:
            raise KeyNotFoundError(f"no entry with kappa={kappa}")
        leaf = entry._leaf
        leaf.children.remove(entry)
        entry._leaf = None
        self._condense(leaf)
        return entry

    def _condense(self, node: _Node) -> None:
        """Bottom-up condense: drop underfull nodes, reinsert orphans."""
        orphans: List[RTreeEntry] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.children) < self.min_entries:
                parent.children.remove(node)
                node.parent = None
                self._collect_entries(node, orphans)
            else:
                node.recompute()
            node = parent
        node.recompute()
        self._shrink_root()
        for orphan in orphans:
            # Reinsert through the normal path (preserves balance).
            leaf = self._choose_leaf(orphan.point)
            leaf.adopt(orphan)
            self._handle_overflow_and_adjust(leaf)

    def _shrink_root(self) -> None:
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        if not self._root.children and not self._root.is_leaf:
            self._root = _Node(is_leaf=True)

    @staticmethod
    def _collect_entries(node: _Node, out: List[RTreeEntry]) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                out.extend(current.children)
            else:
                stack.extend(current.children)

    # ------------------------------------------------------------------
    # Dominance reporting (depth-first, Figure 7a / Figure 8)
    # ------------------------------------------------------------------

    def report_dominated(self, q: Sequence[float]) -> List[RTreeEntry]:
        """Entries weakly dominated by ``q`` (non-destructive).

        Subtrees are pruned *before* descending: a child is pushed only
        when ``q`` falls inside its candidate region (Figure 7a), so a
        node whose box merely overlaps elsewhere never costs a visit.
        :attr:`last_report_visits` records the nodes expanded.
        """
        if len(q) != self.dim:
            raise DimensionMismatchError(self.dim, len(q))
        out: List[RTreeEntry] = []
        visits = 0
        root = self._root
        stack: List[_Node] = []
        if root.mbr is not None and root.mbr.may_contain_dominated(q):
            stack.append(root)
        while stack:
            node = stack.pop()
            mbr = node.mbr
            if mbr is None:
                continue
            visits += 1
            if mbr.fully_dominated_by(q):
                self._collect_entries(node, out)
                continue
            if node.is_leaf:
                out.extend(
                    entry
                    for entry in node.children
                    # Hot path: inlining the weak-dominance test here
                    # (rather than calling core.dominance per entry)
                    # measurably speeds up report_dominated.
                    if all(a <= b for a, b in zip(q, entry.point))  # lint: skip=REPRO002
                )
            else:
                for child in node.children:
                    child_mbr = child.mbr
                    if child_mbr is not None and child_mbr.may_contain_dominated(q):
                        stack.append(child)
        self.last_report_visits = visits
        return out

    def remove_dominated(self, q: Sequence[float]) -> List[RTreeEntry]:
        """Remove and return every entry weakly dominated by ``q``.

        This is Algorithm 1's ``D_{e_new}`` computation: discovered
        elements are unlinked immediately, bounding boxes shrink as the
        depth-first search returns (Figure 8), and the tree is
        rebalanced once afterwards.
        """
        if len(q) != self.dim:
            raise DimensionMismatchError(self.dim, len(q))
        removed: List[RTreeEntry] = []
        dirty: Set[int] = set()
        self._dfs_remove(self._root, q, removed, dirty)
        if not removed:
            return removed
        for entry in removed:
            del self._entries[entry.kappa]
            entry._leaf = None
        self._rebalance_after_bulk_delete(dirty)
        return removed

    def _dfs_remove(
        self,
        node: _Node,
        q: Sequence[float],
        removed: List[RTreeEntry],
        dirty: Set[int],
    ) -> bool:
        """Recursive removal; returns True if the subtree became empty.

        Nodes whose child list changed (and their ancestors) are added
        to ``dirty`` so the rebalance pass can skip untouched subtrees.
        """
        if node.mbr is None or not node.mbr.may_contain_dominated(q):
            return False
        if node.mbr.fully_dominated_by(q):
            # l-corner: harvest the whole subtree.
            self._collect_entries(node, removed)
            node.children = []
            node.recompute()
            dirty.add(id(node))
            return True
        if node.is_leaf:
            kept = []
            for entry in node.children:
                # Hot path: inlined weak-dominance test, as above.
                if all(a <= b for a, b in zip(q, entry.point)):  # lint: skip=REPRO002
                    removed.append(entry)
                else:
                    kept.append(entry)
            if len(kept) == len(node.children):
                return False
            node.children = kept
            node.recompute()
            dirty.add(id(node))
            return not kept
        survivors = []
        changed = False
        for child in node.children:
            emptied = self._dfs_remove(child, q, removed, dirty)
            if emptied:
                child.parent = None
                changed = True
            else:
                survivors.append(child)
        if not changed and not dirty & {id(c) for c in survivors}:
            return False
        node.children = survivors
        # Shrink on return (Figure 8) so ancestors prune with tight boxes.
        node.recompute()
        dirty.add(id(node))
        return not survivors

    def _rebalance_after_bulk_delete(self, dirty: Optional[Set[int]] = None) -> None:
        """Condense every underfull node left behind by a bulk delete.

        ``dirty`` (node ids touched by the delete) restricts the walk to
        the modified paths; ``None`` condenses the whole tree.
        """
        orphans: List[RTreeEntry] = []
        self._prune_underfull(self._root, orphans, is_root=True, dirty=dirty)
        self._shrink_root()
        for orphan in orphans:
            leaf = self._choose_leaf(orphan.point)
            leaf.adopt(orphan)
            self._handle_overflow_and_adjust(leaf)

    def _prune_underfull(
        self,
        node: _Node,
        orphans: List[RTreeEntry],
        is_root: bool,
        dirty: Optional[Set[int]] = None,
    ) -> bool:
        """Post-order prune; returns True if ``node`` should be detached."""
        if not node.is_leaf:
            survivors = []
            for child in node.children:
                if dirty is not None and id(child) not in dirty:
                    survivors.append(child)
                elif self._prune_underfull(child, orphans, is_root=False, dirty=dirty):
                    child.parent = None
                else:
                    survivors.append(child)
            node.children = survivors
        node.recompute()
        if is_root:
            return False
        if len(node.children) < self.min_entries:
            self._collect_entries(node, orphans)
            return True
        return False

    # ------------------------------------------------------------------
    # Best-first critical-dominator search (Figure 7b)
    # ------------------------------------------------------------------

    def max_kappa_dominator(
        self, q: Sequence[float], kappa_below: Optional[int] = None
    ) -> Optional[RTreeEntry]:
        """The entry with the largest ``kappa`` that weakly dominates ``q``.

        ``kappa_below``, when given, restricts the search to entries with
        ``kappa < kappa_below`` (used when the query point itself is
        already stored, as in the (n1,n2)-of-N maintenance).

        Returns ``None`` when no stored point dominates ``q``.
        """
        if len(q) != self.dim:
            raise DimensionMismatchError(self.dim, len(q))
        # Max-heap via negated priorities on the stdlib heap (this search
        # runs once per arrival — the C heap beats the indexed heap, and
        # no decrease-key is ever needed).  The counter breaks priority
        # ties so heapq never compares nodes/entries.
        heap: List[Tuple[int, int, Any]] = []
        counter = 0

        def push(item: Any, priority: int) -> None:
            nonlocal counter
            if kappa_below is not None and priority >= kappa_below:
                # Subtree may still contain smaller kappas; only prune
                # single entries, not nodes.
                if isinstance(item, RTreeEntry):
                    return
            heapq.heappush(heap, (-priority, counter, item))
            counter += 1

        if self._root.mbr is not None:
            push(self._root, self._root.max_kappa)

        while heap:
            _, _, item = heapq.heappop(heap)
            if isinstance(item, RTreeEntry):
                if kappa_below is not None and item.kappa >= kappa_below:
                    continue
                # Hot path: inlined weak-dominance test, as above.
                if all(a <= b for a, b in zip(item.point, q)):  # lint: skip=REPRO002
                    return item
                continue
            node: _Node = item
            if node.mbr is None or not node.mbr.may_contain_dominator(q):
                continue
            if node.mbr.fully_dominates(q):
                # r-corner: every point under this node dominates q.
                entry = self._descend_max_kappa(node, kappa_below)
                if entry is None:
                    continue
                if kappa_below is None:
                    # Unconstrained: the subtree maximum was this item's
                    # priority, so no other frontier item can beat it.
                    return entry
                # Constrained: the eligible maximum may be smaller than
                # the node's priority; let the frontier arbitrate.
                push(entry, entry.kappa)
                continue
            if node.is_leaf:
                for entry in node.children:
                    push(entry, entry.kappa)
            else:
                for child in node.children:
                    push(child, child.max_kappa)
        return None

    def top_kappa_dominators(self, q: Sequence[float], k: int) -> List[RTreeEntry]:
        """The ``k`` youngest entries weakly dominating ``q``, youngest
        first (fewer if fewer exist).

        Used by the windowed k-skyband engine, which needs an element's
        top-k older dominators rather than just the critical one.
        Implemented as ``k`` constrained best-first searches — ``k`` is
        small in practice, and each search prunes independently.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        found: List[RTreeEntry] = []
        bound: Optional[int] = None
        while len(found) < k:
            entry = self.max_kappa_dominator(q, kappa_below=bound)
            if entry is None:
                break
            found.append(entry)
            bound = entry.kappa
        return found

    def _descend_max_kappa(
        self, node: _Node, kappa_below: Optional[int]
    ) -> Optional[RTreeEntry]:
        """The max-kappa entry under ``node`` (respecting ``kappa_below``).

        When ``kappa_below`` filters out the subtree maximum we fall back
        to a linear scan of the subtree — only reachable when the caller
        constrains kappa, which the hot n-of-N path never does.
        """
        if kappa_below is None:
            while not node.is_leaf:
                node = max(node.children, key=lambda c: c.max_kappa)
            return max(node.children, key=lambda e: e.kappa)
        entries: List[RTreeEntry] = []
        self._collect_entries(node, entries)
        eligible = [e for e in entries if e.kappa < kappa_below]
        if not eligible:
            return None
        return max(eligible, key=lambda e: e.kappa)

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structural invariants over the whole tree.

        Raises
        ------
        StructureCorruptionError
            On the first violated property (survives ``python -O``).
        """
        if self._root.parent is not None:
            raise corruption("rtree", "rtree-links", "root has a parent")
        depths: Set[int] = set()
        count = self._check_node(self._root, depth=1, depths=depths, is_root=True)
        if count != len(self._entries):
            raise corruption(
                "rtree",
                "rtree-count",
                f"entry count mismatch: tree has {count}, index has "
                f"{len(self._entries)}",
            )
        if len(depths) > 1:
            raise corruption(
                "rtree", "rtree-depth", f"leaves at different depths: {depths}"
            )
        for kappa, entry in self._entries.items():
            if entry.kappa != kappa:
                raise corruption(
                    "rtree",
                    "rtree-links",
                    f"index key {kappa} holds entry labelled {entry.kappa}",
                    kappas=(kappa,),
                )
            if entry._leaf is None or entry not in entry._leaf.children:
                raise corruption(
                    "rtree",
                    "rtree-links",
                    f"stale leaf link for kappa={kappa}",
                    kappas=(kappa,),
                )

    def _check_node(
        self, node: _Node, depth: int, depths: Set[int], is_root: bool
    ) -> int:
        if not is_root and len(node.children) < self.min_entries:
            raise corruption("rtree", "rtree-fanout", "underfull node")
        if len(node.children) > self.max_entries:
            raise corruption("rtree", "rtree-fanout", "overfull node")
        if node.is_leaf:
            depths.add(depth)
            if node.children:
                expected = MBR.union_of(
                    MBR.from_point(e.point) for e in node.children
                )
                if node.mbr != expected:
                    raise corruption(
                        "rtree", "rtree-mbr", "leaf MBR not tight"
                    )
                if node.max_kappa != max(e.kappa for e in node.children):
                    raise corruption(
                        "rtree",
                        "rtree-augmentation",
                        f"leaf max-kappa {node.max_kappa} does not match "
                        f"its entries",
                    )
                for entry in node.children:
                    if entry._leaf is not node:
                        raise corruption(
                            "rtree",
                            "rtree-links",
                            f"entry kappa={entry.kappa} does not point back "
                            f"at its leaf",
                            kappas=(entry.kappa,),
                        )
            elif not (is_root and node.mbr is None):
                raise corruption(
                    "rtree", "rtree-mbr", "empty non-root leaf with an MBR"
                )
            return len(node.children)
        if not node.children:
            raise corruption(
                "rtree", "rtree-fanout", "internal node with no children"
            )
        total = 0
        for child in node.children:
            if child.parent is not node:
                raise corruption("rtree", "rtree-links", "broken parent link")
            total += self._check_node(child, depth + 1, depths, is_root=False)
        expected = MBR.union_of(c.mbr for c in node.children)
        if node.mbr != expected:
            raise corruption("rtree", "rtree-mbr", "internal MBR not tight")
        if node.max_kappa != max(c.max_kappa for c in node.children):
            raise corruption(
                "rtree",
                "rtree-augmentation",
                f"internal max-kappa {node.max_kappa} does not match "
                f"its children",
            )
        return total
