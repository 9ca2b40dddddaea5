"""A red-black tree with augmentation hooks.

The balanced-tree substrate of the fully dynamic 2-d skyline baseline
(:class:`repro.baselines.dynamic2d.Dynamic2DSkyline`): a classic CLRS
red-black tree storing ``(key, value)`` pairs with

* ``O(log n)`` insert / delete / lookup,
* ordered iteration, minimum and successor navigation, and
* an **augmentation hook**: a callable invoked bottom-up on every node
  whose subtree changed, enabling derived structures (the baseline's
  subtree min-y) to maintain per-subtree aggregates through rotations.

Keys must be mutually comparable and unique; callers that need
duplicate logical keys (the baseline does) disambiguate with a
tie-breaker inside the key tuple.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.exceptions import (
    DuplicateKeyError,
    EmptyStructureError,
    KeyNotFoundError,
    corruption,
)

K = TypeVar("K")
V = TypeVar("V")

RED = True
BLACK = False


class RBNode(Generic[K, V]):
    """A node of :class:`RedBlackTree`.

    The ``aggregate`` slot is free for augmentations; the tree core
    never touches it except through the user-supplied hook.
    """

    __slots__ = ("key", "value", "color", "left", "right", "parent", "aggregate")

    def __init__(self, key: K, value: V) -> None:
        self.key = key
        self.value = value
        self.color = RED
        self.left: "RBNode[K, V]" = NIL  # type: ignore[assignment]
        self.right: "RBNode[K, V]" = NIL  # type: ignore[assignment]
        self.parent: "RBNode[K, V]" = NIL  # type: ignore[assignment]
        self.aggregate = None

    def is_nil(self) -> bool:
        """Whether this node is the shared sentinel."""
        return self is NIL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        color = "R" if self.color is RED else "B"
        return f"RBNode({self.key!r}, {color})"


class _NilNode(RBNode):
    """The shared sentinel leaf: black, self-parented, key-less."""

    __slots__ = ()

    def __init__(self) -> None:  # noqa: D401 - special construction
        # Bypass RBNode.__init__, which refers to NIL before it exists.
        self.key = None
        self.value = None
        self.color = BLACK
        self.left = self
        self.right = self
        self.parent = self
        self.aggregate = None

    def is_nil(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NIL"


#: Shared sentinel used as every leaf and as the root's parent.
NIL: RBNode = _NilNode()

AugmentFn = Callable[[RBNode], None]


class RedBlackTree(Generic[K, V]):
    """An ordered map on comparable keys, balanced as a red-black tree.

    Parameters
    ----------
    augment:
        Optional hook ``augment(node)`` recomputing ``node.aggregate``
        from ``node`` and its (possibly NIL) children.  It is invoked on
        every node whose subtree composition changed, children first.
    """

    def __init__(self, augment: Optional[AugmentFn] = None) -> None:
        self._root: RBNode[K, V] = NIL
        self._size = 0
        self._augment = augment

    # ------------------------------------------------------------------
    # Read operations
    # ------------------------------------------------------------------

    @property
    def root(self) -> RBNode[K, V]:
        """The root node (the NIL sentinel when the tree is empty)."""
        return self._root

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: K) -> bool:
        return not self.find(key).is_nil()

    def find(self, key: K) -> RBNode[K, V]:
        """Return the node holding ``key``, or the NIL sentinel."""
        node = self._root
        while not node.is_nil():
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return node

    def min_node(self) -> RBNode[K, V]:
        """The node with the smallest key.

        Raises
        ------
        EmptyStructureError
            If the tree is empty.
        """
        if self._root.is_nil():
            raise EmptyStructureError("min of an empty tree")
        return self._subtree_min(self._root)

    def max_node(self) -> RBNode[K, V]:
        """The node with the largest key."""
        if self._root.is_nil():
            raise EmptyStructureError("max of an empty tree")
        node = self._root
        while not node.right.is_nil():
            node = node.right
        return node

    def successor(self, node: RBNode[K, V]) -> RBNode[K, V]:
        """In-order successor of ``node`` (NIL if none)."""
        if not node.right.is_nil():
            return self._subtree_min(node.right)
        parent = node.parent
        while not parent.is_nil() and node is parent.right:
            node = parent
            parent = parent.parent
        return parent

    def items(self) -> Iterator[Tuple[K, V]]:
        """Yield ``(key, value)`` pairs in increasing key order."""
        stack: List[RBNode[K, V]] = []
        node = self._root
        while stack or not node.is_nil():
            while not node.is_nil():
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[K]:
        """Yield keys in increasing order."""
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key: K, value: V) -> RBNode[K, V]:
        """Insert ``(key, value)``; return the new node.

        Raises
        ------
        DuplicateKeyError
            If ``key`` is already present.
        """
        parent: RBNode[K, V] = NIL
        cursor = self._root
        while not cursor.is_nil():
            parent = cursor
            if key == cursor.key:
                raise DuplicateKeyError(f"duplicate key: {key!r}")
            cursor = cursor.left if key < cursor.key else cursor.right

        node: RBNode[K, V] = RBNode(key, value)
        node.parent = parent
        if parent.is_nil():
            self._root = node
        elif key < parent.key:
            parent.left = node
        else:
            parent.right = node

        self._size += 1
        self._refresh_upwards(node)
        self._insert_fixup(node)
        return node

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    def delete(self, key: K) -> V:
        """Remove ``key``; return its value.

        Raises
        ------
        KeyNotFoundError
            If ``key`` is absent.
        """
        node = self.find(key)
        if node.is_nil():
            raise KeyNotFoundError(f"key not in tree: {key!r}")
        value = node.value
        self.delete_node(node)
        return value

    def delete_node(self, node: RBNode[K, V]) -> None:
        """Unlink ``node`` (which must belong to this tree)."""
        removed_color = node.color
        if node.left.is_nil():
            fixup_start = node.right
            refresh_from = node.parent
            self._transplant(node, node.right)
        elif node.right.is_nil():
            fixup_start = node.left
            refresh_from = node.parent
            self._transplant(node, node.left)
        else:
            # Two children: splice in the in-order successor.
            successor = self._subtree_min(node.right)
            removed_color = successor.color
            fixup_start = successor.right
            if successor.parent is node:
                refresh_from = successor
                # fixup_start's parent may be NIL; point it at successor
                # so the fixup can walk upward correctly.
                fixup_start.parent = successor
            else:
                refresh_from = successor.parent
                self._transplant(successor, successor.right)
                successor.right = node.right
                successor.right.parent = successor
            self._transplant(node, successor)
            successor.left = node.left
            successor.left.parent = successor
            successor.color = node.color

        self._size -= 1
        if not refresh_from.is_nil():
            self._refresh_upwards(refresh_from)
        if removed_color is BLACK:
            self._delete_fixup(fixup_start)
        # Detach the removed node defensively.
        node.left = node.right = node.parent = NIL

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the red-black and BST properties over the whole tree.

        Raises
        ------
        StructureCorruptionError
            On the first violated property.  A real exception — not an
            ``assert`` — so the check survives ``python -O``.
        """
        if self._root.color is not BLACK:
            raise corruption("rbtree", "rbtree-color", "root must be black")
        if NIL.color is not BLACK:
            raise corruption(
                "rbtree", "rbtree-color", "sentinel must stay black"
            )
        count = self._check_subtree(self._root, None, None)[1]
        if count != self._size:
            raise corruption(
                "rbtree",
                "rbtree-size",
                f"size mismatch: counted {count}, recorded {self._size}",
            )

    def _check_subtree(
        self, node: RBNode[K, V], lo: Optional[K], hi: Optional[K]
    ) -> Tuple[int, int]:
        """Return (black height, node count) of ``node``'s subtree."""
        if node.is_nil():
            return 1, 0
        if lo is not None and not node.key > lo:
            raise corruption(
                "rbtree", "rbtree-order", f"BST order violated at {node.key!r}"
            )
        if hi is not None and not node.key < hi:
            raise corruption(
                "rbtree", "rbtree-order", f"BST order violated at {node.key!r}"
            )
        if node.color is RED and (
            node.left.color is not BLACK or node.right.color is not BLACK
        ):
            raise corruption(
                "rbtree",
                "rbtree-color",
                f"red node {node.key!r} has a red child",
            )
        lh, lc = self._check_subtree(node.left, lo, node.key)
        rh, rc = self._check_subtree(node.right, node.key, hi)
        if lh != rh:
            raise corruption(
                "rbtree",
                "rbtree-black-height",
                f"black-height mismatch under {node.key!r}",
            )
        return lh + (1 if node.color is BLACK else 0), lc + rc + 1

    # ------------------------------------------------------------------
    # Internal mechanics
    # ------------------------------------------------------------------

    @staticmethod
    def _subtree_min(node: RBNode[K, V]) -> RBNode[K, V]:
        while not node.left.is_nil():
            node = node.left
        return node

    def _refresh(self, node: RBNode[K, V]) -> None:
        if self._augment is not None and not node.is_nil():
            self._augment(node)

    def _refresh_upwards(self, node: RBNode[K, V]) -> None:
        while not node.is_nil():
            self._refresh(node)
            node = node.parent

    def _rotate_left(self, node: RBNode[K, V]) -> None:
        pivot = node.right
        node.right = pivot.left
        if not pivot.left.is_nil():
            pivot.left.parent = node
        pivot.parent = node.parent
        if node.parent.is_nil():
            self._root = pivot
        elif node is node.parent.left:
            node.parent.left = pivot
        else:
            node.parent.right = pivot
        pivot.left = node
        node.parent = pivot
        # node is now pivot's child: refresh bottom-up.
        self._refresh(node)
        self._refresh(pivot)

    def _rotate_right(self, node: RBNode[K, V]) -> None:
        pivot = node.left
        node.left = pivot.right
        if not pivot.right.is_nil():
            pivot.right.parent = node
        pivot.parent = node.parent
        if node.parent.is_nil():
            self._root = pivot
        elif node is node.parent.right:
            node.parent.right = pivot
        else:
            node.parent.left = pivot
        pivot.right = node
        node.parent = pivot
        self._refresh(node)
        self._refresh(pivot)

    def _transplant(self, old: RBNode[K, V], new: RBNode[K, V]) -> None:
        if old.parent.is_nil():
            self._root = new
        elif old is old.parent.left:
            old.parent.left = new
        else:
            old.parent.right = new
        new.parent = old.parent

    def _insert_fixup(self, node: RBNode[K, V]) -> None:
        while node.parent.color is RED:
            grand = node.parent.parent
            if node.parent is grand.left:
                uncle = grand.right
                if uncle.color is RED:
                    node.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is node.parent.right:
                        node = node.parent
                        self._rotate_left(node)
                    node.parent.color = BLACK
                    grand.color = RED
                    self._rotate_right(grand)
            else:
                uncle = grand.left
                if uncle.color is RED:
                    node.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is node.parent.left:
                        node = node.parent
                        self._rotate_right(node)
                    node.parent.color = BLACK
                    grand.color = RED
                    self._rotate_left(grand)
        self._root.color = BLACK

    def _delete_fixup(self, node: RBNode[K, V]) -> None:
        while node is not self._root and node.color is BLACK:
            if node is node.parent.left:
                sibling = node.parent.right
                if sibling.color is RED:
                    sibling.color = BLACK
                    node.parent.color = RED
                    self._rotate_left(node.parent)
                    sibling = node.parent.right
                if sibling.left.color is BLACK and sibling.right.color is BLACK:
                    sibling.color = RED
                    node = node.parent
                else:
                    if sibling.right.color is BLACK:
                        sibling.left.color = BLACK
                        sibling.color = RED
                        self._rotate_right(sibling)
                        sibling = node.parent.right
                    sibling.color = node.parent.color
                    node.parent.color = BLACK
                    sibling.right.color = BLACK
                    self._rotate_left(node.parent)
                    node = self._root
            else:
                sibling = node.parent.left
                if sibling.color is RED:
                    sibling.color = BLACK
                    node.parent.color = RED
                    self._rotate_right(node.parent)
                    sibling = node.parent.left
                if sibling.right.color is BLACK and sibling.left.color is BLACK:
                    sibling.color = RED
                    node = node.parent
                else:
                    if sibling.left.color is BLACK:
                        sibling.right.color = BLACK
                        sibling.color = RED
                        self._rotate_left(sibling)
                        sibling = node.parent.left
                    sibling.color = node.parent.color
                    node.parent.color = BLACK
                    sibling.left.color = BLACK
                    self._rotate_right(node.parent)
                    node = self._root
        node.color = BLACK
        # The sentinel's parent pointer may have been borrowed during the
        # fixup; restore it so later operations see a clean NIL.
        NIL.parent = NIL
        NIL.left = NIL
        NIL.right = NIL
