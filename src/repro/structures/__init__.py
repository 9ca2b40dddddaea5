"""Data-structure substrates for the sliding-window skyline engines.

Everything here is self-contained and paper-faithful:

* :mod:`repro.structures.rbtree` — augmentable red-black tree;
* :mod:`repro.structures.interval_tree` — dynamic stabbing-query tree;
* :mod:`repro.structures.rtree` — in-memory R-tree with the paper's
  depth-first dominance reporting and best-first dominator search (the
  reference structure);
* :mod:`repro.structures.rtree_soa` — struct-of-arrays rebuild of the
  same search surface (pooled NumPy matrices, blocks as index ranges),
  the dominance index every engine runs;
* :mod:`repro.structures.heap` — indexed min/max heaps (trigger lists);
* :mod:`repro.structures.mbr` — bounding-box algebra incl. Figure 7's
  candidate-region tests;
* :mod:`repro.structures.labelset` — the ordered label set of Figure 6.
"""

from repro.structures.heap import IndexedHeap, MaxIndexedHeap, MinIndexedHeap
from repro.structures.interval_tree import Interval, IntervalHandle, IntervalTree
from repro.structures.labelset import LabelSet
from repro.structures.mbr import MBR
from repro.structures.rbtree import RedBlackTree
from repro.structures.rtree import RTree, RTreeEntry
from repro.structures.rtree_soa import SoAEntry, SoARTree

__all__ = [
    "IndexedHeap",
    "MaxIndexedHeap",
    "MinIndexedHeap",
    "Interval",
    "IntervalHandle",
    "IntervalTree",
    "LabelSet",
    "MBR",
    "RedBlackTree",
    "RTree",
    "RTreeEntry",
    "SoAEntry",
    "SoARTree",
]
