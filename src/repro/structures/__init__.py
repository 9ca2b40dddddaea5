"""Data-structure substrates for the sliding-window skyline engines.

Everything here is self-contained and paper-faithful:

* :mod:`repro.structures.interval_tree` — dynamic interval set answering
  stabbing queries over flat slot arrays;
* :mod:`repro.structures.rtree` — in-memory R-tree with the paper's
  depth-first dominance reporting and best-first dominator search (the
  reference structure);
* :mod:`repro.structures.dense_index` — the same search surface over
  one dense kappa-ordered matrix, the dominance index every engine
  runs;
* :mod:`repro.structures.mbr` — bounding-box algebra incl. Figure 7's
  candidate-region tests.
"""

from repro.structures.dense_index import DenseEntry, DenseIndex
from repro.structures.interval_tree import Interval, IntervalHandle, IntervalTree
from repro.structures.mbr import MBR
from repro.structures.rtree import RTree, RTreeEntry

__all__ = [
    "DenseEntry",
    "DenseIndex",
    "Interval",
    "IntervalHandle",
    "IntervalTree",
    "MBR",
    "RTree",
    "RTreeEntry",
]
