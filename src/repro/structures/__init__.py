"""Data-structure substrates for the sliding-window skyline engines.

Everything here is self-contained and paper-faithful:

* :mod:`repro.structures.rtree` — in-memory R-tree with the paper's
  depth-first dominance reporting and best-first dominator search (the
  reference structure);
* :mod:`repro.structures.dense_index` — the same search surface over
  one dense kappa-ordered matrix, the dominance index every engine
  runs, whose rows also carry Theorem 3's intervals and answer the
  stabbing query;
* :mod:`repro.structures.mbr` — bounding-box algebra incl. Figure 7's
  candidate-region tests.
"""

from repro.structures.dense_index import DenseEntry, DenseIndex
from repro.structures.mbr import MBR
from repro.structures.rtree import RTree, RTreeEntry

__all__ = [
    "DenseEntry",
    "DenseIndex",
    "MBR",
    "RTree",
    "RTreeEntry",
]
