"""Baseline skyline algorithms.

* :func:`~repro.baselines.klp.klp_skyline` — Kung-Luccio-Preparata
  divide and conquer, the paper's benchmark algorithm (section 5);
* :func:`~repro.baselines.bnl.bnl_skyline` — block-nested-loop [4];
* :func:`~repro.baselines.sfs.sfs_skyline` — sort-filter-skyline [6];
* :func:`~repro.baselines.naive.naive_skyline` — quadratic oracle used
  by the test suite.

All of them take a sequence of points and return the ascending indices
of the skyline members under strict Pareto dominance (min-skyline), so
they are interchangeable and cross-checkable.
"""

from repro.baselines.bbs import bbs_progressive, bbs_skyline
from repro.baselines.bnl import BNLStats, bnl_skyline
from repro.baselines.klp import klp_skyline
from repro.baselines.naive import naive_skyline, naive_skyline_youngest
from repro.baselines.sfs import SFSStats, sfs_skyline
from repro.baselines.skyband import k_skyband, k_skyband_sorted

__all__ = [
    "BNLStats",
    "SFSStats",
    "bbs_progressive",
    "bbs_skyline",
    "bnl_skyline",
    "k_skyband",
    "k_skyband_sorted",
    "klp_skyline",
    "naive_skyline",
    "naive_skyline_youngest",
    "sfs_skyline",
]
