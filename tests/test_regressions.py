"""Regression tests for bugs found (and fixed) while building this library.

Each test pins the exact scenario that once failed, so the suite
documents the failure modes as well as guarding against their return.
"""

from __future__ import annotations

import pytest

from repro import (
    ContinuousQueryManager,
    KSkybandEngine,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.structures.rtree import RTree


class TestContinuousUnfullWindowRoot:
    """Algorithm 2 line 6 reads ``parent < M - n + 1``; early in the
    stream the right side is non-positive while roots carry parent 0,
    so a literal reading drops the very first result element."""

    def test_first_arrival_enters_unfull_window(self):
        engine = NofNSkyline(dim=2, capacity=20)
        manager = ContinuousQueryManager(engine)
        handle = manager.register(15)  # window far from full
        manager.append((0.5, 0.5))
        assert handle.result_kappas() == [1]

    def test_non_root_stays_out_while_window_unfull(self):
        engine = NofNSkyline(dim=2, capacity=20)
        manager = ContinuousQueryManager(engine)
        handle = manager.register(15)
        manager.append((0.1, 0.1))
        manager.append((0.5, 0.5))  # dominated: parent inside window
        assert handle.result_kappas() == [1]


class TestKSkybandSameArrivalPruning:
    """The newcomer's top-k older-dominator search must run before the
    arrival's own pruning: an element pruned *by this arrival* counts
    the newcomer among its k younger dominators and so witnesses only
    k-1 older dominators — the pure duplicate stream exposes this."""

    def test_triplicate_stream_k2(self):
        engine = KSkybandEngine(dim=2, capacity=10, k=2)
        for _ in range(3):
            engine.append((0.5, 0.5))
        # Copies 2 and 3 have < 2 younger duplicates; copy 1 has 2.
        assert [e.kappa for e in engine.skyband()] == [2, 3]
        # The full window of 3 must NOT report copy 1 (it has two
        # younger duplicates inside any window containing it).
        assert [e.kappa for e in engine.query(3)] == [2, 3]

    def test_duplicate_then_shrunk_window(self):
        engine = KSkybandEngine(dim=2, capacity=10, k=2)
        for _ in range(4):
            engine.append((0.3, 0.3))
        # Window of 2: only the last two copies exist; both qualify.
        assert [e.kappa for e in engine.query(2)] == [3, 4]


class TestConstrainedRCorner:
    """Under a ``kappa_below`` constraint the r-corner shortcut of the
    best-first search may surface a *sub-optimal* subtree entry; it
    must be fed back to the frontier, not returned outright."""

    def test_young_cluster_hides_older_winner(self):
        tree = RTree(2, max_entries=4, min_entries=2)
        # A tight cluster of very young dominators (high kappas) whose
        # box r-corners immediately...
        for i in range(8):
            tree.insert((0.1 + i * 0.001, 0.1 + i * 0.001), kappa=100 + i)
        # ...plus an older dominator elsewhere.
        tree.insert((0.05, 0.3), kappa=50)
        found = tree.max_kappa_dominator((0.5, 0.5), kappa_below=100)
        assert found is not None and found.kappa == 50


class TestLabelSetCheckOrder:
    """Re-appending the current tail label must fail as an ordering
    violation (ValueError), not as a duplicate."""

    def test_equal_label_is_an_ordering_error(self):
        from repro.structures.labelset import LabelSet

        labels = LabelSet()
        labels.append(5, None)
        with pytest.raises(ValueError, match="increasing"):
            labels.append(5, None)


class TestBNLWindowEvictionSlice:
    """BNL's window-eviction loop once mis-sliced the untouched suffix
    after a domination hit; this instance exercises that exact path:
    a candidate dominated by a mid-window entry after earlier entries
    were evicted in the same scan."""

    def test_eviction_then_domination_in_one_scan(self):
        from repro.baselines import bnl_skyline, naive_skyline

        points = [
            (0.9, 0.9),   # enters window, evicted later
            (0.8, 0.1),   # enters window
            (0.5, 0.5),   # evicts (0.9,0.9), stays
            (0.6, 0.6),   # dominated by (0.5,0.5) after the eviction
            (0.1, 0.8),
        ]
        assert bnl_skyline(points, window_size=3) == naive_skyline(points)


class TestTimeWindowBoundaries:
    """The closed time window [now - tau, now] vs half-open intervals:
    both boundary cases must behave exactly as documented."""

    def test_element_exactly_at_boundary_is_included(self):
        engine = TimeWindowSkyline(dim=1, horizon=10.0)
        engine.append((5.0,), timestamp=2.0)
        engine.append((9.0,), timestamp=6.0)
        # tau = 4: window [2, 6] includes the t=2 element.
        assert [e.kappa for e in engine.query_last(4.0)] == [1]

    def test_parent_exactly_at_boundary_excludes_child(self):
        engine = TimeWindowSkyline(dim=1, horizon=10.0)
        engine.append((1.0,), timestamp=2.0)   # dominator
        engine.append((5.0,), timestamp=4.0)   # its child
        engine.append((9.0,), timestamp=6.0)
        # tau = 4: the dominator sits exactly on the boundary, is in
        # the window, and therefore keeps suppressing its child.
        got = [e.kappa for e in engine.query_last(4.0)]
        assert 2 not in got and 1 in got


class TestStabPointClamping:
    """Queries for more elements than have arrived clamp the stab point
    to 1 instead of stabbing a non-positive coordinate (where half-open
    root intervals (0, kappa] would match nothing)."""

    def test_oversized_n_returns_full_skyline(self):
        engine = NofNSkyline(dim=2, capacity=100)
        engine.append((0.5, 0.5))
        engine.append((0.2, 0.8))
        assert [e.kappa for e in engine.query(100)] == [1, 2]

    def test_n1n2_slice_before_stream_start(self):
        from repro import N1N2Skyline

        engine = N1N2Skyline(dim=1, capacity=10)
        engine.append((1.0,))
        # The requested slice ends before the first element existed.
        assert engine.query(3, 7) == []


class TestBBSSubnormalTieBreak:
    """BBS orders its heap by mindist = sum of MBR corner coordinates.
    Floating-point addition can round two *different* corners to the
    same sum (e.g. ``1.0 + 1.18e-38 == 1.0``), letting a dominated
    point pop before its dominator and leak into the result.  The heap
    priority therefore tie-breaks on the corner vector itself."""

    POINTS = [(1.0, 1.1754943508222875e-38), (1.0, 0.0)]

    def test_subnormal_coordinate_does_not_leak(self):
        from repro.baselines.bbs import bbs_skyline
        from repro.baselines.naive import naive_skyline

        assert bbs_skyline(self.POINTS) == naive_skyline(self.POINTS) == [1]

    def test_reversed_order_too(self):
        from repro.baselines.bbs import bbs_skyline
        from repro.baselines.naive import naive_skyline

        points = list(reversed(self.POINTS))
        assert bbs_skyline(points) == naive_skyline(points) == [0]


class TestTimeWindowQueryScanSemantics:
    """``query_scan(n)`` inherited from the count-based engine treated
    ``n`` as a *count* while the time-based engine's labels are
    *timestamps* — the scan cut the window at ``M - n + 1`` elements
    and silently answered the wrong question.  It must refuse, like
    ``query(n)`` already did, and point at ``query_last``."""

    def test_query_scan_refuses(self):
        from repro.exceptions import InvalidWindowError

        engine = TimeWindowSkyline(dim=2, horizon=10.0)
        engine.append((0.5, 0.5), 1.0)
        with pytest.raises(InvalidWindowError):
            engine.query_scan(3)

    def test_query_last_still_works(self):
        engine = TimeWindowSkyline(dim=2, horizon=10.0)
        engine.append((0.5, 0.5), 1.0)
        assert [e.kappa for e in engine.query_last(5.0)] == [1]


class TestNilNodeSlots:
    """``_NilNode`` once lacked ``__slots__``, so every red-black tree
    paid for a sentinel ``__dict__`` and — worse — attribute typos on
    NIL were silently absorbed instead of raising."""

    def test_nil_has_no_dict(self):
        from repro.structures.rbtree import NIL

        assert not hasattr(NIL, "__dict__")
        with pytest.raises(AttributeError):
            NIL.aggregte = 1.0  # typo'd attribute must not be absorbed


class TestContinuousHandleSlots:
    """:class:`ContinuousQueryHandle` is allocated per registered query
    and mutated on every trigger; it now declares ``__slots__`` so a
    manager with thousands of queries does not pay a dict per handle."""

    def test_handle_has_no_dict(self):
        from repro import ContinuousQueryManager, NofNSkyline

        manager = ContinuousQueryManager(NofNSkyline(dim=2, capacity=8))
        handle = manager.register(4)
        assert not hasattr(handle, "__dict__")
