"""Tests for the linear-scan ablation engine.

The variant must be *observationally identical* to the R-tree engine —
same queries, same outcomes, same dominance graph — since only the
maintenance-search substrate differs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NofNSkyline
from repro.core.nofn_linear import LinearScanNofNSkyline

from tests.conftest import window_skyline_kappas

coord = st.integers(0, 6).map(lambda v: v / 6)


def streams(max_dim=3, max_len=50):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d).map(tuple), min_size=1, max_size=max_len
        )
    )


class TestObservationalEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(streams(), st.integers(1, 12))
    def test_same_queries_and_graph(self, history, capacity):
        rtree_engine = NofNSkyline(dim=len(history[0]), capacity=capacity)
        linear_engine = LinearScanNofNSkyline(
            dim=len(history[0]), capacity=capacity
        )
        for point in history:
            a = rtree_engine.append(point)
            b = linear_engine.append(point)
            assert a.parent_kappa == b.parent_kappa
            assert sorted(e.kappa for e in a.dominated_removed) == (
                sorted(e.kappa for e in b.dominated_removed)
            )
            assert [e.kappa for e in a.expired] == [
                e.kappa for e in b.expired
            ]
        assert rtree_engine.dominance_graph_edges() == (
            linear_engine.dominance_graph_edges()
        )
        for n in range(1, capacity + 1):
            assert [e.kappa for e in rtree_engine.query(n)] == [
                e.kappa for e in linear_engine.query(n)
            ]

    @settings(max_examples=30, deadline=None)
    @given(streams(max_len=40), st.integers(1, 10))
    def test_matches_oracle_directly(self, history, capacity):
        engine = LinearScanNofNSkyline(dim=len(history[0]), capacity=capacity)
        for point in history:
            engine.append(point)
            engine.check_invariants()
        for n in (1, capacity):
            assert [e.kappa for e in engine.query(n)] == (
                window_skyline_kappas(history, min(n, len(history)))
            )


class TestScanIndexSurface:
    def test_behaves_like_engine_drop_in(self):
        engine = LinearScanNofNSkyline(dim=2, capacity=4)
        engine.append((0.5, 0.5))
        engine.append((0.1, 0.1))
        assert engine.rn_size == 1
        assert [e.kappa for e in engine.skyline()] == [2]

    def test_continuous_manager_composes(self):
        from repro import ContinuousQueryManager

        engine = LinearScanNofNSkyline(dim=2, capacity=5)
        manager = ContinuousQueryManager(engine)
        handle = manager.register(3)
        for point in [(0.5, 0.5), (0.2, 0.8), (0.8, 0.2), (0.4, 0.4)]:
            manager.append(point)
            assert handle.result_kappas() == [
                e.kappa for e in engine.query(3)
            ]
