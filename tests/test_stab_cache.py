"""Tests for the versioned stab cache (the query fast path).

Covers the cache in isolation (memoization, versioned invalidation,
ordered answers) and through the engines: the property test
required by the issue interleaves ``append`` / ``append_many`` /
expiry and checks every cached answer against the independent
``query_scan`` implementation, and that version bumps track interval
changes exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import DEFAULT_MAX_MEMO, StabCache
from repro.core.continuous import ContinuousQueryManager
from repro.core.nofn import NofNSkyline
from repro.core.skyband import KSkybandEngine
from repro.core.timewindow import TimeWindowSkyline
from repro.structures.interval_tree import IntervalTree


class TestStabCacheUnit:
    def test_matches_tree_stab(self):
        tree = IntervalTree()
        tree.insert(0, 3, "c")
        tree.insert(0, 4, "e")
        tree.insert(3, 7, "h")
        tree.insert(4, 5, "f")
        tree.insert(4, 6, "g")
        cache = StabCache(tree)
        for t in (0, 1, 2, 3.5, 5, 6, 7, 8):
            assert sorted(cache.stab(t)) == sorted(tree.stab(t))

    def test_memo_hit_and_miss_counters(self):
        tree = IntervalTree()
        tree.insert(0, 5, "a")
        tree.insert(3, 8, "b")
        cache = StabCache(tree)
        assert cache.stab(2) == ["a"]
        assert (cache.hits, cache.misses, cache.rebuilds) == (0, 1, 1)
        assert cache.stab(2) == ["a"]
        assert (cache.hits, cache.misses, cache.rebuilds) == (1, 1, 1)
        assert sorted(cache.stab(4)) == ["a", "b"]  # new span: a miss
        assert (cache.hits, cache.misses, cache.rebuilds) == (1, 2, 1)

    def test_equivalent_stab_points_share_one_entry(self):
        """Answers are constant between consecutive endpoints, so
        distinct stab points inside one elementary span are memo hits."""
        tree = IntervalTree()
        tree.insert(0, 10, "a")
        tree.insert(5, 12, "b")
        cache = StabCache(tree)
        assert cache.stab(6) == ["a", "b"]
        for t in (5.5, 7, 8.25, 10):  # all inside the span (5, 10]
            assert cache.stab(t) == ["a", "b"]
        assert cache.misses == 1 and cache.hits == 4
        assert cache.stats()["memo_size"] == 1

    def test_write_invalidates_exactly(self):
        tree = IntervalTree()
        h = tree.insert(0, 5, "a")
        cache = StabCache(tree)
        cache.stab(3)
        assert cache.is_fresh()
        tree.insert(1, 6, "b")
        assert not cache.is_fresh()
        assert sorted(cache.stab(3)) == ["a", "b"]
        assert cache.rebuilds == 2
        tree.remove(h)
        assert cache.stab(3) == ["b"]
        assert cache.rebuilds == 3
        # Reads between writes reuse the snapshot and memo.
        assert cache.stab(3) == ["b"]
        assert cache.rebuilds == 3 and cache.hits == 1

    def test_returns_fresh_list_per_call(self):
        tree = IntervalTree()
        tree.insert(0, 5, "a")
        cache = StabCache(tree)
        first = cache.stab(3)
        first.append("mutated")
        assert cache.stab(3) == ["a"]

    def test_memo_capacity_clears_table(self):
        tree = IntervalTree()
        for i in range(10):
            tree.insert(i, i + 1, i)
        cache = StabCache(tree, max_memo=4)
        for t in (0.5, 1.5, 2.5, 3.5):  # four distinct spans
            assert cache.stab(t) == [int(t)]
        assert cache.stats()["memo_size"] == 4
        cache.stab(4.5)  # table full: cleared, then the new span stored
        assert cache.stats()["memo_size"] == 1
        assert cache.stab(4.5) == [4]

    def test_ordered_answers_ascend_by_high(self):
        tree = IntervalTree()
        tree.insert(0, 9, "b")
        tree.insert(1, 7, "a")
        tree.insert(2, 8, "c")
        cache = StabCache(tree)
        assert cache.stab(5) == ["a", "c", "b"]  # not slot (insertion) order
        assert cache.stab(5) == ["a", "c", "b"]  # the memo hit too

    def test_max_memo_validation(self):
        with pytest.raises(ValueError):
            StabCache(IntervalTree(), max_memo=0)

    def test_invalidate_forces_rebuild(self):
        tree = IntervalTree()
        tree.insert(0, 5, "a")
        cache = StabCache(tree)
        cache.stab(3)
        cache.invalidate()
        assert not cache.is_fresh()
        assert cache.stab(3) == ["a"]
        assert cache.rebuilds == 2

    def test_stats_shape(self):
        cache = StabCache(IntervalTree())
        stats = cache.stats()
        assert set(stats) == {
            "hits", "misses", "rebuilds", "memo_size", "snapshot_size"
        }
        assert DEFAULT_MAX_MEMO >= 1

    def test_empty_tree(self):
        cache = StabCache(IntervalTree())
        assert cache.stab(1) == []
        assert cache.stats()["snapshot_size"] == 0


point2 = st.tuples(st.integers(0, 8), st.integers(0, 8))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(point2, min_size=1, max_size=1)),
        st.tuples(st.just("batch"), st.lists(point2, min_size=1, max_size=5)),
    ),
    min_size=1,
    max_size=25,
)


class TestCachedQueryProperty:
    @settings(max_examples=60, deadline=None)
    @given(operations, st.integers(2, 10))
    def test_cached_query_matches_scan_under_interleaving(self, ops, capacity):
        """The issue's parity property: interleaved single/batched
        ingestion (expiry happens implicitly once the window fills),
        with every cached ``query(n)`` checked against the independent
        ``query_scan`` implementation, and version bumps tracking
        interval-set changes exactly."""
        engine = NofNSkyline(dim=2, capacity=capacity)
        assert engine.stab_cache is not None
        for kind, points in ops:
            before_version = engine.structure_version
            before_set = sorted(
                (i.low, i.high) for i in engine._intervals.intervals()
            )
            if kind == "append":
                engine.append(points[0])
            else:
                engine.append_many(points)
            after_set = sorted(
                (i.low, i.high) for i in engine._intervals.intervals()
            )
            # Arrivals always insert the newcomer's interval (its high
            # endpoint is the fresh label), so the set changed and the
            # version must have moved with it.
            assert after_set != before_set
            assert engine.structure_version > before_version
            for n in {1, 2, capacity // 2, capacity}:
                if n < 1:
                    continue
                cached = [e.kappa for e in engine.query(n)]
                scanned = [e.kappa for e in engine.query_scan(n)]
                assert cached == scanned
            # Repeat queries between writes are memo hits answering
            # identically.
            stats_before = engine.cache_stats()
            again = [e.kappa for e in engine.query(capacity)]
            stats_after = engine.cache_stats()
            assert again == [e.kappa for e in engine.query_scan(capacity)]
            assert stats_after["hits"] > stats_before["hits"]
            assert stats_after["rebuilds"] == stats_before["rebuilds"]

    @settings(max_examples=25, deadline=None)
    @given(operations, st.integers(2, 8))
    def test_version_stable_iff_no_writes(self, ops, capacity):
        engine = NofNSkyline(dim=2, capacity=capacity)
        for kind, points in ops:
            if kind == "append":
                engine.append(points[0])
            else:
                engine.append_many(points)
        version = engine.structure_version
        interval_set = sorted(
            (i.low, i.high) for i in engine._intervals.intervals()
        )
        engine.query(1)
        engine.query(capacity)
        engine.query_scan(capacity)
        engine.non_redundant()
        assert engine.structure_version == version
        assert interval_set == sorted(
            (i.low, i.high) for i in engine._intervals.intervals()
        )


class TestEngineIntegration:
    def test_query_cache_off_disables_cache(self):
        engine = NofNSkyline(dim=2, capacity=4, query_cache=False)
        assert engine.stab_cache is None
        assert engine.cache_stats() is None
        engine.append((1, 2))
        assert [e.kappa for e in engine.query(4)] == [1]

    def test_sanitize_full_with_cache(self):
        engine = NofNSkyline(dim=2, capacity=6, sanitize="full")
        for i in range(20):
            engine.append(((i * 7) % 11, (i * 3) % 13))
            engine.query(3)  # keep the cache warm so full mode checks it
        engine.check_invariants()

    def test_timewindow_query_last_uses_cache(self):
        engine = TimeWindowSkyline(dim=2, horizon=10.0)
        for i in range(1, 15):
            engine.append(((i * 5) % 7, (i * 2) % 5), timestamp=float(i))
        first = [e.kappa for e in engine.query_last(5.0)]
        stats = engine.cache_stats()
        second = [e.kappa for e in engine.query_last(5.0)]
        assert first == second
        assert engine.cache_stats()["hits"] > stats["hits"]

    def test_skyband_cached_query_matches_uncached(self):
        cached = KSkybandEngine(dim=2, capacity=8, k=2)
        plain = KSkybandEngine(dim=2, capacity=8, k=2, query_cache=False)
        assert plain.stab_cache is None
        for i in range(30):
            point = ((i * 7) % 10, (i * 13) % 9)
            cached.append(point)
            plain.append(point)
            for n in (1, 4, 8):
                assert [e.kappa for e in cached.query(n)] == [
                    e.kappa for e in plain.query(n)
                ]

    def test_continuous_manager_rides_the_cache(self):
        engine = NofNSkyline(dim=2, capacity=10)
        manager = ContinuousQueryManager(engine)
        for i in range(10):
            manager.append(((i * 3) % 7, (i * 5) % 11))
        # Registering several queries between arrivals costs one
        # rebuild, then memo traffic.
        rebuilds_before = engine.cache_stats()["rebuilds"]
        handles = [manager.register(n=n) for n in (2, 4, 6, 8, 10)]
        assert engine.cache_stats()["rebuilds"] <= rebuilds_before + 1
        for i in range(10, 30):
            manager.append(((i * 3) % 7, (i * 5) % 11))
            for handle in handles:
                expected = [e.kappa for e in engine.query(handle.n)]
                assert sorted(m.kappa for m in handle.result()) == expected
