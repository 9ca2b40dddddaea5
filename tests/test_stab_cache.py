"""Tests for the versioned stab cache (the query fast path).

Covers the cache in isolation over a :class:`DenseIndex`'s interval
columns (memoization, versioned invalidation, label-ordered answers)
and through the engines: property tests interleave ``append`` /
``append_many`` / expiry and check every answer, with the cache on and
off, against ``query_scan`` or a brute-force oracle, and check that
version bumps track the index's interval changes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import DEFAULT_MAX_MEMO, StabCache
from repro.baselines.naive import naive_skyline_youngest
from repro.core.continuous import ContinuousQueryManager
from repro.core.dominance import weakly_dominates
from repro.core.nofn import NofNSkyline
from repro.core.skyband import KSkybandEngine
from repro.core.timewindow import TimeWindowSkyline
from repro.structures.dense_index import DenseIndex


def index_of(*rows):
    """A one-dimensional :class:`DenseIndex` holding ``(low, label,
    payload)`` rows; each integer label doubles as the row's kappa, so
    labels must ascend."""
    index = DenseIndex(1)
    for low, label, data in rows:
        index.insert((0.0,), label, data, low=low)
    return index


class TestStabCacheUnit:
    def test_matches_index_stab(self):
        # Example 3 of the paper, in label order.
        index = index_of(
            (0, 3, "c"), (0, 4, "e"), (4, 5, "f"), (4, 6, "g"), (3, 7, "h")
        )
        cache = StabCache(index)
        for t in (0, 1, 2, 3.5, 5, 6, 7, 8):
            assert cache.stab(t) == index.stab(t)

    def test_memo_hit_and_miss_counters(self):
        index = index_of((0, 5, "a"), (3, 8, "b"))
        cache = StabCache(index)
        # The first stab after a write runs straight through; the
        # second builds the span key, seeded with the first answer.
        assert cache.stab(2) == ["a"]
        assert (cache.hits, cache.misses, cache.rebuilds) == (0, 1, 0)
        assert cache.stab(2) == ["a"]
        assert (cache.hits, cache.misses, cache.rebuilds) == (1, 1, 1)
        assert cache.stab(4) == ["a", "b"]  # new span: a miss
        assert (cache.hits, cache.misses, cache.rebuilds) == (1, 2, 1)

    def test_equivalent_stab_points_share_one_entry(self):
        """Answers are constant between consecutive endpoints, so
        distinct stab points inside one elementary span are memo hits."""
        index = index_of((0, 10, "a"), (5, 12, "b"))
        cache = StabCache(index)
        assert cache.stab(6) == ["a", "b"]
        for t in (5.5, 7, 8.25, 10):  # all inside the span (5, 10]
            assert cache.stab(t) == ["a", "b"]
        assert cache.misses == 1 and cache.hits == 4
        assert cache.stats()["memo_size"] == 1

    def test_write_invalidates_exactly(self):
        index = index_of((0, 5, "a"))
        cache = StabCache(index)
        cache.stab(3)
        assert not cache.is_fresh()  # the first read runs straight through
        cache.stab(3)
        assert cache.is_fresh() and cache.rebuilds == 1
        index.insert((0.0,), 6, "b", low=1)
        assert not cache.is_fresh()
        assert cache.stab(3) == ["a", "b"]
        assert cache.stab(3) == ["a", "b"]
        assert cache.rebuilds == 2
        index.delete_many([5])
        assert cache.stab(3) == ["b"]
        assert cache.stab(3) == ["b"]
        assert cache.rebuilds == 3
        # Reads between writes reuse the span key and memo.
        assert cache.stab(3) == ["b"]
        assert cache.rebuilds == 3 and cache.hits == 4
        index.set_low(6, 4)
        assert not cache.is_fresh()
        assert cache.stab(3) == []
        assert cache.stab(3) == []
        assert cache.rebuilds == 4

    def test_returns_fresh_list_per_call(self):
        cache = StabCache(index_of((0, 5, "a")))
        first = cache.stab(3)
        first.append("mutated")
        assert cache.stab(3) == ["a"]

    def test_memo_capacity_clears_table(self):
        index = index_of(*[(i, i + 1, i) for i in range(10)])
        cache = StabCache(index, max_memo=4)
        for t in (0.5, 1.5, 2.5, 3.5):  # four distinct spans
            assert cache.stab(t) == [int(t)]
        assert cache.stats()["memo_size"] == 4
        cache.stab(4.5)  # table full: cleared, then the new span stored
        assert cache.stats()["memo_size"] == 1
        assert cache.stab(4.5) == [4]

    def test_answers_come_in_label_order(self):
        # Lows out of order; the rows, and so the answer, in label order.
        index = index_of((2, 7, "a"), (0, 8, "c"), (1, 9, "b"))
        cache = StabCache(index)
        assert cache.stab(5) == ["a", "c", "b"]
        assert cache.stab(5) == ["a", "c", "b"]  # the memo hit too

    def test_max_memo_validation(self):
        with pytest.raises(ValueError):
            StabCache(DenseIndex(1), max_memo=0)

    def test_invalidate_forces_rebuild(self):
        cache = StabCache(index_of((0, 5, "a")))
        cache.stab(3)
        cache.stab(3)
        cache.invalidate()
        assert not cache.is_fresh()
        assert cache.stab(3) == ["a"]
        assert cache.rebuilds == 2

    def test_stats_shape(self):
        cache = StabCache(DenseIndex(1))
        stats = cache.stats()
        assert set(stats) == {
            "hits", "misses", "rebuilds", "memo_size", "snapshot_size"
        }
        assert DEFAULT_MAX_MEMO >= 1

    def test_empty_index(self):
        cache = StabCache(DenseIndex(1))
        assert cache.stab(1) == []
        assert cache.stats()["snapshot_size"] == 0


def interval_set(engine):
    """The ``(low, label)`` intervals of the engine's live index rows."""
    index = engine._rtree
    return sorted(index.interval(entry.kappa) for entry in index.entries())


point2 = st.tuples(st.integers(0, 8), st.integers(0, 8))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(point2, min_size=1, max_size=1)),
        st.tuples(st.just("batch"), st.lists(point2, min_size=1, max_size=5)),
    ),
    min_size=1,
    max_size=25,
)

#: Time-window writes: each arrival carries the gap since the previous
#: stamp; a gap of 8 outlasts every horizon below (a quiet spell).
timed_operations = st.lists(
    st.tuples(
        st.sampled_from(["append", "batch"]),
        st.lists(
            st.tuples(point2, st.sampled_from([0.25, 0.5, 1.0, 8.0])),
            min_size=1,
            max_size=5,
        ),
    ),
    min_size=1,
    max_size=25,
)


def band_kappas(history, n, k):
    """Brute-force n-of-N k-skyband: the window elements that fewer
    than ``k`` window elements strictly dominate or duplicate later."""
    lo = max(0, len(history) - n)
    window = history[lo:]
    out = []
    for i, p in enumerate(window):
        beaten = sum(
            1
            for j, q in enumerate(window)
            if j != i and weakly_dominates(q, p) and (q != p or j > i)
        )
        if beaten < k:
            out.append(lo + i + 1)
    return out


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
            before_set = interval_set(engine)
            if kind == "append":
                engine.append(points[0])
            else:
                engine.append_many(points)
            after_set = interval_set(engine)
            # Arrivals always insert the newcomer's row (its interval
            # ends at the fresh label), so the set changed and the
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
        intervals = interval_set(engine)
        engine.query(1)
        engine.query(capacity)
        engine.query_scan(capacity)
        engine.non_redundant()
        assert engine.structure_version == version
        assert intervals == interval_set(engine)

    @pytest.mark.parametrize("query_cache", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(timed_operations, st.sampled_from([1.5, 3.0]))
    def test_time_window_matches_brute_force(self, query_cache, ops, horizon):
        """``query_last`` through ``append`` and ``append_many``, with
        quiet spells longer than the horizon that expire several
        elements at one arrival, against a brute-force skyline of the
        stamps in ``[now - duration, now]``."""
        engine = TimeWindowSkyline(
            dim=2, horizon=horizon, query_cache=query_cache
        )
        history, stamps = [], []
        now = 0.0
        for kind, arrivals in ops:
            if kind == "append":
                arrivals = arrivals[:1]
            points = [point for point, _ in arrivals]
            batch_stamps = []
            for _, gap in arrivals:
                now += gap
                batch_stamps.append(now)
            before_version = engine.structure_version
            if kind == "append":
                engine.append(points[0], batch_stamps[0])
            else:
                engine.append_many(points, batch_stamps)
            history += points
            stamps += batch_stamps
            assert engine.structure_version > before_version
            for duration in {horizon, horizon / 2, 1.0, 0.25}:
                start = now - duration
                expected = [
                    i + 1 for i in naive_skyline_youngest(
                        [p for p, t in zip(history, stamps) if t >= start]
                    )
                ]
                offset = sum(1 for t in stamps if t < start)
                expected = [offset + kappa for kappa in expected]
                got = [e.kappa for e in engine.query_last(duration)]
                assert got == expected
                assert [e.kappa for e in engine.query_last(duration)] == got
        engine.check_invariants()

    @pytest.mark.parametrize("query_cache", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(point2, min_size=1, max_size=6), min_size=1,
                 max_size=12),
        st.integers(2, 8),
        st.integers(1, 3),
        st.sampled_from([None, 1, 3]),
    )
    def test_skyband_matches_brute_force(
        self, query_cache, batches, capacity, k, chunk
    ):
        """``KSkybandEngine`` at k=1-3 fed in ``append_many`` chunks,
        every ``query(n)`` against a brute-force k-skyband of the
        window."""
        engine = KSkybandEngine(
            dim=2, capacity=capacity, k=k, query_cache=query_cache,
            batch_chunk=chunk,
        )
        history = []
        for batch in batches:
            before_version = engine.structure_version
            engine.append_many(batch)
            history += batch
            assert engine.structure_version > before_version
            for n in sorted({1, 2, capacity // 2, capacity}):
                got = [e.kappa for e in engine.query(n)]
                assert got == band_kappas(history, n, k)
                assert [e.kappa for e in engine.query(n)] == got
        engine.check_invariants()


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
