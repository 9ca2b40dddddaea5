"""Tests for the query-index dispatch layer (``query_index="on"``).

The indexed path must be *observably identical* to both oracles: a
fresh ``engine.query(n)`` after every arrival (Proposition 1), and the
seed per-handle loop (``query_index="off"``) — results, ``changes``
counters and trigger behaviour alike — under interleaved single and
batched feeding, duplicate window sizes, and mid-stream registration
and unregistration.  The ``continuous-index``
sanitizer invariant must catch seeded corruption of every structural
piece: the sorted axis, the refcounts, the expiry heap and the group
member sets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContinuousQueryManager, NofNSkyline
from repro.core.persistence import loads, dumps, restore, snapshot
from repro.core.query_index import (
    INDEX_MODES,
    QueryGroup,
    QueryIndex,
    mixed_query_plan,
    resolve_index_mode,
)
from repro.exceptions import (
    InvalidWindowError,
    KeyNotFoundError,
    QueryNotRegisteredError,
    StructureCorruptionError,
)

coord = st.integers(0, 6).map(lambda v: v / 6)


def streams(max_dim=3, max_len=60):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d).map(tuple), min_size=1, max_size=max_len
        )
    )


def _fresh_kappas(engine, n):
    return [e.kappa for e in engine.query(n)]


def _drive(capacity=40, points=120, dim=2, **manager_kwargs):
    """A prefilled engine + manager pair fed a deterministic stream."""
    engine = NofNSkyline(dim=dim, capacity=capacity)
    manager = ContinuousQueryManager(engine, **manager_kwargs)
    for i in range(points):
        manager.append(((i * 7919) % 97 / 97.0, (i * 104729) % 89 / 89.0))
    return engine, manager


class TestIndexModeKnob:
    def test_modes_and_resolution(self):
        assert INDEX_MODES == ("auto", "on", "off")
        assert resolve_index_mode("auto") == "on"
        assert resolve_index_mode("on") == "on"
        assert resolve_index_mode("off") == "off"
        with pytest.raises(ValueError):
            resolve_index_mode("fast")

    def test_manager_exposes_resolved_mode(self):
        engine = NofNSkyline(dim=2, capacity=8)
        assert ContinuousQueryManager(engine).query_index == "on"
        legacy = ContinuousQueryManager(engine, query_index="off")
        assert legacy.query_index == "off"
        assert legacy.query_index_stats() is None

    def test_register_validation_unchanged(self):
        engine = NofNSkyline(dim=2, capacity=8)
        manager = ContinuousQueryManager(engine)
        with pytest.raises(InvalidWindowError):
            manager.register(0)
        with pytest.raises(InvalidWindowError):
            manager.register(9)

    def test_unregister_unknown_handle_raises(self):
        engine = NofNSkyline(dim=2, capacity=8)
        manager = ContinuousQueryManager(engine)
        handle = manager.register(4)
        manager.unregister(handle)
        with pytest.raises(QueryNotRegisteredError):
            manager.unregister(handle)


class TestGroupDedupe:
    def test_duplicate_n_shares_one_group(self):
        engine = NofNSkyline(dim=2, capacity=20)
        manager = ContinuousQueryManager(engine)
        a = manager.register(5)
        b = manager.register(5)
        c = manager.register(9)
        assert a._group is b._group
        assert a._group is not c._group
        stats = manager.query_index_stats()
        assert stats["groups"] == 2
        assert stats["handles"] == 3

    def test_changes_counter_is_per_handle(self):
        engine, manager = _drive(capacity=16, points=40)
        early = manager.register(8)
        for i in range(10):
            manager.append((0.3, 0.4 + i / 100))
        late = manager.register(8)
        assert late._group is early._group
        assert late.changes == 0
        assert early.changes > 0
        before_early, before_late = early.changes, late.changes
        for i in range(10):
            manager.append((0.2 + i / 50, 0.6))
        assert early.changes - before_early == late.changes - before_late

    def test_release_drops_empty_groups(self):
        engine = NofNSkyline(dim=2, capacity=20)
        manager = ContinuousQueryManager(engine)
        a = manager.register(5)
        b = manager.register(5)
        manager.unregister(a)
        assert manager.query_index_stats()["groups"] == 1
        manager.unregister(b)
        assert manager.query_index_stats()["groups"] == 0

    def test_release_unknown_group_raises(self):
        index = QueryIndex()
        with pytest.raises(KeyNotFoundError):
            index.release(7)


class TestUnregisterFreeze:
    def test_departing_handle_freezes_while_twin_tracks(self):
        engine, manager = _drive(capacity=24, points=60)
        keeper = manager.register(12)
        leaver = manager.register(12)
        for i in range(10):
            manager.append((0.1 + i / 40, 0.8))
        frozen_kappas = leaver.result_kappas()
        frozen_changes = leaver.changes
        manager.unregister(leaver)
        for i in range(25):
            manager.append((0.5, 0.1 + i / 60))
        assert leaver.result_kappas() == frozen_kappas
        assert leaver.changes == frozen_changes
        assert keeper.result_kappas() == _fresh_kappas(engine, 12)


class TestMemoisedResults:
    def test_result_memoised_between_maintenance(self):
        engine, manager = _drive(capacity=16, points=40)
        handle = manager.register(8)
        group = handle._group
        first = handle.result()
        assert group._sorted_changes == group.changes
        memo = group._sorted_elements
        again = handle.result()
        assert group._sorted_elements is memo
        assert first == again
        assert first is not again  # copies: callers cannot corrupt memo
        manager.append((0.05, 0.05))
        refreshed = handle.result_kappas()
        assert refreshed == _fresh_kappas(engine, 8)

    def test_kappas_and_elements_stay_aligned(self):
        group = QueryGroup(4)
        engine, manager = _drive(capacity=10, points=30)
        handle = manager.register(6)
        kappas = handle.result_kappas()
        elements = handle.result()
        assert kappas == [e.kappa for e in elements]
        assert len(group) == 0


class TestMixedQueryPlan:
    def test_plan_shape(self):
        plan = mixed_query_plan(10, 50)
        assert len(plan) == 10
        assert all(1 <= n <= 50 for n in plan)
        # Half the pool repeats: registrations exercise the dedupe path.
        assert len(set(plan)) <= 5
        assert mixed_query_plan(0, 50) == []


class TestIndexedMatchesFreshQueries:
    @settings(max_examples=30, deadline=None)
    @given(streams(), st.integers(2, 12), st.data())
    def test_interleaved_feed_and_registration(self, history, capacity, data):
        engine = NofNSkyline(dim=len(history[0]), capacity=capacity)
        manager = ContinuousQueryManager(engine)
        handles = []
        # Duplicate n on purpose: two handles at capacity//2 + 1.
        shared_n = capacity // 2 + 1
        handles.append(manager.register(shared_n))
        handles.append(manager.register(shared_n))
        cursor = 0
        while cursor < len(history):
            step = data.draw(st.integers(1, 4), label="chunk")
            chunk = history[cursor:cursor + step]
            cursor += step
            if data.draw(st.booleans(), label="batched"):
                manager.append_many(chunk)
            else:
                for point in chunk:
                    manager.append(point)
            action = data.draw(st.integers(0, 3), label="action")
            if action == 0:
                handles.append(
                    manager.register(data.draw(
                        st.integers(1, capacity), label="n"
                    ))
                )
            elif action == 1 and len(handles) > 2:
                manager.unregister(handles.pop())
            for handle in handles:
                assert handle.result_kappas() == _fresh_kappas(
                    engine, handle.n
                ), f"n={handle.n} diverged"
        manager.check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(streams(max_dim=2, max_len=40), st.integers(2, 10))
    def test_whole_history_in_one_append_many(self, history, capacity):
        """Every window size registered, then one chunk that may span
        several full window turnovers."""
        engine = NofNSkyline(dim=len(history[0]), capacity=capacity)
        manager = ContinuousQueryManager(engine)
        handles = [manager.register(n) for n in range(1, capacity + 1)]
        manager.append_many(history)
        for handle in handles:
            assert handle.result_kappas() == _fresh_kappas(engine, handle.n)


class TestIndexedMatchesLegacy:
    @settings(max_examples=25, deadline=None)
    @given(streams(max_len=50), st.integers(2, 10))
    def test_parity_results_and_changes(self, history, capacity):
        dim = len(history[0])
        engine = NofNSkyline(dim=dim, capacity=capacity)
        indexed = ContinuousQueryManager(engine, query_index="on")
        legacy = ContinuousQueryManager(engine, query_index="off")
        pairs = [
            (indexed.register(n), legacy.register(n))
            for n in list(range(1, capacity + 1)) + [capacity // 2 + 1]
        ]
        for point in history:
            outcome = engine.append(point)
            indexed.process(outcome)
            legacy.process(outcome)
            for ih, lh in pairs:
                assert ih.result_kappas() == lh.result_kappas()
                assert ih.changes == lh.changes
        for ih, lh in pairs:
            assert [e.kappa for e in ih.result()] == [
                e.kappa for e in lh.result()
            ]

    def test_batch_parity_under_full_sanitize(self):
        capacity = 24
        engine = NofNSkyline(dim=2, capacity=capacity)
        indexed = ContinuousQueryManager(
            engine, query_index="on", sanitize="full"
        )
        legacy = ContinuousQueryManager(engine, query_index="off")
        for n in mixed_query_plan(12, capacity):
            indexed.register(n)
            legacy.register(n)
        points = [
            ((i * 37) % 41 / 41.0, (i * 61) % 53 / 53.0) for i in range(90)
        ]
        for start in range(0, len(points), 7):
            batch = engine.append_many(points[start:start + 7])
            indexed.process_batch(batch)
            legacy.process_batch(batch)
        for ih, lh in zip(indexed, legacy):
            assert ih.result_kappas() == lh.result_kappas()
            assert ih.changes == lh.changes
        stats = indexed.query_index_stats()
        assert stats["batch_passes"] > 0
        assert stats["routed_events"] > 0


class TestContinuousIndexSanitizer:
    def _corrupt(self, manager, poke):
        poke(manager._index)
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.check_invariants()
        assert excinfo.value.report is not None
        return excinfo.value.report.invariant

    def _manager(self):
        engine, manager = _drive(capacity=30, points=80)
        for n in (6, 11, 11, 19, 27):
            manager.register(n)
        return manager

    def test_axis_out_of_order(self):
        manager = self._manager()
        invariant = self._corrupt(manager, lambda idx: idx._axis.reverse())
        assert invariant == "continuous-index"

    def test_refcount_mismatch(self):
        manager = self._manager()

        def poke(idx):
            idx._order[0].refs += 1

        assert self._corrupt(manager, poke) == "continuous-index"

    def test_expiry_entry_scheduled_late(self):
        manager = self._manager()

        def poke(idx):
            n = idx._axis[0]
            if n in idx._expiry:
                idx._expiry.update_priority(n, 10 ** 9)
            else:
                idx._expiry.push(n, 10 ** 9)

        assert self._corrupt(manager, poke) == "continuous-index"

    def test_member_silently_dropped(self):
        manager = self._manager()

        def poke(idx):
            group = next(g for g in idx._order if len(g) > 0)
            kappa = group.result_kappas()[0]
            # Consistent drop (members + heap + no counter bump): only
            # the brute-force Proposition 1 replay can notice.
            del group._members[kappa]
            group._heap.delete(kappa)
            group._sorted_changes = -1

        assert self._corrupt(manager, poke) == "continuous-index"

    def test_clean_manager_passes(self):
        manager = self._manager()
        manager.check_invariants()


class TestContinuousPersistence:
    def test_round_trip_and_continued_maintenance(self):
        engine, manager = _drive(capacity=20, points=50)
        a = manager.register(7)
        b = manager.register(7)
        c = manager.register(15)
        for i in range(10):
            manager.append((0.2 + i / 40, 0.7))
        clone = restore(snapshot(manager))
        assert clone.query_index == manager.query_index
        assert sorted(h.query_id for h in clone) == sorted(
            h.query_id for h in manager
        )
        by_id = {h.query_id: h for h in clone}
        for handle in (a, b, c):
            twin = by_id[handle.query_id]
            assert twin.n == handle.n
            assert twin.result_kappas() == handle.result_kappas()
            assert twin.changes == handle.changes
        # Maintenance continues identically on both sides.
        for i in range(15):
            point = (0.1 + i / 30, 0.4)
            manager.append(point)
            clone.append(point)
        for handle in (a, b, c):
            twin = by_id[handle.query_id]
            assert twin.result_kappas() == handle.result_kappas()
            assert twin.changes == handle.changes
        clone.check_invariants()

    def test_next_id_continues_without_collision(self):
        engine, manager = _drive(capacity=12, points=20)
        manager.register(4)
        manager.register(9)
        clone = loads(dumps(manager))
        fresh = clone.register(6)
        assert fresh.query_id not in {4, 9} and fresh.query_id >= 3
        assert len({h.query_id for h in clone}) == 3

    def test_legacy_mode_round_trips(self):
        engine = NofNSkyline(dim=2, capacity=10)
        manager = ContinuousQueryManager(engine, query_index="off")
        handle = manager.register(5)
        for i in range(20):
            manager.append((i % 7 / 7.0, i % 5 / 5.0))
        clone = loads(dumps(manager))
        assert clone.query_index == "off"
        twin = next(iter(clone))
        assert twin.result_kappas() == handle.result_kappas()
        assert twin.changes == handle.changes
