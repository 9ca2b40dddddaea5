"""Tests for the manager's window axis, handles and persistence.

Handles that share a window share one change counter on the sorted
axis; a departing handle freezes while its twin keeps tracking; results
are memoised per window between batches and handed out as copies.  The
``continuous-rows`` sanitizer invariant must catch seeded corruption of
the rows and of the axis.  Results themselves are pinned against fresh
stabbing queries here and against Algorithm 2 in
``test_continuous_oracle.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.query_index as query_index
from repro import ContinuousQueryManager, NofNSkyline
from repro.core.persistence import loads, dumps, restore, snapshot
from repro.core.query_index import mixed_query_plan
from repro.exceptions import (
    InvalidWindowError,
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


class TestRetiredQueryIndexKnob:
    def test_query_index_argument_is_rejected(self):
        engine = NofNSkyline(dim=2, capacity=8)
        with pytest.raises(TypeError):
            ContinuousQueryManager(engine, query_index="off")
        manager = ContinuousQueryManager(engine)
        assert not hasattr(manager, "query_index")
        assert not hasattr(manager, "query_index_stats")

    def test_query_index_module_keeps_only_the_plan(self):
        assert query_index.__all__ == ["mixed_query_plan"]
        for name in ("QueryIndex", "QueryGroup", "INDEX_MODES",
                     "resolve_index_mode"):
            assert not hasattr(query_index, name)

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


class TestSharedWindows:
    def test_duplicate_n_shares_one_window(self):
        engine = NofNSkyline(dim=2, capacity=20)
        manager = ContinuousQueryManager(engine)
        manager.register(5)
        manager.register(9)
        manager.register(5)
        assert manager._axis.tolist() == [5, 9]
        assert manager._refs.tolist() == [2, 1]

    def test_changes_counter_is_per_handle(self):
        engine, manager = _drive(capacity=16, points=40)
        early = manager.register(8)
        for i in range(10):
            manager.append((0.3, 0.4 + i / 100))
        late = manager.register(8)
        assert late.changes == 0
        assert early.changes > 0
        before_early, before_late = early.changes, late.changes
        for i in range(10):
            manager.append((0.2 + i / 50, 0.6))
        assert early.changes - before_early == late.changes - before_late

    def test_release_drops_empty_windows(self):
        engine = NofNSkyline(dim=2, capacity=20)
        manager = ContinuousQueryManager(engine)
        a = manager.register(5)
        b = manager.register(5)
        manager.unregister(a)
        assert manager._axis.tolist() == [5]
        manager.unregister(b)
        assert manager._axis.tolist() == []

    def test_unregister_foreign_handle_raises(self):
        engine = NofNSkyline(dim=2, capacity=20)
        manager = ContinuousQueryManager(engine)
        other = ContinuousQueryManager(engine)
        mine = manager.register(5)
        theirs = other.register(5)
        assert theirs.query_id == mine.query_id
        with pytest.raises(QueryNotRegisteredError):
            manager.unregister(theirs)
        assert len(manager) == 1


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
        first = handle.result()
        again = handle.result()
        assert first == again
        assert first is not again  # copies: callers cannot corrupt state
        first.clear()
        handle.result_kappas().clear()
        assert handle.result() == again
        manager.append((0.05, 0.05))
        refreshed = handle.result_kappas()
        assert refreshed == _fresh_kappas(engine, 8)

    def test_kappas_and_elements_stay_aligned(self):
        engine, manager = _drive(capacity=10, points=30)
        handle = manager.register(6)
        kappas = handle.result_kappas()
        elements = handle.result()
        assert kappas == [e.kappa for e in elements]


class TestMixedQueryPlan:
    def test_plan_shape(self):
        plan = mixed_query_plan(10, 50)
        assert len(plan) == 10
        assert all(1 <= n <= 50 for n in plan)
        # Half the pool repeats: registrations share windows.
        assert len(set(plan)) <= 5
        assert mixed_query_plan(0, 50) == []


class TestMatchesFreshQueries:
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


class TestContinuousRowsSanitizer:
    def _corrupt(self, manager, poke):
        poke(manager)
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.sanitizer.maybe_verify(manager)
        assert excinfo.value.report is not None
        return excinfo.value.report.invariant

    def _manager(self):
        engine, manager = _drive(capacity=30, points=80, sanitize="full")
        for n in (6, 11, 11, 19, 27):
            manager.register(n)
        assert len(manager._kappa) >= 2
        return manager

    def test_axis_out_of_order(self):
        manager = self._manager()

        def poke(m):
            m._axis = m._axis[::-1].copy()

        assert self._corrupt(manager, poke) == "continuous-rows"

    def test_refcount_mismatch(self):
        manager = self._manager()

        def poke(m):
            m._refs[0] += 1

        assert self._corrupt(manager, poke) == "continuous-rows"

    def test_row_silently_dropped(self):
        manager = self._manager()

        def poke(m):
            m._kappa = m._kappa[1:]
            m._parent = m._parent[1:]
            m._elements = m._elements[1:]

        assert self._corrupt(manager, poke) == "continuous-rows"

    def test_rows_out_of_kappa_order(self):
        manager = self._manager()

        def poke(m):
            m._kappa = m._kappa[::-1].copy()
            m._parent = m._parent[::-1].copy()
            m._elements = m._elements[::-1]

        assert self._corrupt(manager, poke) == "continuous-rows"

    def test_birth_parent_inside_the_window(self):
        manager = self._manager()

        def poke(m):
            # The newest row's parent moves to an older row that is in
            # the window but is not the engine's parent.
            kappas = m._kappa.tolist()
            parent = m.engine._records[kappas[-1]].parent_kappa
            m._parent[-1] = next(k for k in kappas[:-1] if k != parent)

        assert self._corrupt(manager, poke) == "continuous-rows"

    def test_element_column_misaligned(self):
        manager = self._manager()

        def poke(m):
            m._elements = m._elements[1:] + m._elements[:1]

        assert self._corrupt(manager, poke) == "continuous-rows"

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
        snap = snapshot(manager)
        assert "query_index" not in snap
        clone = restore(snap)
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
        """A snapshot that still names the retired ``query_index`` mode
        restores; the key selects nothing."""
        engine = NofNSkyline(dim=2, capacity=10)
        manager = ContinuousQueryManager(engine)
        handle = manager.register(5)
        for i in range(20):
            manager.append((i % 7 / 7.0, i % 5 / 5.0))
        for mode in ("off", "on", "auto"):
            snap = snapshot(manager)
            snap["query_index"] = mode
            clone = loads(dumps(restore(snap)))
            twin = next(iter(clone))
            assert twin.result_kappas() == handle.result_kappas()
            assert twin.changes == handle.changes
