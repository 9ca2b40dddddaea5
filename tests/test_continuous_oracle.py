"""The closed-form continuous manager against Algorithm 2 itself.

:class:`~tests.continuous_oracle.Algorithm2Oracle` replays the paper's
per-handle trigger loop over the same outcomes the manager consumes.
After every ``append``, ``append_many``, ``process`` and
``process_batch`` call, every handle — live or unregistered — must
report exactly the oracle's ``result_kappas()``, ``result()`` and
``changes``, and every live handle must equal a fresh
``engine.query(n)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContinuousQueryManager, NofNSkyline
from repro.core.query_index import mixed_query_plan
from repro.streams import materialize
from tests.continuous_oracle import Algorithm2Oracle

CALLS = ("append", "append_many", "process", "process_batch")


def grid_point(data, dim, levels):
    return tuple(
        data.draw(st.integers(0, levels - 1), label="coord") / (levels - 1)
        for _ in range(dim)
    )


def assert_same(engine, pairs):
    for handle, query in pairs:
        expected = query.result_kappas()
        assert handle.result_kappas() == expected, f"n={handle.n}"
        assert [(e.kappa, e.values) for e in handle.result()] == [
            (e.kappa, e.values) for e in query.result()
        ]
        assert handle.changes == query.changes, f"n={handle.n} changes"
        assert len(handle) == len(expected)
        if handle._manager is not None:
            assert expected == [e.kappa for e in engine.query(handle.n)]


class TestMatchesAlgorithm2:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 40),
        st.sampled_from((2, 3, 5, 100)),
        st.data(),
    )
    def test_every_call_matches_the_oracle(self, dim, capacity, levels, data):
        engine = NofNSkyline(dim=dim, capacity=capacity)
        prefill = data.draw(st.integers(0, 2 * capacity), label="prefill")
        if prefill:
            engine.append_many(
                [grid_point(data, dim, levels) for _ in range(prefill)]
            )
        manager = ContinuousQueryManager(engine)
        oracle = Algorithm2Oracle(engine)
        pairs = []
        live = []
        for _ in range(data.draw(st.integers(1, 14), label="steps")):
            action = data.draw(
                st.sampled_from(CALLS + ("register", "unregister")),
                label="action",
            )
            if action == "register" or not live:
                registered = [handle.n for handle, _ in live]
                n = data.draw(
                    st.sampled_from(registered) if registered and
                    data.draw(st.booleans(), label="duplicate")
                    else st.integers(1, capacity),
                    label="n",
                )
                pair = (manager.register(n), oracle.register(n))
                pairs.append(pair)
                live.append(pair)
            elif action == "unregister":
                handle, query = live.pop(
                    data.draw(st.integers(0, len(live) - 1), label="which")
                )
                manager.unregister(handle)
                oracle.unregister(query)
            else:
                size = data.draw(st.integers(1, capacity + 8), label="size")
                points = [grid_point(data, dim, levels) for _ in range(size)]
                if action == "append":
                    oracle.process(manager.append(points[0]))
                elif action == "append_many":
                    oracle.process_batch(manager.append_many(points))
                elif action == "process":
                    outcome = engine.append(points[0])
                    manager.process(outcome)
                    oracle.process(outcome)
                else:
                    batch = engine.append_many(points)
                    manager.process_batch(batch)
                    oracle.process_batch(batch)
            assert_same(engine, pairs)
        manager.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.data())
    def test_whole_history_in_one_batch(self, dim, capacity, data):
        """Every window registered, then one batch spanning several
        window turnovers."""
        engine = NofNSkyline(dim=dim, capacity=capacity)
        manager = ContinuousQueryManager(engine)
        oracle = Algorithm2Oracle(engine)
        pairs = [
            (manager.register(n), oracle.register(n))
            for n in range(1, capacity + 1)
        ]
        history = [
            grid_point(data, dim, 4)
            for _ in range(data.draw(st.integers(1, 5 * capacity + 5)))
        ]
        oracle.process_batch(manager.append_many(history))
        assert_same(engine, pairs)


class TestBatchParityUnderFullSanitize:
    def test_uneven_batches_then_single_arrivals(self):
        capacity = 24
        engine = NofNSkyline(dim=2, capacity=capacity)
        manager = ContinuousQueryManager(engine, sanitize="full")
        oracle = Algorithm2Oracle(engine)
        pairs = [
            (manager.register(n), oracle.register(n))
            for n in mixed_query_plan(12, capacity)
        ]
        points = [
            ((i * 37) % 41 / 41.0, (i * 61) % 53 / 53.0) for i in range(90)
        ]
        for start in range(0, 60, 7):
            batch = engine.append_many(points[start:start + 7])
            manager.process_batch(batch)
            oracle.process_batch(batch)
            assert_same(engine, pairs)
        for point in points[60:]:
            oracle.process(manager.append(point))
            assert_same(engine, pairs)


class TestLargeResults:
    """Anti-correlated d=5 results hold hundreds of members, so rows die
    deep inside the result and windows expire mid-result — sizes the
    property tests (small N) never reach."""

    CAPACITY = 300
    WINDOWS = (1, 2, 7, 33, 64, 64, 100, 128, 150, 150,
               199, 200, 231, 250, 250, 277, 290, 299, 300, 300)

    @pytest.mark.parametrize("chunk, sanitize", [
        (None, "off"), (1, "off"), (7, "off"), (64, "off"), (64, "full"),
    ])
    def test_matches_oracle_and_fresh_queries(self, chunk, sanitize):
        points = materialize("anti", 5, 2 * self.CAPACITY, seed=18)
        engine = NofNSkyline(dim=5, capacity=self.CAPACITY)
        manager = ContinuousQueryManager(engine, sanitize=sanitize)
        oracle = Algorithm2Oracle(engine)
        pairs = [(manager.register(n), oracle.register(n))
                 for n in self.WINDOWS]
        step = chunk or 1
        largest = 0
        for start in range(0, len(points), step):
            if chunk is None:
                oracle.process(manager.append(points[start]))
            else:
                oracle.process_batch(
                    manager.append_many(points[start:start + step])
                )
            assert_same(engine, pairs)
            largest = max(largest, *(len(h) for h, _ in pairs))
        assert largest >= 200
