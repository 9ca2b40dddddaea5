"""Batched ingestion (``append_many``) parity with per-element ``append``.

The batched fast path skips index maintenance for batch members that a
younger same-batch element weakly dominates, so these tests pin the
contract that makes the shortcut safe: against a per-element twin fed
the same stream, every engine must produce identical query results,
identical per-arrival :class:`ArrivalOutcome` sequences, identical
stats counters, and identical continuous-query trigger sequences —
for any batch split, including batches larger than the window.

``dominated_removed`` and ``expired`` are both ordered oldest first
(``tests/test_arrival_oracle.py`` pins the order against the stream);
the twin comparisons here take ``dominated_removed`` as a set.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchOutcome,
    ContinuousQueryManager,
    KSkybandEngine,
    N1N2Skyline,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.core.nofn_linear import LinearScanNofNSkyline
from repro.exceptions import DimensionMismatchError, StructureCorruptionError

# Coarse coordinates provoke ties, duplicates and dominance on purpose.
coord = st.integers(0, 7).map(lambda v: v / 7)


def streams(max_dim=4, max_len=60, min_size=1):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d).map(tuple),
            min_size=min_size,
            max_size=max_len,
        )
    )


def split_batches(history, seed):
    """A reproducible random partition of ``history`` into batches."""
    rng = random.Random(seed)
    batches = []
    i = 0
    while i < len(history):
        size = rng.randint(1, max(1, len(history) - i))
        batches.append(history[i:i + size])
        i += size
    return batches


def outcome_key(outcome):
    """An outcome as comparable data, ``dominated_removed`` as a set."""
    return (
        outcome.element.kappa,
        tuple(outcome.element.values),
        outcome.seen_so_far,
        outcome.parent_kappa,
        frozenset(e.kappa for e in outcome.dominated_removed),
        tuple(e.kappa for e in outcome.expired),
    )


def counter_key(stats):
    """The deterministic stats counters (timings excluded)."""
    raw = stats.snapshot_raw()
    for timing in ("batch_seconds_total", "batch_seconds_max"):
        raw.pop(timing)
    return raw


def batch_free_counter_key(stats):
    """Counters that must match a per-element twin (no batch counters)."""
    raw = counter_key(stats)
    for field in ("batches", "batch_elements", "prefilter_dropped",
                  "batch_size_peak"):
        raw.pop(field)
    return raw


class TestNofNParity:
    @settings(max_examples=60, deadline=None)
    @given(streams(), st.integers(1, 20), st.integers(0, 10**6))
    def test_matches_per_element_twin(self, history, capacity, seed):
        dim = len(history[0])
        elem = NofNSkyline(dim=dim, capacity=capacity)
        elem_outcomes = [elem.append(p) for p in history]

        batched = NofNSkyline(dim=dim, capacity=capacity)
        batch_outcomes = []
        for batch in split_batches(history, seed):
            result = batched.append_many(batch)
            assert isinstance(result, BatchOutcome)
            assert result.batch_size == len(batch)
            batch_outcomes.extend(result.outcomes)

        assert [outcome_key(o) for o in batch_outcomes] == [
            outcome_key(o) for o in elem_outcomes
        ]
        for n in range(1, capacity + 1):
            assert [e.kappa for e in batched.query(n)] == [
                e.kappa for e in elem.query(n)
            ], f"n={n}"
        assert sorted(batched.dominance_graph_edges()) == sorted(
            elem.dominance_graph_edges()
        )
        assert batch_free_counter_key(batched.stats) == batch_free_counter_key(
            elem.stats
        )
        batched.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(streams(max_dim=3, max_len=80), st.integers(1, 4))
    def test_one_batch_larger_than_window(self, history, capacity):
        """A single batch spanning many window turnovers (B >> N) forces
        in-chunk expiry of both indexed and pending members."""
        dim = len(history[0])
        elem = NofNSkyline(dim=dim, capacity=capacity)
        for p in history:
            elem.append(p)
        batched = NofNSkyline(dim=dim, capacity=capacity)
        batched.append_many(history)
        for n in range(1, capacity + 1):
            assert [e.kappa for e in batched.query(n)] == [
                e.kappa for e in elem.query(n)
            ]
        batched.check_invariants()

    def test_linear_scan_engine_inherits_batch_path(self):
        rng = random.Random(11)
        points = [(rng.random(), rng.random()) for _ in range(60)]
        elem = LinearScanNofNSkyline(dim=2, capacity=20)
        for p in points:
            elem.append(p)
        batched = LinearScanNofNSkyline(dim=2, capacity=20)
        batched.append_many(points[:25])
        batched.append_many(points[25:])
        for n in (1, 10, 20):
            assert [e.kappa for e in batched.query(n)] == [
                e.kappa for e in elem.query(n)
            ]


class TestTimeWindowParity:
    @settings(max_examples=50, deadline=None)
    @given(
        streams(max_dim=3, max_len=50),
        st.lists(st.sampled_from([0.1, 0.4, 1.0, 6.0]), min_size=50,
                 max_size=50),
        st.integers(0, 10**6),
    )
    def test_matches_per_element_twin(self, history, gaps, seed):
        """Bursty timestamps (including horizon-sized jumps) exercise
        expiry of pending batch members mid-chunk."""
        dim = len(history[0])
        stamps = []
        now = 0.0
        for gap in gaps[:len(history)]:
            now += gap
            stamps.append(now)

        elem = TimeWindowSkyline(dim=dim, horizon=2.0)
        elem_outcomes = [
            elem.append(p, t) for p, t in zip(history, stamps)
        ]

        batched = TimeWindowSkyline(dim=dim, horizon=2.0)
        batch_outcomes = []
        i = 0
        for batch in split_batches(history, seed):
            result = batched.append_many(batch, stamps[i:i + len(batch)])
            batch_outcomes.extend(result.outcomes)
            i += len(batch)

        assert [outcome_key(o) for o in batch_outcomes] == [
            outcome_key(o) for o in elem_outcomes
        ]
        assert batched.now == elem.now
        assert [e.kappa for e in batched.skyline()] == [
            e.kappa for e in elem.skyline()
        ]
        for tau in (0.1, 0.5, 1.0, 2.0):
            assert [e.kappa for e in batched.query_last(tau)] == [
                e.kappa for e in elem.query_last(tau)
            ], f"tau={tau}"
        assert batch_free_counter_key(batched.stats) == batch_free_counter_key(
            elem.stats
        )

    def test_bad_timestamp_leaves_engine_untouched(self):
        engine = TimeWindowSkyline(dim=2, horizon=5.0)
        engine.append((0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            engine.append_many([(0.1, 0.1), (0.2, 0.2)], [2.0, 1.5])
        with pytest.raises(ValueError):
            engine.append_many([(0.1, 0.1)], [0.5])  # before previous
        with pytest.raises(ValueError):
            engine.append_many([(0.1, 0.1)], [2.0, 3.0])  # length mismatch
        assert engine.seen_so_far == 1
        assert [e.kappa for e in engine.skyline()] == [1]


class TestN1N2Parity:
    @settings(max_examples=50, deadline=None)
    @given(streams(max_dim=3, max_len=50), st.integers(1, 12),
           st.integers(0, 10**6))
    def test_matches_per_element_twin(self, history, capacity, seed):
        dim = len(history[0])
        elem = N1N2Skyline(dim=dim, capacity=capacity)
        for p in history:
            elem.append(p)
        batched = N1N2Skyline(dim=dim, capacity=capacity)
        for batch in split_batches(history, seed):
            returned = batched.append_many(batch)
            assert [e.values for e in returned] == [tuple(p) for p in batch]

        assert [e.kappa for e in batched.window_elements()] == [
            e.kappa for e in elem.window_elements()
        ]
        for element in elem.window_elements():
            assert batched.ancestors(element.kappa) == elem.ancestors(
                element.kappa
            )
        for n1 in range(1, capacity + 1):
            for n2 in range(n1, capacity + 1):
                assert [e.kappa for e in batched.query(n1, n2)] == [
                    e.kappa for e in elem.query(n1, n2)
                ], f"(n1,n2)=({n1},{n2})"
        assert batch_free_counter_key(batched.stats) == batch_free_counter_key(
            elem.stats
        )
        batched.check_invariants()


class TestKSkybandParity:
    @settings(max_examples=50, deadline=None)
    @given(streams(max_dim=3, max_len=50), st.integers(1, 10),
           st.integers(1, 4), st.integers(0, 10**6))
    def test_matches_per_element_twin(self, history, capacity, k, seed):
        dim = len(history[0])
        elem = KSkybandEngine(dim=dim, capacity=capacity, k=k)
        for p in history:
            elem.append(p)
        batched = KSkybandEngine(dim=dim, capacity=capacity, k=k)
        for batch in split_batches(history, seed):
            batched.append_many(batch)

        assert [e.kappa for e in batched.skyband()] == [
            e.kappa for e in elem.skyband()
        ]
        for n in range(1, capacity + 1):
            assert [e.kappa for e in batched.query(n)] == [
                e.kappa for e in elem.query(n)
            ], f"n={n}"
        assert batch_free_counter_key(batched.stats) == batch_free_counter_key(
            elem.stats
        )
        batched.check_invariants()


class TestContinuousTriggerParity:
    @settings(max_examples=40, deadline=None)
    @given(streams(max_dim=3, max_len=40), st.integers(2, 15),
           st.integers(0, 10**6))
    def test_trigger_sequences_match(self, history, capacity, seed):
        """Every registered query must see the same result set AND the
        same cumulative change count (= same trigger sequence) after
        each batch as its per-element twin sees at the same position."""
        dim = len(history[0])
        ns = sorted({1, capacity, max(1, capacity // 2)})

        elem_manager = ContinuousQueryManager(
            NofNSkyline(dim=dim, capacity=capacity)
        )
        elem_handles = [elem_manager.register(n) for n in ns]
        batch_manager = ContinuousQueryManager(
            NofNSkyline(dim=dim, capacity=capacity)
        )
        batch_handles = [batch_manager.register(n) for n in ns]

        for batch in split_batches(history, seed):
            for p in batch:
                elem_manager.append(p)
            batch_manager.append_many(batch)
            for eh, bh in zip(elem_handles, batch_handles):
                assert bh.result_kappas() == eh.result_kappas()
                assert bh.changes == eh.changes

    def test_registration_mid_stream_sees_engine_state(self):
        """A manager built over an engine already fed through
        append_many must keep answering correctly afterwards."""
        rng = random.Random(7)
        points = [(rng.random(), rng.random()) for _ in range(40)]
        engine = NofNSkyline(dim=2, capacity=15)
        engine.append_many(points[:25])
        manager = ContinuousQueryManager(engine)
        handle = manager.register(10)
        reference = NofNSkyline(dim=2, capacity=15)
        for p in points[:25]:
            reference.append(p)
        for p in points[25:]:
            manager.append_many([p])
            reference.append(p)
            assert handle.result_kappas() == [
                e.kappa for e in reference.query(10)
            ]


class TestBatchOutcomeSurface:
    def test_empty_batch_is_a_no_op(self):
        engine = NofNSkyline(dim=2, capacity=5)
        engine.append((0.5, 0.5))
        result = engine.append_many([])
        assert isinstance(result, BatchOutcome)
        assert len(result) == 0
        assert list(result) == []
        assert result.batch_size == 0
        assert result.prefilter_dropped == 0
        assert engine.seen_so_far == 1

    def test_aggregates_and_iteration(self):
        engine = NofNSkyline(dim=2, capacity=2)
        engine.append((0.9, 0.1))
        result = engine.append_many([(0.8, 0.2), (0.7, 0.15), (0.1, 0.9)])
        assert result.batch_size == 3
        assert result.seen_so_far == 4
        assert [o.element.kappa for o in result] == [2, 3, 4]
        # (0.8, 0.2) is dominated in-batch by the younger (0.7, 0.15).
        assert result.prefilter_dropped == 1
        assert result.dominated_total >= 1
        # (0.9, 0.1) is incomparable to the rest and falls out of the
        # two-element window during the batch.
        assert result.expired_total >= 1

    def test_payloads_attach_to_elements(self):
        engine = NofNSkyline(dim=1, capacity=4)
        result = engine.append_many(
            [(0.3,), (0.1,)], payloads=["a", {"b": 2}]
        )
        assert [o.element.payload for o in result] == ["a", {"b": 2}]

    def test_validation_is_all_or_nothing(self):
        engine = NofNSkyline(dim=2, capacity=5)
        engine.append((0.5, 0.5))
        with pytest.raises(DimensionMismatchError):
            engine.append_many([(0.1, 0.1), (0.2, 0.2, 0.2)])
        with pytest.raises(ValueError):
            engine.append_many([(0.1, 0.1)], payloads=["x", "y"])
        assert engine.seen_so_far == 1
        assert [e.kappa for e in engine.skyline()] == [1]

    @staticmethod
    def chunked_batch():
        """A batch run in chunks of 3 over a window of 4, with window
        expiries and members killed inside their own chunk."""
        rng = random.Random(5)
        points = [(rng.randint(0, 4) / 4, rng.randint(0, 4) / 4)
                  for _ in range(40)]
        engine = NofNSkyline(dim=2, capacity=4, batch_chunk=3)
        engine.append_many(points[:6])
        return engine.append_many(points[6:]), points

    def test_columns_agree_with_outcomes(self):
        batch, points = self.chunked_batch()
        assert batch.prefilter_dropped > 0 and batch.expired_total > 0
        outcomes = batch.outcomes
        assert [o.element for o in outcomes] == batch.elements
        assert [o.seen_so_far for o in outcomes] == list(range(7, 41))
        assert [o.parent_kappa for o in outcomes] == batch.parents
        assert [
            (e, at) for at, o in enumerate(outcomes) for e in o.dominated_removed
        ] == list(zip(batch.dominated, batch.dominated_at))
        assert [
            (e, at) for at, o in enumerate(outcomes) for e in o.expired
        ] == list(zip(batch.expired, batch.expired_at))
        # Exactly what per-element ``append`` calls return.
        twin = NofNSkyline(dim=2, capacity=4)
        for p in points[:6]:
            twin.append(p)
        assert list(outcomes) == [twin.append(p) for p in points[6:]]

    def test_outcomes_are_built_once(self):
        batch, _ = self.chunked_batch()
        assert batch.outcomes is batch.outcomes
        assert tuple(batch) == batch.outcomes

    def test_aggregates_and_equality_match_the_outcomes(self):
        batch, _ = self.chunked_batch()
        outcomes = batch.outcomes
        assert len(batch) == batch.batch_size == len(outcomes) == 34
        assert batch.seen_so_far == outcomes[-1].seen_so_far == 40
        assert batch.dominated_total == sum(
            len(o.dominated_removed) for o in outcomes
        )
        assert batch.expired_total == sum(len(o.expired) for o in outcomes)
        again, _ = self.chunked_batch()
        assert again == batch
        rebuilt = BatchOutcome(outcomes, prefilter_dropped=batch.prefilter_dropped)
        assert rebuilt == batch and rebuilt.outcomes == outcomes
        assert BatchOutcome(outcomes) != batch  # prefilter_dropped differs
        assert BatchOutcome(outcomes[:-1], batch.prefilter_dropped) != batch
        assert BatchOutcome() == BatchOutcome(())
        assert BatchOutcome().seen_so_far == 0

    def test_batch_of_one_outcome_feeds_the_manager_like_the_engine(self):
        """``process(outcome)``, ``process_batch(BatchOutcome((outcome,)))``
        and ``process_batch`` of the engine's own one-point batch leave
        three managers in the same state."""
        rng = random.Random(9)
        points = [(rng.randint(0, 5) / 5, rng.randint(0, 5) / 5)
                  for _ in range(60)]
        managers = [
            ContinuousQueryManager(NofNSkyline(dim=2, capacity=6))
            for _ in range(3)
        ]
        handles = [[m.register(n) for n in (1, 3, 6)] for m in managers]
        for p in points:
            outcome = managers[0].engine.append(p)
            managers[0].process(outcome)
            managers[1].process_batch(
                BatchOutcome((managers[1].engine.append(p),))
            )
            managers[2].process_batch(managers[2].engine.append_many([p]))
            states = [
                (
                    m._m,
                    m._kappa.tolist(),
                    m._parent.tolist(),
                    [e.kappa for e in m._elements],
                    m._counts.tolist(),
                    [(h.result_kappas(), h.changes) for h in hs],
                )
                for m, hs in zip(managers, handles)
            ]
            assert states[0] == states[1] == states[2]
        for m in managers:
            m.check_invariants()


class TestBatchStats:
    def test_counters_accumulate(self):
        engine = NofNSkyline(dim=2, capacity=10)
        engine.append_many([(0.9, 0.9), (0.1, 0.1)])  # first point doomed
        engine.append_many([(0.5, 0.6)])
        stats = engine.stats
        assert stats.batches == 2
        assert stats.batch_elements == 3
        assert stats.batch_size_peak == 2
        assert stats.prefilter_dropped == 1
        assert stats.batch_size_mean == pytest.approx(1.5)
        assert stats.prefilter_kill_rate == pytest.approx(1 / 3)
        assert stats.batch_seconds_total >= 0.0
        assert stats.batch_seconds_max <= stats.batch_seconds_total

    def test_snapshot_exposes_batch_fields(self):
        engine = NofNSkyline(dim=2, capacity=10)
        engine.append_many([(0.4, 0.4)])
        snap = engine.stats.snapshot()
        for key in ("batches", "batch_size_mean", "prefilter_kill_rate",
                    "batch_seconds_mean", "batch_seconds_max"):
            assert key in snap
        raw = engine.stats.snapshot_raw()
        for key in ("batches", "batch_elements", "prefilter_dropped",
                    "batch_size_peak", "batch_seconds_total",
                    "batch_seconds_max"):
            assert key in raw


class TestRootExpiryCheck:
    def test_corrupted_root_raises_not_asserts(self):
        """The oldest-element-is-a-root safety check must survive
        ``python -O`` — a corrupted parent link raises a catchable
        :class:`StructureCorruptionError` instead of an ``assert``."""
        engine = NofNSkyline(dim=2, capacity=2)
        engine.append((0.2, 0.8))
        engine.append((0.8, 0.2))  # incomparable: both stay roots
        engine._records[1].parent_kappa = 99  # simulate corruption
        with pytest.raises(StructureCorruptionError):
            engine.append((0.9, 0.9))  # forces expiry of kappa 1

    def test_birth_parent_in_rn_at_expiry_raises(self):
        """A birth parent leaves ``R_N`` before its child: expiring a
        child whose parent is still retained raises."""
        engine = NofNSkyline(dim=2, capacity=2)
        engine.append((0.1, 0.1))
        engine.append((0.5, 0.5))  # child of kappa 1
        engine._cursor = 2  # simulate corruption: expiry skips kappa 1
        engine.append((0.9, 0.05))
        assert 1 in engine._records
        with pytest.raises(StructureCorruptionError, match="outlived"):
            engine.append((0.05, 0.9))  # forces expiry of kappa 2
