"""Behavioural tests for :class:`repro.core.nofn.NofNSkyline`.

Covers construction, window mechanics (expiry, re-rooting, domination
pruning), query semantics and edge cases, the arrival outcomes, and the
engine statistics.  Property-based oracle comparisons live in
``test_nofn_property.py``.
"""

from __future__ import annotations

import pytest

from repro import NofNSkyline
from repro.exceptions import InvalidWindowError

from tests.conftest import window_skyline_kappas


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(InvalidWindowError):
            NofNSkyline(dim=2, capacity=0)
        with pytest.raises(ValueError, match="dimension"):
            NofNSkyline(dim=0, capacity=5)

    def test_fresh_engine_is_empty(self):
        engine = NofNSkyline(dim=2, capacity=5)
        assert engine.seen_so_far == 0
        assert engine.rn_size == 0
        assert len(engine) == 0
        assert engine.query(3) == []
        assert engine.skyline() == []


class TestAppend:
    def test_kappa_assignment_is_sequential(self):
        engine = NofNSkyline(dim=1, capacity=10)
        for i in range(3):
            outcome = engine.append((float(i + 10),))
            assert outcome.element.kappa == i + 1
            assert outcome.seen_so_far == i + 1
        assert engine.seen_so_far == 3

    def test_payload_round_trips(self):
        engine = NofNSkyline(dim=1, capacity=3)
        engine.append((1.0,), payload="order-77")
        [element] = engine.skyline()
        assert element.payload == "order-77"

    def test_dominated_newcomer_is_still_kept(self):
        """A newcomer dominated by older elements is never redundant —
        it is the *youngest*, so it answers small-n queries."""
        engine = NofNSkyline(dim=2, capacity=5)
        engine.append((0.1, 0.1))
        outcome = engine.append((0.9, 0.9))
        assert outcome.parent_kappa == 1
        assert engine.rn_size == 2
        assert [e.kappa for e in engine.query(1)] == [2]

    def test_dominating_newcomer_prunes_everything(self):
        engine = NofNSkyline(dim=2, capacity=5)
        engine.append((0.5, 0.5))
        engine.append((0.6, 0.4))
        outcome = engine.append((0.1, 0.1))
        assert {e.kappa for e in outcome.dominated_removed} == {1, 2}
        assert engine.rn_size == 1
        assert [e.kappa for e in engine.skyline()] == [3]

    def test_duplicate_points_keep_youngest(self):
        engine = NofNSkyline(dim=2, capacity=5)
        engine.append((0.5, 0.5))
        outcome = engine.append((0.5, 0.5))
        assert [e.kappa for e in outcome.dominated_removed] == [1]
        assert [e.kappa for e in engine.skyline()] == [2]


class TestExpiry:
    def test_window_slides(self):
        engine = NofNSkyline(dim=1, capacity=2)
        engine.append((3.0,))
        engine.append((2.0,))
        outcome = engine.append((5.0,))
        # kappa 1 (value 3.0) was already redundant (dominated by 2.0),
        # so nothing expires from R_N this arrival.
        assert outcome.expired == ()
        assert [e.kappa for e in engine.skyline()] == [2]

    def test_expired_parent_reads_as_root(self):
        """A child keeps its birth parent, which reads as a root once
        it has expired."""
        engine = NofNSkyline(dim=2, capacity=3)
        engine.append((0.1, 0.1))  # kappa 1: will critically dominate 2, 3
        engine.append((0.5, 0.5))  # kappa 2: child of 1
        engine.append((0.6, 0.6))  # kappa 3: child of 2 (youngest dominator)
        assert engine.critical_parent(2).kappa == 1
        outcome = engine.append((0.9, 0.9))  # kappa 4: expels kappa 1
        [expired] = outcome.expired
        assert expired.kappa == 1
        assert engine._records[2].parent_kappa == 1  # the birth parent
        # kappa 2 now reads as a root: it answers the full-window query.
        assert engine.critical_parent(2) is None
        assert (0, 2) in engine.dominance_graph_edges()
        assert [e.kappa for e in engine.skyline()] == [2]

    def test_capacity_one_window(self):
        engine = NofNSkyline(dim=1, capacity=1)
        for i in range(5):
            engine.append((float(10 - i),))
            assert [e.kappa for e in engine.query(1)] == [i + 1]
            assert engine.rn_size == 1

    def test_old_skyline_point_survives_until_expiry(self):
        engine = NofNSkyline(dim=2, capacity=4)
        engine.append((0.0, 0.0))  # unbeatable
        for i in range(3):
            engine.append((0.5 + i / 10, 0.5))
        assert 1 in [e.kappa for e in engine.skyline()]
        engine.append((0.9, 0.9))  # pushes kappa 1 out of the window
        assert 1 not in [e.kappa for e in engine.skyline()]


class TestQueries:
    @pytest.fixture
    def engine(self):
        engine = NofNSkyline(dim=2, capacity=8)
        self.history = [
            (0.7, 0.3), (0.2, 0.9), (0.5, 0.5), (0.3, 0.6),
            (0.9, 0.1), (0.4, 0.4), (0.8, 0.8), (0.1, 0.95),
            (0.6, 0.2), (0.35, 0.55),
        ]
        for point in self.history:
            engine.append(point)
        return engine

    def test_every_n_matches_oracle(self, engine):
        for n in range(1, 9):
            assert [e.kappa for e in engine.query(n)] == (
                window_skyline_kappas(self.history, n)
            )

    def test_query_out_of_range(self, engine):
        with pytest.raises(InvalidWindowError):
            engine.query(0)
        with pytest.raises(InvalidWindowError):
            engine.query(9)

    def test_query_larger_than_stream_clamps(self):
        engine = NofNSkyline(dim=1, capacity=100)
        engine.append((2.0,))
        engine.append((1.0,))
        # Only 2 elements seen; n = 50 degenerates to "skyline so far".
        assert [e.kappa for e in engine.query(50)] == [2]

    def test_results_sorted_by_kappa(self, engine):
        kappas = [e.kappa for e in engine.query(8)]
        assert kappas == sorted(kappas)

    def test_skyline_equals_query_capacity(self, engine):
        assert engine.skyline() == engine.query(8)

    def test_query_does_not_mutate(self, engine):
        before = engine.dominance_graph_edges()
        engine.query(5)
        engine.query(2)
        assert engine.dominance_graph_edges() == before
        engine.check_invariants()


class TestOutcomes:
    def test_outcome_reports_parent(self):
        engine = NofNSkyline(dim=2, capacity=4)
        engine.append((0.5, 0.5))
        outcome = engine.append((0.2, 0.2))
        assert outcome.parent_kappa == 0  # dominates its elder: a root
        outcome = engine.append((0.7, 0.7))
        assert outcome.parent_kappa == 2

    def test_removed_kappas_union(self):
        engine = NofNSkyline(dim=2, capacity=2)
        engine.append((0.9, 0.2))
        engine.append((0.2, 0.9))
        outcome = engine.append((0.1, 0.1))
        # kappa 1 expired AND kappa 2 dominated.
        assert outcome.removed_kappas == frozenset({1, 2})

    def test_expired_record_is_immutable_snapshot(self):
        engine = NofNSkyline(dim=2, capacity=2)
        engine.append((0.1, 0.1))
        engine.append((0.5, 0.5))
        outcome = engine.append((0.6, 0.4))
        [expired] = outcome.expired
        assert expired.kappa == 1
        with pytest.raises(AttributeError):
            outcome.expired = ()  # frozen dataclass


class TestStats:
    def test_counters_accumulate(self):
        engine = NofNSkyline(dim=2, capacity=3)
        for point in [(0.5, 0.5), (0.4, 0.6), (0.1, 0.1), (0.9, 0.9)]:
            engine.append(point)
        engine.query(2)
        engine.query(3)
        snap = engine.stats.snapshot()
        assert snap["arrivals"] == 4
        assert snap["queries"] == 2
        assert snap["dominated_removed"] >= 2  # (0.1,0.1) pruned two
        assert snap["rn_size_peak"] >= 2
        assert engine.stats.rn_size_mean > 0

    def test_mean_result_size(self):
        engine = NofNSkyline(dim=1, capacity=4)
        engine.append((1.0,))
        engine.query(1)
        assert engine.stats.mean_result_size == 1.0


class TestInvariants:
    def test_long_adversarial_run(self, rng):
        engine = NofNSkyline(dim=3, capacity=12)
        for step in range(400):
            point = tuple(rng.randrange(6) / 6 for _ in range(3))
            engine.append(point)
            if step % 20 == 0:
                engine.check_invariants()
        engine.check_invariants()
