"""Direct unit tests for the arrival-event records and engine stats."""

from __future__ import annotations

import pytest

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome
from repro.core.timewindow import TimeWindowSkyline
from repro.core.stats import EngineStats


def element(kappa, *values):
    return StreamElement(values or (1.0,), kappa)


class TestArrivalOutcome:
    def test_defaults_describe_a_quiet_arrival(self):
        outcome = ArrivalOutcome(element=element(1), seen_so_far=1)
        assert outcome.dominated_removed == ()
        assert outcome.parent_kappa == 0
        assert outcome.expired == ()
        assert outcome.removed_kappas == frozenset()

    def test_removed_kappas_unions_both_sources(self):
        outcome = ArrivalOutcome(
            element=element(5),
            seen_so_far=5,
            dominated_removed=(element(3), element(4)),
            expired=(element(1),),
        )
        assert outcome.removed_kappas == frozenset({1, 3, 4})

    def test_outcome_is_frozen(self):
        outcome = ArrivalOutcome(element=element(1), seen_so_far=1)
        with pytest.raises(AttributeError):
            outcome.seen_so_far = 2

    def test_expired_holds_the_elements_oldest_first(self):
        engine = TimeWindowSkyline(dim=2, horizon=2.0)
        engine.append((0.2, 0.8), timestamp=1.0)
        engine.append((0.8, 0.2), timestamp=2.0)
        outcome = engine.append((0.5, 0.5), timestamp=9.0)
        assert isinstance(outcome.expired, tuple)
        assert [e.kappa for e in outcome.expired] == [1, 2]
        assert all(isinstance(e, StreamElement) for e in outcome.expired)


class TestEngineStats:
    def test_fresh_stats_are_zero(self):
        stats = EngineStats()
        assert stats.rn_size_mean == 0.0
        assert stats.mean_result_size == 0.0
        assert stats.snapshot()["arrivals"] == 0

    def test_arrival_accounting(self):
        # Two chunks of one (``append``) account what one chunk of two
        # does.
        stats = EngineStats()
        stats.record_arrivals(1, expired=1, dominated=2, rn_size_sum=5,
                              rn_size_peak=5)
        stats.record_arrivals(1, expired=0, dominated=0, rn_size_sum=7,
                              rn_size_peak=7)
        assert stats.arrivals == 2
        assert stats.expiries == 1
        assert stats.dominated_removed == 2
        assert stats.rn_size_peak == 7
        assert stats.rn_size_mean == 6.0
        chunk = EngineStats()
        chunk.record_arrivals(2, expired=1, dominated=2, rn_size_sum=12,
                              rn_size_peak=7)
        assert chunk == stats

    def test_query_accounting(self):
        stats = EngineStats()
        stats.record_query(3)
        stats.record_query(5)
        assert stats.queries == 2
        assert stats.mean_result_size == 4.0

    def test_snapshot_raw_round_trips_every_counter(self):
        stats = EngineStats()
        stats.record_arrivals(1, expired=1, dominated=4, rn_size_sum=9,
                              rn_size_peak=9)
        stats.record_query(2)
        raw = stats.snapshot_raw()
        clone = EngineStats(**raw)
        assert clone.snapshot() == stats.snapshot()

    def test_snapshot_contains_derived_metrics(self):
        stats = EngineStats()
        stats.record_arrivals(1, expired=0, dominated=0, rn_size_sum=4,
                              rn_size_peak=4)
        snap = stats.snapshot()
        assert snap["rn_size_mean"] == 4.0
        assert "rn_size_peak" in snap and "mean_result_size" in snap
