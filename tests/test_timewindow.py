"""Tests for time-based sliding windows (paper section 6 remark)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TimeWindowSkyline
from repro.baselines.naive import naive_skyline_youngest
from repro.core.persistence import dumps
from repro.exceptions import InvalidWindowError


class TestConstruction:
    def test_horizon_validation(self):
        with pytest.raises(InvalidWindowError):
            TimeWindowSkyline(dim=2, horizon=0)
        with pytest.raises(InvalidWindowError):
            TimeWindowSkyline(dim=2, horizon=-1.0)
        with pytest.raises(InvalidWindowError):
            TimeWindowSkyline(dim=2, horizon=math.nan)

    def test_fresh_engine(self):
        engine = TimeWindowSkyline(dim=2, horizon=10.0)
        assert engine.now == 0.0
        assert engine.query_last(5.0) == []


class TestAppend:
    def test_timestamps_must_increase(self):
        engine = TimeWindowSkyline(dim=1, horizon=10.0)
        engine.append((1.0,), timestamp=5.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            engine.append((1.0,), timestamp=5.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            engine.append((1.0,), timestamp=4.0)

    def test_timestamps_must_be_positive(self):
        engine = TimeWindowSkyline(dim=1, horizon=10.0)
        with pytest.raises(ValueError, match="positive"):
            engine.append((1.0,), timestamp=0.0)

    def test_now_tracks_latest(self):
        engine = TimeWindowSkyline(dim=1, horizon=10.0)
        engine.append((1.0,), timestamp=3.5)
        assert engine.now == 3.5

    def test_burst_after_quiet_expires_many_at_once(self):
        engine = TimeWindowSkyline(dim=1, horizon=2.0)
        engine.append((5.0,), timestamp=1.0)
        engine.append((6.0,), timestamp=1.5)
        engine.append((7.0,), timestamp=1.8)
        outcome = engine.append((8.0,), timestamp=10.0)
        # All three earlier samples left the 2-unit horizon together.
        assert len(outcome.expired) == 3
        assert engine.rn_size == 1


class TestNaNTimestamps:
    """NaN compares false with everything, so ``t <= 0`` and
    ``t <= previous`` both let it through; every check is written so
    that NaN fails it, before any state changes."""

    @staticmethod
    def fed():
        engine = TimeWindowSkyline(dim=2, horizon=5.0)
        engine.append((0.5, 0.2), 1.0)
        engine.append((0.2, 0.5), 2.0)
        return engine

    @pytest.mark.parametrize(
        "call",
        [
            lambda e: e.append((0.1, 0.1), math.nan),
            lambda e: e.append_many([(0.1, 0.1)], [math.nan]),
            lambda e: e.append_many([(0.1, 0.1), (0.2, 0.2)], [3.0, math.nan]),
            lambda e: e.append_many([(0.1, 0.1), (0.2, 0.2)], [math.nan, 4.0]),
        ],
    )
    def test_rejected_before_any_state_changes(self, call):
        engine = self.fed()
        before = dumps(engine)
        with pytest.raises(ValueError):
            call(engine)
        assert dumps(engine) == before
        assert engine.rn_size == 2 and engine.now == 2.0
        engine.check_invariants()
        engine.append((0.1, 0.1), 3.0)
        engine.check_invariants()


class TestQueries:
    def test_duration_validation(self):
        engine = TimeWindowSkyline(dim=1, horizon=5.0)
        with pytest.raises(InvalidWindowError):
            engine.query_last(0.0)
        with pytest.raises(InvalidWindowError):
            engine.query_last(5.1)

    def test_count_query_is_rejected(self):
        engine = TimeWindowSkyline(dim=1, horizon=5.0)
        with pytest.raises(InvalidWindowError, match="query_last"):
            engine.query(3)

    def test_window_boundary_is_closed(self):
        engine = TimeWindowSkyline(dim=1, horizon=10.0)
        engine.append((1.0,), timestamp=2.0)
        engine.append((5.0,), timestamp=6.0)
        # now = 6; last 4 units = [2, 6]: the t=2 sample is included.
        assert [e.kappa for e in engine.query_last(4.0)] == [1]

    def test_skyline_covers_horizon(self):
        engine = TimeWindowSkyline(dim=2, horizon=100.0)
        engine.append((0.5, 0.5), timestamp=1.0)
        engine.append((0.2, 0.8), timestamp=2.0)
        got = {e.kappa for e in engine.skyline()}
        assert got == {1, 2}

    def test_period_longer_than_history(self):
        engine = TimeWindowSkyline(dim=1, horizon=50.0)
        engine.append((3.0,), timestamp=1.0)
        engine.append((4.0,), timestamp=2.0)
        # 40 time units dwarf the 2 units of history: behaves like
        # "everything so far".
        assert [e.kappa for e in engine.query_last(40.0)] == [1]

    def test_payloads_round_trip(self):
        engine = TimeWindowSkyline(dim=1, horizon=5.0)
        engine.append((1.0,), timestamp=1.0, payload="sensor-9")
        [element] = engine.skyline()
        assert element.payload == "sensor-9"


timestamps = st.lists(
    st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    min_size=1,
    max_size=40,
)
coord = st.integers(0, 6).map(lambda v: v / 6)


class TestTimeWindowProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        timestamps,
        st.data(),
        st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    )
    def test_matches_oracle_at_every_step(self, gaps, data, horizon):
        engine = TimeWindowSkyline(dim=2, horizon=horizon)
        history = []  # (timestamp, point)
        t = 0.0
        for gap in gaps:
            t += gap
            point = (data.draw(coord), data.draw(coord))
            history.append((t, point))
            engine.append(point, t)
            duration = data.draw(
                st.floats(min_value=0.01, max_value=horizon, allow_nan=False)
            )
            in_window = [
                (i, p) for i, (ts, p) in enumerate(history)
                if ts >= t - duration
            ]
            expected = [
                in_window[j][0] + 1
                for j in naive_skyline_youngest([p for _, p in in_window])
            ]
            got = [e.kappa for e in engine.query_last(duration)]
            assert got == expected
            engine.check_invariants()
