"""Tests for engine snapshot / restore."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    N1N2Skyline,
    NofNSkyline,
    ShardedKSkyband,
    ShardedNofNSkyline,
    TimeWindowSkyline,
)
from repro.core.persistence import SnapshotError, dumps, loads, restore, snapshot
from repro.streams import materialize


class TestNofNRoundTrip:
    def test_queries_survive_round_trip(self):
        engine = NofNSkyline(dim=2, capacity=50)
        for point in materialize("anticorrelated", 2, 120, seed=1):
            engine.append(point)
        clone = restore(snapshot(engine))
        for n in range(1, 51):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]
        clone.check_invariants()

    def test_clone_keeps_evolving_identically(self):
        points = materialize("independent", 3, 150, seed=2)
        engine = NofNSkyline(dim=3, capacity=40)
        for point in points[:100]:
            engine.append(point)
        clone = restore(snapshot(engine))
        for point in points[100:]:
            engine.append(point)
            clone.append(point)
        assert engine.dominance_graph_edges() == clone.dominance_graph_edges()
        assert [e.kappa for e in engine.skyline()] == [
            e.kappa for e in clone.skyline()
        ]

    def test_payloads_and_stats_preserved(self):
        engine = NofNSkyline(dim=1, capacity=5)
        engine.append((1.0,), payload={"deal": 1})
        engine.query(1)
        clone = restore(snapshot(engine))
        assert clone.stats.arrivals == 1
        assert clone.stats.queries == 1  # the clone's own queries: none yet
        [element] = clone.skyline()
        assert element.payload == {"deal": 1}

    def test_json_round_trip(self):
        engine = NofNSkyline(dim=2, capacity=10)
        for point in materialize("correlated", 2, 30, seed=3):
            engine.append(point)
        clone = loads(dumps(engine))
        assert [e.kappa for e in clone.skyline()] == [
            e.kappa for e in engine.skyline()
        ]

    def test_empty_engine_round_trip(self):
        clone = restore(snapshot(NofNSkyline(dim=2, capacity=7)))
        assert clone.seen_so_far == 0
        assert clone.skyline() == []
        clone.append((0.5, 0.5))
        assert [e.kappa for e in clone.skyline()] == [1]


class TestTimeWindowRoundTrip:
    def test_clock_and_horizon_preserved(self):
        engine = TimeWindowSkyline(dim=2, horizon=10.0)
        engine.append((0.5, 0.5), timestamp=1.5)
        engine.append((0.2, 0.8), timestamp=3.0)
        clone = restore(snapshot(engine))
        assert isinstance(clone, TimeWindowSkyline)
        assert clone.now == 3.0
        assert clone.horizon == 10.0
        assert [e.kappa for e in clone.query_last(5.0)] == [
            e.kappa for e in engine.query_last(5.0)
        ]
        # Evolution continues: timestamps must still increase.
        clone.append((0.1, 0.1), timestamp=4.0)
        with pytest.raises(ValueError):
            clone.append((0.3, 0.3), timestamp=4.0)


class TestN1N2RoundTrip:
    def test_all_slices_survive_round_trip(self):
        engine = N1N2Skyline(dim=2, capacity=20)
        for point in materialize("anticorrelated", 2, 50, seed=4):
            engine.append(point)
        clone = restore(snapshot(engine))
        for n1 in range(1, 21, 3):
            for n2 in range(n1, 21, 3):
                assert [e.kappa for e in clone.query(n1, n2)] == [
                    e.kappa for e in engine.query(n1, n2)
                ]
        clone.check_invariants()

    def test_ancestors_preserved(self):
        engine = N1N2Skyline(dim=2, capacity=10)
        for point in materialize("independent", 2, 25, seed=5):
            engine.append(point)
        clone = restore(snapshot(engine))
        for element in engine.window_elements():
            assert clone.ancestors(element.kappa) == (
                engine.ancestors(element.kappa)
            )

    def test_clone_keeps_evolving_identically(self):
        points = materialize("independent", 2, 80, seed=6)
        engine = N1N2Skyline(dim=2, capacity=15)
        for point in points[:50]:
            engine.append(point)
        clone = restore(snapshot(engine))
        for point in points[50:]:
            engine.append(point)
            clone.append(point)
        assert [e.kappa for e in clone.query(3, 12)] == [
            e.kappa for e in engine.query(3, 12)
        ]
        clone.check_invariants()


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(SnapshotError):
            restore("not a dict")  # type: ignore[arg-type]

    def test_rejects_unknown_version(self):
        snap = snapshot(NofNSkyline(dim=1, capacity=2))
        snap["format"] = 99
        with pytest.raises(SnapshotError, match="format"):
            restore(snap)

    def test_rejects_unknown_kind(self):
        snap = snapshot(NofNSkyline(dim=1, capacity=2))
        snap["kind"] = "mystery"
        with pytest.raises(SnapshotError, match="kind"):
            restore(snap)

    def test_rejects_missing_parent(self):
        engine = NofNSkyline(dim=1, capacity=4)
        engine.append((1.0,))
        engine.append((2.0,))  # child of kappa 1
        snap = snapshot(engine)
        snap["records"] = [r for r in snap["records"] if r["kappa"] != 1]
        with pytest.raises(SnapshotError, match="missing"):
            restore(snap)

    def test_rejects_unsupported_engine(self):
        with pytest.raises(SnapshotError, match="unsupported"):
            snapshot(object())  # type: ignore[arg-type]


class TestPropertyRoundTrip:
    coord = st.integers(0, 6).map(lambda v: v / 6)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
    )
    def test_nofn_round_trip_equivalence(self, history, capacity):
        engine = NofNSkyline(dim=2, capacity=capacity)
        for point in history:
            engine.append(point)
        clone = restore(snapshot(engine))
        clone.check_invariants()
        for n in range(1, capacity + 1):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
    )
    def test_n1n2_round_trip_equivalence(self, history, capacity):
        engine = N1N2Skyline(dim=2, capacity=capacity)
        for point in history:
            engine.append(point)
        clone = restore(snapshot(engine))
        clone.check_invariants()
        for n1 in range(1, capacity + 1, 2):
            for n2 in range(n1, capacity + 1, 2):
                assert [e.kappa for e in clone.query(n1, n2)] == [
                    e.kappa for e in engine.query(n1, n2)
                ]


class TestRTreeConfigRoundTrip:
    """Snapshots must record the R-tree fan-out so a restored engine
    evolves identically — and must still accept older snapshots that
    predate the ``rtree`` section."""

    coord = st.integers(0, 6).map(lambda v: v / 6)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
        st.integers(4, 16),
    )
    def test_nofn_tuning_round_trips(self, history, capacity, max_entries):
        engine = NofNSkyline(
            dim=2, capacity=capacity, rtree_max_entries=max_entries
        )
        for point in history:
            engine.append(point)
        snap = snapshot(engine)
        assert snap["rtree"] == {"max_entries": max_entries}
        clone = restore(snap)
        assert clone._rtree.max_entries == max_entries
        clone.check_invariants()
        for n in range(1, capacity + 1):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]

    def test_timewindow_tuning_round_trips(self):
        engine = TimeWindowSkyline(dim=2, horizon=5.0, rtree_max_entries=6)
        for i, point in enumerate(materialize("independent", 2, 60, seed=4)):
            engine.append(point, float(i + 1))
        clone = restore(snapshot(engine))
        assert clone._rtree.max_entries == 6
        assert [e.kappa for e in clone.skyline()] == [
            e.kappa for e in engine.skyline()
        ]

    def test_n1n2_tuning_round_trips(self):
        engine = N1N2Skyline(dim=2, capacity=20, rtree_max_entries=8)
        for point in materialize("anticorrelated", 2, 50, seed=9):
            engine.append(point)
        clone = restore(snapshot(engine))
        assert clone._rtree.max_entries == 8
        for n1, n2 in ((1, 20), (5, 10), (20, 20)):
            assert [e.kappa for e in clone.query(n1, n2)] == [
                e.kappa for e in engine.query(n1, n2)
            ]

    def test_old_snapshot_without_rtree_section_restores(self):
        """Snapshots written before the rtree section existed must load
        with the default tuning."""
        engine = NofNSkyline(dim=2, capacity=10)
        for point in materialize("independent", 2, 30, seed=3):
            engine.append(point)
        snap = snapshot(engine)
        del snap["rtree"]
        clone = restore(snap)
        assert clone._rtree.max_entries == 12
        assert [e.kappa for e in clone.skyline()] == [
            e.kappa for e in engine.skyline()
        ]

    def test_malformed_rtree_section_is_rejected(self):
        engine = NofNSkyline(dim=2, capacity=5)
        engine.append((0.5, 0.5))
        snap = snapshot(engine)
        snap["rtree"] = "bogus"
        with pytest.raises(SnapshotError):
            restore(snap)

    def test_clone_with_tuning_keeps_evolving_identically(self):
        points = materialize("anticorrelated", 2, 120, seed=6)
        engine = NofNSkyline(dim=2, capacity=30, rtree_max_entries=5)
        for point in points[:80]:
            engine.append(point)
        clone = restore(snapshot(engine))
        for point in points[80:]:
            engine.append(point)
            clone.append(point)
        assert engine.dominance_graph_edges() == clone.dominance_graph_edges()
        assert [e.kappa for e in engine.skyline()] == [
            e.kappa for e in clone.skyline()
        ]


class TestOlderFormatSnapshots:
    """Snapshots from before the pointer layout, the leaf kernels and
    the split / min-fan-out knobs were removed carry those keys.  They
    must still restore, answer like the engine that wrote them, and keep
    evolving identically on the same stream."""

    KINDS = ("nofn", "timewindow", "n1n2", "sharded-nofn", "sharded-skyband")

    @staticmethod
    def build(kind):
        if kind == "nofn":
            return NofNSkyline(dim=2, capacity=15, rtree_max_entries=8)
        if kind == "timewindow":
            return TimeWindowSkyline(dim=2, horizon=6.0, rtree_max_entries=8)
        if kind == "n1n2":
            return N1N2Skyline(dim=2, capacity=15, rtree_max_entries=8)
        if kind == "sharded-nofn":
            return ShardedNofNSkyline(
                dim=2, capacity=15, shards=2, rtree_max_entries=8
            )
        return ShardedKSkyband(
            dim=2, capacity=15, k=2, shards=2, rtree_max_entries=8
        )

    @staticmethod
    def feed(engine, points, start):
        for i, point in enumerate(points, start=start):
            if isinstance(engine, TimeWindowSkyline):
                engine.append(point, float(i))
            else:
                engine.append(point)

    @staticmethod
    def answers(engine):
        if isinstance(engine, TimeWindowSkyline):
            return [[e.kappa for e in engine.query_last(d)]
                    for d in (1.0, 3.0, 6.0)]
        if isinstance(engine, N1N2Skyline):
            return [[e.kappa for e in engine.query(n1, n2)]
                    for n1, n2 in ((1, 15), (3, 9), (15, 15))]
        return [[e.kappa for e in engine.query(n)] for n in (1, 7, 15)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_older_format_restores_and_evolves(self, kind):
        points = materialize("anticorrelated", 2, 80, seed=21)
        engine = self.build(kind)
        self.feed(engine, points[:50], start=1)
        snap = snapshot(engine)
        # New snapshots carry only the live knobs.
        assert snap["rtree"] == {"max_entries": 8}
        assert snap["query"] == {"cache": True}
        assert snap["kind"] == kind
        snap["rtree"].update(min_entries=3, split="rstar", layout="pointer")
        snap["query"]["kernels"] = "off"
        clone = restore(json.loads(json.dumps(snap)))
        try:
            assert self.answers(clone) == self.answers(engine)
            self.feed(engine, points[50:], start=51)
            self.feed(clone, points[50:], start=51)
            assert self.answers(clone) == self.answers(engine)
            clone.check_invariants()
            if kind.startswith("sharded"):
                assert clone.retained_union(1) == engine.retained_union(1)
            else:
                assert snapshot(clone)["records"] == snapshot(engine)["records"]
        finally:
            if kind.startswith("sharded"):
                clone.close()
                engine.close()
