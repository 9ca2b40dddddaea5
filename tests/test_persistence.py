"""Tests for engine snapshot / restore."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ContinuousQueryManager,
    KSkybandEngine,
    N1N2Skyline,
    NofNSkyline,
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


class TestKSkybandRoundTrip:
    """A k-skyband snapshot holds ``R_N^k`` as flat, kappa-sorted
    records; restore replays them into one engine."""

    @staticmethod
    def answers(engine):
        return [
            [e.kappa for e in engine.query(n)]
            for n in range(1, engine.capacity + 1)
        ]

    @staticmethod
    def retained(engine):
        return [(kappa, r.younger) for kappa, r in sorted(engine._records.items())]

    def test_every_window_survives_round_trip(self):
        engine = KSkybandEngine(dim=3, capacity=40, k=3)
        for point in materialize("anticorrelated", 3, 120, seed=7):
            engine.append(point)
        snap = snapshot(engine)
        assert snap["kind"] == "skyband"
        assert [r["kappa"] for r in snap["records"]] == sorted(engine._records)
        clone = restore(snap, sanitize="full")
        assert type(clone) is KSkybandEngine and clone.k == 3
        assert self.answers(clone) == self.answers(engine)
        assert self.retained(clone) == self.retained(engine)
        clone.check_invariants()

    def test_clone_keeps_evolving_identically(self):
        # A coarse grid: exact ties and duplicates on every axis.
        points = [
            tuple(round(v * 4) / 4 for v in point)
            for point in materialize("independent", 2, 160, seed=8)
        ]
        engine = KSkybandEngine(dim=2, capacity=30, k=2)
        engine.append_many(points[:100])
        clone = loads(dumps(engine))
        for point in points[100:130]:
            engine.append(point)
            clone.append(point)
            assert self.answers(clone) == self.answers(engine)
        engine.append_many(points[130:])
        clone.append_many(points[130:])
        assert self.answers(clone) == self.answers(engine)
        assert self.retained(clone) == self.retained(engine)
        clone.check_invariants()

    def test_knobs_payloads_and_stats_preserved(self):
        engine = KSkybandEngine(
            dim=1, capacity=5, k=2, sanitize="full", query_cache=False,
            batch_chunk=3,
        )
        engine.append((1.0,), payload={"deal": 1})
        engine.append((2.0,))
        engine.query(2)
        clone = restore(snapshot(engine))
        assert clone.sanitize_mode == "full"
        assert clone.stab_cache is None
        assert clone.batch_chunk == engine.batch_chunk
        assert clone.stats.arrivals == 2
        assert clone.stats.queries == 1
        assert [(e.kappa, e.payload) for e in clone.skyband()] == [
            (1, {"deal": 1}), (2, None),
        ]

    def test_restored_engine_checkpoints_again(self):
        engine = KSkybandEngine(dim=2, capacity=25, k=3)
        for point in materialize("anticorrelated", 2, 70, seed=9):
            engine.append(point)
        snap = json.loads(dumps(engine))
        assert snapshot(restore(snap)) == snap

    def test_empty_engine_round_trip(self):
        clone = restore(snapshot(KSkybandEngine(dim=2, capacity=7, k=2)))
        assert clone.seen_so_far == 0
        assert clone.skyband() == []
        clone.append((0.5, 0.5))
        assert [e.kappa for e in clone.skyband()] == [1]


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

    @staticmethod
    def n1n2_snapshot():
        """``N = 5`` after 12 arrivals: kappas 8..12, where 8 and 9 are
        superseded by 11 (``b = 11``), 10 and 11 are in ``R_N``, and 12
        has critical ancestor 10."""
        engine = N1N2Skyline(dim=2, capacity=5)
        for point in materialize("independent", 2, 12, seed=1):
            engine.append(point)
        snap = snapshot(engine)
        assert [(r["kappa"], r["a"], r["b"]) for r in snap["records"]] == [
            (8, 0, 11), (9, 0, 11), (10, 0, None), (11, 0, None),
            (12, 10, None),
        ]
        return snap

    @staticmethod
    def record(snap, kappa):
        return next(r for r in snap["records"] if r["kappa"] == kappa)

    N1N2_DEFECTS = {
        "hole": lambda s, rec: s["records"].remove(rec(s, 9)),
        "beyond-seen": lambda s, rec: s["records"].append(
            dict(rec(s, 12), kappa=40)
        ),
        "expired": lambda s, rec: s["records"].insert(
            0, dict(rec(s, 8), kappa=7)
        ),
        "duplicate": lambda s, rec: s["records"].append(dict(rec(s, 10))),
        "a-not-older": lambda s, rec: rec(s, 12).update(a=12),
        "a-outside-window": lambda s, rec: rec(s, 12).update(a=3),
        "finite-b-in-rn": lambda s, rec: rec(s, 10).update(b=11),
        "no-b-superseded": lambda s, rec: rec(s, 8).update(b=None),
        "b-not-younger": lambda s, rec: rec(s, 8).update(b=8),
        "b-beyond-seen": lambda s, rec: rec(s, 8).update(b=13),
        "wrong-dimension": lambda s, rec: rec(s, 9).update(values=[0.5]),
    }

    @pytest.mark.parametrize("defect", sorted(N1N2_DEFECTS))
    def test_rejects_malformed_n1n2_window(self, defect):
        snap = self.n1n2_snapshot()
        restore(json.loads(json.dumps(snap))).check_invariants()
        self.N1N2_DEFECTS[defect](snap, self.record)
        with pytest.raises(SnapshotError):
            restore(snap)

    @staticmethod
    def continuous_snapshot():
        """``N = 20`` with query ids 1 and 2 (``next_id`` 3)."""
        manager = ContinuousQueryManager(NofNSkyline(dim=2, capacity=20))
        for n in (5, 12):
            manager.register(n)
        for point in materialize("independent", 2, 30, seed=3):
            manager.append(point)
        return snapshot(manager)

    # One defect per registry rule.
    CONTINUOUS_DEFECTS = {
        "id-below-one": lambda s: s["queries"][0].update(id=0),
        "duplicate-id": lambda s: s["queries"][1].update(id=1),
        "next-id-collides": lambda s: s.update(next_id=1),
        "n-outside-window": lambda s: s["queries"][0].update(n=500),
        "negative-changes": lambda s: s["queries"][0].update(changes=-7),
    }

    @pytest.mark.parametrize("defect", sorted(CONTINUOUS_DEFECTS))
    def test_rejects_malformed_continuous_registry(self, defect):
        snap = self.continuous_snapshot()
        clone = restore(json.loads(json.dumps(snap)))
        clone.check_invariants()
        assert clone.register(4).query_id == 3 and len(clone) == 3
        self.CONTINUOUS_DEFECTS[defect](snap)
        with pytest.raises(SnapshotError):
            restore(snap)


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

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
        st.integers(1, 3),
        st.data(),
    )
    def test_skyband_round_trip_equivalence(self, history, capacity, k, data):
        cut = data.draw(st.integers(0, len(history)), label="cut")
        engine = KSkybandEngine(dim=2, capacity=capacity, k=k)
        engine.append_many(history[:cut])
        clone = restore(snapshot(engine))
        clone.check_invariants()
        for point in history[cut:]:
            engine.append(point)
            clone.append(point)
        for n in range(1, capacity + 1):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]


class TestRTreeConfigRoundTrip:
    """Snapshots written before the dense index record the R-tree
    fan-out in an ``rtree`` section.  Its settings select nothing any
    more: new snapshots omit it, and old ones restore and evolve exactly
    like the engine that wrote them, whatever fan-out they carry.  A
    section that is not a dict is still rejected."""

    coord = st.integers(0, 6).map(lambda v: v / 6)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
        st.integers(4, 16),
    )
    def test_nofn_tuning_round_trips(self, history, capacity, max_entries):
        engine = NofNSkyline(dim=2, capacity=capacity)
        for point in history:
            engine.append(point)
        snap = snapshot(engine)
        assert "rtree" not in snap
        snap["rtree"] = {"max_entries": max_entries}
        clone = restore(snap)
        clone.check_invariants()
        for n in range(1, capacity + 1):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]

    def test_timewindow_tuning_round_trips(self):
        engine = TimeWindowSkyline(dim=2, horizon=5.0)
        for i, point in enumerate(materialize("independent", 2, 60, seed=4)):
            engine.append(point, float(i + 1))
        snap = snapshot(engine)
        snap["rtree"] = {"max_entries": 6}
        clone = restore(snap)
        assert [e.kappa for e in clone.skyline()] == [
            e.kappa for e in engine.skyline()
        ]

    def test_n1n2_tuning_round_trips(self):
        engine = N1N2Skyline(dim=2, capacity=20)
        for point in materialize("anticorrelated", 2, 50, seed=9):
            engine.append(point)
        snap = snapshot(engine)
        snap["rtree"] = {"max_entries": 8}
        clone = restore(snap)
        for n1, n2 in ((1, 20), (5, 10), (20, 20)):
            assert [e.kappa for e in clone.query(n1, n2)] == [
                e.kappa for e in engine.query(n1, n2)
            ]

    def test_old_snapshot_without_rtree_section_restores(self):
        """Snapshots without the section (written before it existed,
        and again since it was retired) load unchanged."""
        engine = NofNSkyline(dim=2, capacity=10)
        for point in materialize("independent", 2, 30, seed=3):
            engine.append(point)
        snap = snapshot(engine)
        assert "rtree" not in snap
        clone = restore(snap)
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
        engine = NofNSkyline(dim=2, capacity=30)
        for point in points[:80]:
            engine.append(point)
        snap = snapshot(engine)
        snap["rtree"] = {"max_entries": 5}
        clone = restore(snap)
        for point in points[80:]:
            engine.append(point)
            clone.append(point)
        assert engine.dominance_graph_edges() == clone.dominance_graph_edges()
        assert [e.kappa for e in engine.skyline()] == [
            e.kappa for e in clone.skyline()
        ]


class TestRetiredRestoreOverrides:
    """``restore`` and ``loads`` took ``shards`` / ``backend`` overrides
    for the sharded routers; with the routers gone they take neither."""

    @pytest.mark.parametrize("override", [{"shards": 2}, {"backend": "serial"}])
    def test_restore_and_loads_reject_the_router_overrides(self, override):
        engine = NofNSkyline(dim=2, capacity=4)
        engine.append((0.5, 0.5))
        with pytest.raises(TypeError):
            restore(snapshot(engine), **override)
        with pytest.raises(TypeError):
            loads(dumps(engine), **override)


class TestOlderFormatSnapshots:
    """Snapshots from before the dense index carry an ``rtree`` section
    (``max_entries``), and older ones also the pointer layout, the leaf
    kernels and the split / min-fan-out knobs.  They must still restore,
    answer like the engine that wrote them, and keep evolving
    identically on the same stream.

    The sharded kinds were written by the retired routers (two shards)
    from the same stream; ``tests/fixtures/snapshots`` holds them.  They
    restore into one engine, which must then match a single engine fed
    that stream."""

    KINDS = ("nofn", "timewindow", "n1n2", "sharded-nofn", "sharded-skyband")
    SHARDED = {
        "sharded-nofn": "sharded_nofn_anticorrelated_d2_s2.json",
        "sharded-skyband": "sharded_skyband_anticorrelated_d2_k2_s2.json",
    }

    @staticmethod
    def build(kind):
        if kind in ("nofn", "sharded-nofn"):
            return NofNSkyline(dim=2, capacity=15)
        if kind == "timewindow":
            return TimeWindowSkyline(dim=2, horizon=6.0)
        if kind == "n1n2":
            return N1N2Skyline(dim=2, capacity=15)
        return KSkybandEngine(dim=2, capacity=15, k=2)

    @classmethod
    def written_snapshot(cls, kind, engine, points):
        if kind not in cls.SHARDED:
            return snapshot(engine)
        path = Path(__file__).parent / "fixtures" / "snapshots" / cls.SHARDED[kind]
        doc = json.loads(path.read_text())
        assert doc["stream"] == [list(point) for point in points]
        return doc["snapshot"]

    @staticmethod
    def retained(engine):
        if isinstance(engine, KSkybandEngine):
            return sorted(engine._records)
        return snapshot(engine)["records"]

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

    def check_restores_and_evolves(self, kind, older_keys):
        points = materialize("anticorrelated", 2, 80, seed=21)
        engine = self.build(kind)
        self.feed(engine, points[:50], start=1)
        snap = self.written_snapshot(kind, engine, points[:50])
        # New snapshots carry only the live knobs; n1n2 has no query
        # knob left.
        assert "rtree" not in snap
        assert snap.get("query") == (
            None if kind == "n1n2" else {"cache": True}
        )
        assert snap["kind"] == kind
        older_keys(snap)
        clone = restore(json.loads(json.dumps(snap)))
        assert self.answers(clone) == self.answers(engine)
        self.feed(engine, points[50:], start=51)
        self.feed(clone, points[50:], start=51)
        assert self.answers(clone) == self.answers(engine)
        clone.check_invariants()
        assert self.retained(clone) == self.retained(engine)

    @pytest.mark.parametrize("kind", KINDS)
    def test_older_format_restores_and_evolves(self, kind):
        def older_keys(snap):
            snap["rtree"] = {
                "max_entries": 8, "min_entries": 3, "split": "rstar",
                "layout": "pointer",
            }
            # n1n2 snapshots of that age also recorded the stab cache
            # knob, here switched off.
            snap.setdefault("query", {"cache": False})["kernels"] = "off"

        self.check_restores_and_evolves(kind, older_keys)

    @pytest.mark.parametrize("kind", KINDS)
    def test_max_entries_snapshot_restores_and_evolves(self, kind):
        """The format the R-tree fan-out knob last wrote."""

        def older_keys(snap):
            snap["rtree"] = {"max_entries": 8}

        self.check_restores_and_evolves(kind, older_keys)
