"""Snapshots of the retired sharded routers restore into one engine.

The files under ``tests/fixtures/snapshots/`` were written by
``repro.core.persistence.snapshot`` from ``ShardedNofNSkyline`` and
``ShardedKSkyband`` routers (2-4 shards, serial and process backends)
before the routers were removed.  Most streams are small integer grids,
so they hold exact ties and duplicates; the ``anticorrelated`` pair
holds the stream that ``TestOlderFormatSnapshots`` in
``test_persistence.py`` feeds.  Each file holds:

* ``stream`` / ``payloads`` — what the router was fed;
* ``snapshot`` — the router's flat, kappa-sorted record union;
* ``answers`` — the router's ``query(n)`` kappas for every ``n``;
* ``more`` — further points to append after the restore.

A sharded snapshot replays into a :class:`NofNSkyline` or a
:class:`KSkybandEngine`, which must then answer exactly like a single
engine fed the same stream, before and after further arrivals.  Beyond
the fixtures, :class:`TestRoundRobinUnions` builds sharded snapshots
from hypothesis streams, each shard's retained set taken from a single
engine fed that shard's sub-stream.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KSkybandEngine, NofNSkyline
from repro.core.persistence import SnapshotError, dumps, loads, restore, snapshot

FIXTURES = sorted(
    (Path(__file__).parent / "fixtures" / "snapshots").glob("sharded_*.json")
)


def load(path):
    return json.loads(path.read_text())


def fed_single_engine(doc):
    snap = doc["snapshot"]
    if snap["kind"] == "sharded-skyband":
        engine = KSkybandEngine(snap["dim"], snap["capacity"], snap["k"])
    else:
        engine = NofNSkyline(snap["dim"], snap["capacity"])
    payloads = doc["payloads"] or [None] * len(doc["stream"])
    for point, payload in zip(doc["stream"], payloads):
        engine.append(point, payload)
    return engine


def answers(engine):
    return [
        [e.kappa for e in engine.query(n)]
        for n in range(1, engine.capacity + 1)
    ]


def retained(engine):
    """What an engine keeps, read without running a query: a
    NofNSkyline's records (labels and critical parents included) and
    dominance edges; a KSkybandEngine's kappas with their younger
    dominator counts.  A replayed band record may list different older
    dominators than the single engine's when the records lack one that
    no shard kept, so those are left out; the answers are compared
    separately."""
    if isinstance(engine, KSkybandEngine):
        return [(kappa, r.younger) for kappa, r in sorted(engine._records.items())]
    return snapshot(engine)["records"], sorted(engine.dominance_graph_edges())


def test_fixture_set_covers_both_kinds():
    kinds = {load(path)["snapshot"]["kind"] for path in FIXTURES}
    assert kinds == {"sharded-nofn", "sharded-skyband"}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
class TestShardedFixtures:
    def test_restores_into_the_single_engine_type(self, path):
        snap = load(path)["snapshot"]
        restored = restore(snap)
        expected = (
            KSkybandEngine if snap["kind"] == "sharded-skyband" else NofNSkyline
        )
        assert type(restored) is expected
        assert restored.seen_so_far == snap["seen_so_far"]
        assert restored.stats.arrivals == snap["stats"]["arrivals"]

    def test_answers_match_a_single_engine_before_and_after_arrivals(self, path):
        doc = load(path)
        restored = restore(doc["snapshot"], sanitize="full")
        reference = fed_single_engine(doc)
        assert restored.sanitize_mode == "full"
        assert answers(restored) == answers(reference)
        assert answers(restored) == [
            doc["answers"][str(n)]
            for n in range(1, doc["snapshot"]["capacity"] + 1)
        ]
        restored.check_invariants()
        for point in doc["more"]:
            restored.append(point)
            reference.append(point)
            assert answers(restored) == answers(reference)
        restored.check_invariants()

    def test_retained_set_and_payloads_match(self, path):
        doc = load(path)
        restored = restore(doc["snapshot"])
        reference = fed_single_engine(doc)
        assert len(restored) == len(reference)
        for n in (1, restored.capacity):
            assert [(e.kappa, e.values, e.payload) for e in restored.query(n)] == [
                (e.kappa, e.values, e.payload) for e in reference.query(n)
            ]

    def test_recorded_knobs_restore(self, path):
        snap = load(path)["snapshot"]
        snap["batch_chunk"] = 13
        snap["query"] = {"cache": False}
        # Older snapshots also carry the retired R-tree section.
        snap["rtree"] = {"max_entries": 8}
        restored = restore(json.loads(json.dumps(snap)))
        assert restored.batch_chunk == 13
        assert restored.stab_cache is None
        assert answers(restored) == answers(restore(load(path)["snapshot"]))

    def test_loads_of_the_json_text(self, path):
        text = json.dumps(load(path)["snapshot"])
        assert answers(loads(text)) == answers(fed_single_engine(load(path)))

    def test_retains_what_the_single_engine_retains(self, path):
        doc = load(path)
        restored = restore(doc["snapshot"])
        reference = fed_single_engine(doc)
        assert retained(restored) == retained(reference)
        for point in doc["more"]:
            restored.append(point)
            reference.append(point)
        assert retained(restored) == retained(reference)

    def test_batched_arrivals_continue_the_kappa_sequence(self, path):
        doc = load(path)
        restored = restore(doc["snapshot"], sanitize="full")
        reference = fed_single_engine(doc)
        got = restored.append_many(doc["more"])
        expected = reference.append_many(doc["more"])
        if isinstance(restored, KSkybandEngine):
            got, expected = ([e.kappa for e in batch] for batch in (got, expected))
            kappas = got
        else:
            got, expected = (
                [(o.element.kappa, o.parent_kappa, o.removed_kappas)
                 for o in batch.outcomes]
                for batch in (got, expected)
            )
            kappas = [kappa for kappa, _, _ in got]
        assert got == expected
        first = doc["snapshot"]["seen_so_far"] + 1
        assert kappas == list(range(first, first + len(doc["more"])))
        assert answers(restored) == answers(reference)
        restored.check_invariants()


# Coarse coordinates provoke ties and duplicates.
coord = st.integers(0, 4)


def streams(max_dim=3, max_len=40):
    return st.integers(2, max_dim).flatmap(
        lambda d: st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=max_len
        )
    )


def union_snapshot(kind, stream, capacity, shards, k=None):
    """A sharded snapshot of ``stream`` built without the routers: shard
    ``i`` takes every ``shards``-th element, and what it retains is what
    a single engine fed that shard's in-window elements retains."""
    dim = len(stream[0])
    seen = len(stream)
    window = [(kappa, point) for kappa, point in enumerate(stream, start=1)
              if kappa > seen - capacity]
    kept = []
    for shard in range(shards):
        members = [(kappa, point) for kappa, point in window
                   if kappa % shards == shard]
        if not members:
            continue
        if kind == "sharded-skyband":
            engine = KSkybandEngine(dim, len(members), k)
        else:
            engine = NofNSkyline(dim, len(members))
        for _, point in members:
            engine.append(point)
        if kind == "sharded-skyband":
            local = sorted(engine._records)
        else:
            local = [e.kappa for e in engine.non_redundant()]
        kept += [members[i - 1] for i in local]
    snap = {
        "format": 1, "kind": kind, "dim": dim, "capacity": capacity,
        "shards": shards, "backend": "serial", "seen_so_far": seen,
        "records": [
            {"kappa": kappa, "values": point, "payload": None}
            for kappa, point in sorted(kept)
        ],
    }
    if k is not None:
        snap["k"] = k
    return snap


class TestRoundRobinUnions:
    @settings(max_examples=40, deadline=None)
    @given(streams(), st.integers(1, 12), st.integers(2, 4),
           st.lists(st.lists(coord, min_size=3, max_size=3), max_size=15))
    def test_nofn_union_replays_to_the_single_engine(
        self, stream, capacity, shards, more
    ):
        snap = union_snapshot("sharded-nofn", stream, capacity, shards)
        restored = restore(snap, sanitize="full")
        reference = NofNSkyline(snap["dim"], capacity)
        for point in stream:
            reference.append(point)
        assert answers(restored) == answers(reference)
        assert retained(restored) == retained(reference)
        for point in more:
            point = point[:snap["dim"]]
            restored.append(point)
            reference.append(point)
            assert answers(restored) == answers(reference)
        restored.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(streams(), st.integers(1, 12), st.integers(2, 4),
           st.integers(1, 3),
           st.lists(st.lists(coord, min_size=3, max_size=3), max_size=15))
    def test_skyband_union_replays_to_the_single_engine(
        self, stream, capacity, shards, k, more
    ):
        snap = union_snapshot("sharded-skyband", stream, capacity, shards, k)
        restored = restore(snap, sanitize="full")
        reference = KSkybandEngine(snap["dim"], capacity, k)
        for point in stream:
            reference.append(point)
        assert answers(restored) == answers(reference)
        assert retained(restored) == retained(reference)
        for point in more:
            point = point[:snap["dim"]]
            restored.append(point)
            reference.append(point)
            assert answers(restored) == answers(reference)
        restored.check_invariants()

    def test_skyband_record_missing_an_older_dominator(self):
        """Kappas 1, 3 and 5 share a shard, where 3 and 5 both beat 1,
        so no shard keeps 1.  The single engine still lists 1 among the
        older dominators of 4; the replayed 4 does not, and must answer
        the same anyway: whenever 1 is inside a query's window, so are
        3 and 5, which also beat 4."""
        stream = [[3, 3], [9, 9], [2, 2], [4, 4], [2.5, 2.5]]
        snap = union_snapshot("sharded-skyband", stream, 10, 2, k=2)
        assert [r["kappa"] for r in snap["records"]] == [2, 3, 4, 5]
        restored = restore(snap, sanitize="full")
        reference = KSkybandEngine(2, 10, 2)
        for point in stream:
            reference.append(point)
        assert reference._records[4].older_doms == [3, 1]
        assert restored._records[4].older_doms == [3]
        assert answers(restored) == answers(reference)
        for point in ([1, 1], [5, 0], [0, 5], [3, 3]):
            restored.append(point)
            reference.append(point)
            assert answers(restored) == answers(reference)
        restored.check_invariants()

class TestInputChecks:
    @pytest.fixture
    def snap(self):
        return load(FIXTURES[0])["snapshot"]

    def test_unsorted_kappas_raise(self, snap):
        snap["records"] = snap["records"][::-1]
        with pytest.raises(SnapshotError, match="sorted by kappa"):
            restore(snap)

    def test_repeated_kappa_raises(self, snap):
        snap["records"].insert(1, copy.deepcopy(snap["records"][0]))
        with pytest.raises(SnapshotError, match="sorted by kappa"):
            restore(snap)

    def test_seen_below_newest_record_raises(self, snap):
        snap["seen_so_far"] = snap["records"][-1]["kappa"] - 1
        with pytest.raises(SnapshotError, match="precedes the newest record"):
            restore(snap)

    def test_skyband_without_integer_k_raises(self):
        path = next(p for p in FIXTURES if "skyband" in p.stem)
        snap = load(path)["snapshot"]
        snap["k"] = "2"
        with pytest.raises(SnapshotError, match="k must be an integer"):
            restore(snap)

    def test_seen_beyond_newest_record_keeps_only_the_window(self, snap):
        # Only the newest record is still inside the window.
        newest = snap["records"][-1]["kappa"]
        snap["seen_so_far"] = newest + snap["capacity"] - 1
        restored = restore(snap, sanitize="full")
        restored.check_invariants()
        assert [e.kappa for e in restored.non_redundant()] == [newest]

    def test_empty_snapshot_restores_empty(self, snap):
        snap.update(records=[], seen_so_far=0)
        restored = restore(snap)
        assert restored.seen_so_far == 0
        assert restored.query(1) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_restored_engine_round_trips_in_the_current_format(path):
    doc = load(path)
    restored = restore(doc["snapshot"])
    text = dumps(restored)
    assert json.loads(text)["kind"] == doc["snapshot"]["kind"].removeprefix(
        "sharded-"
    )
    again = loads(text)
    reference = fed_single_engine(doc)
    assert answers(again) == answers(reference)
    assert retained(again) == retained(reference)
    for point in doc["more"]:
        again.append(point)
        reference.append(point)
    assert answers(again) == answers(reference)
