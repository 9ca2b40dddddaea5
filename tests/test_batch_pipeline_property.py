"""Frozen-tree batched pipeline: snapshot-level parity and knob wiring.

The SoA engines process ``append_many`` chunks against a *frozen*
R-tree — every search answered up front, all mutations flushed as one
``delete_many`` + one ``insert_many`` — so these tests pin the
strongest parity statement available: against a per-element twin built
with **identical knobs**, batched ingestion must produce *byte-
identical* persistence snapshots (same retained records, same critical
parents, same stats) and identical critical-dominance edges, across
chunk sizes (including ``batch_chunk=1`` and chunks far larger than the
stream), interleaved expiry and mid-stream queries.

The ``batch_chunk`` knob itself is exercised end to end: constructor
validation, the resolved default, shard-spec propagation, and snapshot
round-trips.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    KSkybandEngine,
    N1N2Skyline,
    NofNSkyline,
    ShardedKSkyband,
    ShardedNofNSkyline,
    TimeWindowSkyline,
)
from repro.accel.batch_prefilter import CHUNK, resolve_batch_chunk
from repro.core.persistence import restore, snapshot
from repro.parallel.shard_engines import (
    ShardKSkybandEngine,
    ShardNofNEngine,
    build_shard_engine,
)

#: The chunk grid the issue pins: degenerate (1), tiny (3), the library
#: default, and far beyond any test stream (one chunk per batch).
CHUNK_SIZES = (1, 3, CHUNK, 10 * CHUNK)

#: Counters only ``append_many`` advances; everything else in a
#: snapshot — records, parents, query counters, rn peaks — must match a
#: per-element twin exactly.
BATCH_ONLY_STATS = (
    "batches", "batch_elements", "prefilter_dropped", "batch_size_peak",
    "batch_seconds_total", "batch_seconds_max",
)

coord = st.integers(0, 7).map(lambda v: v / 7)


def streams(max_dim=4, max_len=60):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d).map(tuple), min_size=1, max_size=max_len
        )
    )


def canon(engine):
    """The engine's snapshot as canonical bytes, batch-only counters
    removed (the per-element twin never records a batch)."""
    snap = snapshot(engine)
    for key in BATCH_ONLY_STATS:
        snap["stats"].pop(key, None)
    return json.dumps(snap, sort_keys=True)


class TestNofNSnapshotParity:
    @settings(max_examples=40, deadline=None)
    @given(
        streams(),
        st.integers(1, 12),
        st.sampled_from(CHUNK_SIZES),
        st.integers(0, 10**6),
    )
    def test_byte_identical_snapshots(self, history, capacity, chunk, seed):
        """Batched vs per-element twins with identical knobs: same
        snapshot bytes, same critical parents, same dominance edges —
        with queries interleaved at every batch boundary so stale
        cache / stats divergence cannot hide."""
        dim = len(history[0])
        knobs = dict(
            dim=dim,
            capacity=capacity,
            batch_chunk=chunk,
            sanitize="full",
        )
        batched = NofNSkyline(**knobs)
        twin = NofNSkyline(**knobs)

        import random

        rng = random.Random(seed)
        parents_batched = []
        parents_twin = []
        i = 0
        while i < len(history):
            size = rng.randint(1, len(history) - i)
            batch = history[i:i + size]
            for outcome in batched.append_many(batch):
                parents_batched.append(outcome.parent_kappa)
            for point in batch:
                parents_twin.append(twin.append(point).parent_kappa)
            i += size
            n = rng.randint(1, capacity)
            assert [e.kappa for e in batched.query(n)] == [
                e.kappa for e in twin.query(n)
            ]

        assert parents_batched == parents_twin
        assert sorted(batched.dominance_graph_edges()) == sorted(
            twin.dominance_graph_edges()
        )
        assert canon(batched) == canon(twin)

    def test_chunk_one_degenerates_to_per_element(self):
        """``batch_chunk=1`` runs the whole pipeline one element per
        chunk — prefilter trivial, every flush singular — and must
        still match."""
        points = [(v / 7, (6 - v % 7) / 7) for v in range(25)]
        batched = NofNSkyline(dim=2, capacity=6, batch_chunk=1)
        twin = NofNSkyline(dim=2, capacity=6, batch_chunk=1)
        batched.append_many(points)
        for p in points:
            twin.append(p)
        assert canon(batched) == canon(twin)


class TestTimeWindowSnapshotParity:
    @settings(max_examples=25, deadline=None)
    @given(
        streams(max_dim=3, max_len=40),
        st.lists(st.sampled_from([0.1, 0.4, 1.0, 6.0]), min_size=40,
                 max_size=40),
        st.sampled_from(CHUNK_SIZES),
    )
    def test_byte_identical_snapshots(self, history, gaps, chunk):
        """Bursty timestamps force multi-element expiry inside chunks
        (the deferred-delete/deferred-insert interplay)."""
        dim = len(history[0])
        stamps, now = [], 0.0
        for gap in gaps[:len(history)]:
            now += gap
            stamps.append(now)
        knobs = dict(
            dim=dim, horizon=2.0, batch_chunk=chunk, sanitize="full",
        )
        batched = TimeWindowSkyline(**knobs)
        twin = TimeWindowSkyline(**knobs)
        half = len(history) // 2
        if half:
            batched.append_many(history[:half], stamps[:half])
            for p, t in zip(history[:half], stamps[:half]):
                twin.append(p, t)
            # Interleaved query on both twins (stats must stay equal).
            assert [e.kappa for e in batched.skyline()] == [
                e.kappa for e in twin.skyline()
            ]
        batched.append_many(history[half:], stamps[half:])
        for p, t in zip(history[half:], stamps[half:]):
            twin.append(p, t)
        assert canon(batched) == canon(twin)


class TestN1N2SnapshotParity:
    @settings(max_examples=25, deadline=None)
    @given(
        streams(max_dim=3, max_len=40),
        st.integers(1, 10),
        st.sampled_from(CHUNK_SIZES),
        st.integers(0, 10**6),
    )
    def test_byte_identical_snapshots(self, history, capacity, chunk, seed):
        """The CBC graph (both ancestors, demotion targets) must come
        out identical from the frozen-tree path."""
        dim = len(history[0])
        knobs = dict(
            dim=dim, capacity=capacity, batch_chunk=chunk,
            sanitize="full",
        )
        batched = N1N2Skyline(**knobs)
        twin = N1N2Skyline(**knobs)

        import random

        rng = random.Random(seed)
        i = 0
        while i < len(history):
            size = rng.randint(1, len(history) - i)
            batched.append_many(history[i:i + size])
            for point in history[i:i + size]:
                twin.append(point)
            i += size
            n2 = rng.randint(1, capacity)
            n1 = rng.randint(1, n2)
            assert [e.kappa for e in batched.query(n1, n2)] == [
                e.kappa for e in twin.query(n1, n2)
            ]
        assert canon(batched) == canon(twin)


class TestShardedSnapshotParity:
    @settings(max_examples=15, deadline=None)
    @given(
        streams(max_dim=3, max_len=40),
        st.integers(2, 10),
        st.integers(2, 3),
        st.sampled_from([1, 3, CHUNK]),
    )
    def test_sharded_nofn_byte_identical(self, history, capacity, shards,
                                         chunk):
        dim = len(history[0])
        knobs = dict(
            dim=dim, capacity=capacity, shards=shards, batch_chunk=chunk,
            sanitize="full",
        )
        with ShardedNofNSkyline(**knobs) as batched, \
                ShardedNofNSkyline(**knobs) as twin:
            half = len(history) // 2
            if history[:half]:
                batched.append_many(history[:half])
            for p in history[half:]:
                batched.append(p)
            for p in history:
                twin.append(p)
            assert canon(batched) == canon(twin)

    def test_sharded_skyband_byte_identical(self):
        points = [((v * 3) % 8 / 7, (v * 5) % 8 / 7) for v in range(30)]
        knobs = dict(dim=2, capacity=9, k=2, shards=3, batch_chunk=2,
                     sanitize="full")
        with ShardedKSkyband(**knobs) as batched, \
                ShardedKSkyband(**knobs) as twin:
            batched.append_many(points)
            for p in points:
                twin.append(p)
            assert canon(batched) == canon(twin)


class TestBatchChunkKnob:
    def test_resolve_default_and_validation(self):
        assert resolve_batch_chunk(None) == CHUNK
        assert resolve_batch_chunk(7) == 7
        with pytest.raises(ValueError):
            resolve_batch_chunk(0)
        with pytest.raises(ValueError):
            resolve_batch_chunk(-3)

    @pytest.mark.parametrize("build", [
        lambda c: NofNSkyline(dim=2, capacity=4, batch_chunk=c),
        lambda c: TimeWindowSkyline(dim=2, horizon=1.0, batch_chunk=c),
        lambda c: KSkybandEngine(dim=2, capacity=4, k=2, batch_chunk=c),
        lambda c: N1N2Skyline(dim=2, capacity=4, batch_chunk=c),
        lambda c: ShardedNofNSkyline(dim=2, capacity=4, shards=2,
                                     batch_chunk=c),
        lambda c: ShardedKSkyband(dim=2, capacity=4, k=2, shards=2,
                                  batch_chunk=c),
        lambda c: ShardNofNEngine(dim=2, capacity=4, stride=2,
                                  batch_chunk=c),
        lambda c: ShardKSkybandEngine(dim=2, capacity=4, k=2, stride=2,
                                      batch_chunk=c),
    ])
    def test_every_constructor_validates_and_exposes(self, build):
        with pytest.raises(ValueError):
            build(0)
        assert build(None).batch_chunk == CHUNK
        assert build(5).batch_chunk == 5

    def test_router_forwards_chunk_to_shard_specs(self):
        with ShardedNofNSkyline(dim=2, capacity=6, shards=2,
                                batch_chunk=17) as router:
            assert router.batch_chunk == 17
            assert all(
                spec["batch_chunk"] == 17
                for spec in (router._shard_spec(i) for i in range(2))
            )
        spec = {
            "kind": "skyband", "dim": 2, "capacity": 10, "k": 2,
            "stride": 2, "sanitize": "off",
            "query_cache": True, "batch_chunk": 9,
        }
        engine = build_shard_engine(spec)
        assert engine.batch_chunk == 9
        # Pre-knob specs (no key) resolve to the library default.
        del spec["batch_chunk"]
        assert build_shard_engine(spec).batch_chunk == CHUNK

    def test_skyband_shard_clamps_chunk_to_stride_window(self):
        engine = ShardKSkybandEngine(dim=2, capacity=10, k=1, stride=4,
                                     batch_chunk=100)
        # (c - 1) * 4 <= 9  =>  c <= 3
        assert engine._batch_chunk_size() == 3
        small = ShardKSkybandEngine(dim=2, capacity=10, k=1, stride=4,
                                    batch_chunk=2)
        assert small._batch_chunk_size() == 2

    def test_snapshot_records_and_restores_batch_chunk(self):
        for engine in (
            NofNSkyline(dim=2, capacity=4, batch_chunk=13),
            N1N2Skyline(dim=2, capacity=4, batch_chunk=13),
        ):
            engine.append((0.3, 0.4))
            snap = snapshot(engine)
            assert snap["batch_chunk"] == 13
            assert restore(snap).batch_chunk == 13
            # Snapshots from before the knob restore the default.
            del snap["batch_chunk"]
            assert restore(snap).batch_chunk == CHUNK
        with ShardedNofNSkyline(dim=2, capacity=4, shards=2,
                                batch_chunk=13) as router:
            router.append((0.3, 0.4))
            snap = snapshot(router)
        assert snap["batch_chunk"] == 13
        restored = restore(snap)
        try:
            assert restored.batch_chunk == 13
        finally:
            restored.close()
