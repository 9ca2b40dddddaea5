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
validation, the resolved default and snapshot round-trips.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    KSkybandEngine,
    LinearScanNofNSkyline,
    N1N2Skyline,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.accel.batch_prefilter import CHUNK, resolve_batch_chunk
from repro.core.persistence import restore, snapshot

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


def band_state(engine):
    """A k-skyband engine's state, which has no snapshot format: its
    batch-free counters and every retained record with its dominator
    book-keeping (younger dominator count, youngest older dominators)."""
    stats = engine.stats.snapshot_raw()
    for key in BATCH_ONLY_STATS:
        stats.pop(key)
    records = [
        (kappa, r.element.values, r.younger, r.older_doms)
        for kappa, r in sorted(engine._records.items())
    ]
    return engine.seen_so_far, stats, records


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


class TestKSkybandStateParity:
    @settings(max_examples=30, deadline=None)
    @given(
        streams(max_dim=3, max_len=50),
        st.integers(1, 12),
        st.integers(1, 3),
        st.sampled_from(CHUNK_SIZES),
        st.integers(0, 10**6),
    )
    def test_identical_records_across_chunk_sizes(
        self, history, capacity, k, chunk, seed
    ):
        """Batched vs per-element twins with identical knobs hold the
        same records with the same dominator book-keeping, with queries
        interleaved at every batch boundary."""
        dim = len(history[0])
        knobs = dict(
            dim=dim, capacity=capacity, k=k, batch_chunk=chunk,
            sanitize="full",
        )
        batched = KSkybandEngine(**knobs)
        twin = KSkybandEngine(**knobs)

        import random

        rng = random.Random(seed)
        i = 0
        while i < len(history):
            size = rng.randint(1, len(history) - i)
            batch = history[i:i + size]
            assert [e.kappa for e in batched.append_many(batch)] == [
                twin.append(point).kappa for point in batch
            ]
            i += size
            n = rng.randint(1, capacity)
            assert [e.kappa for e in batched.query(n)] == [
                e.kappa for e in twin.query(n)
            ]

        assert band_state(batched) == band_state(twin)

    def test_chunk_wider_than_the_window_is_clamped(self):
        """A chunk spans at most ``capacity`` kappas.  Here each point's
        ``k``-th dominator arrives just as the point leaves the window,
        so a chunk wider than the window would count that departure as
        a dominance removal instead of an expiry."""
        points = [(float(v), float(v)) for v in range(30, 0, -1)]
        batched = KSkybandEngine(dim=2, capacity=2, k=2, batch_chunk=100)
        twin = KSkybandEngine(dim=2, capacity=2, k=2, batch_chunk=100)
        batched.append_many(points)
        for p in points:
            twin.append(p)
        assert twin.stats.expiries == len(points) - 2
        assert band_state(batched) == band_state(twin)
        for n in range(1, 3):
            assert [e.kappa for e in batched.query(n)] == [
                e.kappa for e in twin.query(n)
            ]


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
        lambda c: LinearScanNofNSkyline(dim=2, capacity=4, batch_chunk=c),
    ])
    def test_every_constructor_validates_and_exposes(self, build):
        with pytest.raises(ValueError):
            build(0)
        assert build(None).batch_chunk == CHUNK
        assert build(5).batch_chunk == 5

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
