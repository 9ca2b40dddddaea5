"""Sharded router validation: parity, merges, failure, persistence.

The load-bearing property is **byte-identical query parity**: a
:class:`~repro.parallel.ShardedNofNSkyline` (or
:class:`~repro.parallel.ShardedKSkyband`) must answer every query with
exactly the elements — same kappas, same values, same order — that the
single-engine counterpart returns, for every shard count, under any
interleaving of per-element and batched ingestion.  Theorem 1's
containment argument (see :mod:`repro.parallel.merge`) says the merge
can achieve this; these tests say the code does.

The process backend is exercised sparingly (worker startup is slow on
CI): one parity scenario, the failure-surfacing tests, and one
snapshot round-trip.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KSkybandEngine, NofNSkyline
from repro.core.element import StreamElement
from repro.core.persistence import dumps, loads, restore, snapshot
from repro.exceptions import (
    DimensionMismatchError,
    InvalidWindowError,
    ReproError,
    ShardFailureError,
    StructureCorruptionError,
)
from repro.parallel import ShardedKSkyband, ShardedNofNSkyline

from tests.conftest import random_points

# Coarse coordinates provoke ties/duplicates (youngest-copy rule).
coord = st.integers(0, 6).map(lambda v: v / 6)


def streams(max_dim=3, max_len=50):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d).map(tuple), min_size=1, max_size=max_len
        )
    )


def same_elements(got, expected):
    assert [(e.kappa, e.values) for e in got] == [
        (e.kappa, e.values) for e in expected
    ]


def feed_interleaved(router, reference, points, rng):
    """Feed ``points`` to both through a random mix of ``append`` and
    ``append_many``, querying a random ``n`` after every step."""
    fed = 0
    while fed < len(points):
        if rng.random() < 0.5:
            router.append(points[fed])
            reference.append(points[fed])
            fed += 1
        else:
            size = rng.randint(1, min(7, len(points) - fed))
            router.append_many(points[fed:fed + size])
            reference.append_many(points[fed:fed + size])
            fed += size
        n = rng.randint(1, reference.capacity)
        same_elements(router.query(n), reference.query(n))


class TestSkylineParity:
    @settings(max_examples=25, deadline=None)
    @given(streams(), st.integers(1, 12), st.sampled_from([1, 2, 4, 7]))
    def test_every_query_matches_single_engine(
        self, history, capacity, shards
    ):
        dim = len(history[0])
        reference = NofNSkyline(dim=dim, capacity=capacity)
        with ShardedNofNSkyline(
            dim=dim, capacity=capacity, shards=shards
        ) as router:
            rng = random.Random(capacity * 1000 + shards)
            feed_interleaved(router, reference, history, rng)
            for n in range(1, capacity + 1):
                same_elements(router.query(n), reference.query(n))
            same_elements(router.skyline(), reference.skyline())

    @settings(max_examples=15, deadline=None)
    @given(streams(max_dim=2, max_len=40), st.sampled_from([2, 4]))
    def test_query_all_matches_individual_queries(self, history, shards):
        capacity = 10
        with ShardedNofNSkyline(
            dim=len(history[0]), capacity=capacity, shards=shards
        ) as router:
            router.append_many(history)
            ns = [1, capacity // 2, capacity]
            for batch_answer, n in zip(router.query_all(ns), ns):
                same_elements(batch_answer, router.query(n))

    def test_kappa_sequence_is_global(self, rng):
        """Round-robin sharding must not disturb arrival labelling."""
        with ShardedNofNSkyline(dim=2, capacity=20, shards=3) as router:
            elements = router.append_many(random_points(rng, 2, 10))
            assert [e.kappa for e in elements] == list(range(1, 11))
            eleventh = router.append((0.5, 0.5))
            assert eleventh.kappa == 11
            assert router.seen_so_far == 11
            assert len(router) == sum(
                s["retained"] for s in router.shard_stats()
            )


class TestSkybandParity:
    @settings(max_examples=20, deadline=None)
    @given(
        streams(max_dim=3, max_len=45),
        st.integers(1, 10),
        st.sampled_from([1, 3, 4]),
        st.integers(1, 3),
    )
    def test_every_query_matches_single_engine(
        self, history, capacity, shards, k
    ):
        dim = len(history[0])
        reference = KSkybandEngine(dim=dim, capacity=capacity, k=k)
        with ShardedKSkyband(
            dim=dim, capacity=capacity, k=k, shards=shards
        ) as router:
            rng = random.Random(capacity * 100 + shards * 10 + k)
            feed_interleaved(router, reference, history, rng)
            for n in range(1, capacity + 1):
                same_elements(router.query(n), reference.query(n))
            same_elements(router.skyband(), reference.skyband())


#: Process-backend cases run with the zero-IPC replica read path both
#: enabled (``auto``) and disabled (``off``).  ``REPRO_SHARD_REPLICAS``
#: pins a single mode so CI can split the two into separate matrix
#: legs (``on`` maps to ``auto``: replicas enabled on this backend).
REPLICA_MODES = {"on": ("auto",), "off": ("off",)}.get(
    os.environ.get("REPRO_SHARD_REPLICAS", ""), ("auto", "off")
)


@pytest.mark.parametrize("replicas", REPLICA_MODES)
class TestProcessBackend:
    def test_parity_and_introspection(self, rng, replicas):
        points = random_points(rng, 2, 120, grid=8)
        reference = NofNSkyline(dim=2, capacity=30)
        reference.append_many(points)
        with ShardedNofNSkyline(
            dim=2, capacity=30, shards=3, backend="process", timeout=60.0,
            replicas=replicas,
        ) as router:
            router.append_many(points[:70])
            for p in points[70:]:
                router.append(p)
            for n in (1, 15, 30):
                same_elements(router.query(n), reference.query(n))
            stats = router.shard_stats()
            assert [s["shard"] for s in stats] == [0, 1, 2]
            assert sum(s["retained"] for s in stats) == len(router)
            assert router.structure_version > 0
            cache = router.cache_stats()
            assert cache is not None and cache["misses"] > 0
            replica = router.replica_stats()
            if replicas == "off":
                assert replica is None
            else:
                # The first query fell back (replicas trailed the
                # fire-and-forget ingest), which republished; the later
                # queries must have served with zero IPC.
                assert replica["serves"] >= 1
                assert len(replica["shards"]) == 3
            router.check_invariants()  # includes the shard-replica check

    def test_worker_exception_surfaces_as_shard_failure(self, replicas):
        router = ShardedNofNSkyline(
            dim=2, capacity=10, shards=2, backend="process", timeout=30.0,
            replicas=replicas,
        )
        try:
            router.append((0.1, 0.2))
            # A wrong-dimension element injected past the router's own
            # validation makes the worker's ingest raise and exit.
            router._executor.ingest(0, StreamElement((1.0, 2.0, 3.0), 99))
            with pytest.raises(ShardFailureError) as excinfo:
                # With replicas on, a caught-up replica can legitimately
                # keep answering reads; drain() is an IPC round trip on
                # both configurations, so the shipped error always
                # surfaces here.
                router.drain()
            assert excinfo.value.shard == 0
        finally:
            router.close()

    def test_dead_worker_surfaces_without_hanging(self, replicas):
        router = ShardedNofNSkyline(
            dim=2, capacity=10, shards=2, backend="process", timeout=30.0,
            replicas=replicas,
        )
        try:
            router.append((0.1, 0.2))
            router.query(5)  # workers proven alive (and replicas fresh)
            router._executor._processes[1].terminate()
            router._executor._processes[1].join(timeout=10.0)
            if replicas == "auto":
                # Read availability: the dead shard's replica is still
                # fully caught up, so reads keep answering with zero IPC.
                assert [e.kappa for e in router.query(5)] == [1]
                # Route a new element to the dead shard: its replica now
                # trails and the query must fall back — surfacing the
                # death instead of silently serving stale state.
                router.append((0.2, 0.1))  # kappa 2 -> shard 1
            with pytest.raises(ShardFailureError, match="died"):
                router.query(5)
        finally:
            router.close()

    def test_close_is_idempotent_and_reentrant(self, replicas):
        router = ShardedNofNSkyline(
            dim=2, capacity=10, shards=2, backend="process", timeout=30.0,
            replicas=replicas,
        )
        router.append((0.3, 0.7))
        router.query(5)
        router.close()
        router.close()


class TestValidationAndGuards:
    def test_constructor_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ShardedNofNSkyline(dim=2, capacity=10, shards=0)
        with pytest.raises(ValueError):
            ShardedNofNSkyline(dim=2, capacity=10, backend="threads")
        with pytest.raises(ValueError):
            ShardedKSkyband(dim=2, capacity=10, k=0)
        with pytest.raises(ValueError):
            ShardedNofNSkyline(dim=2, capacity=10, replicas="maybe")
        with pytest.raises(ValueError):
            # Replicas require a process boundary to replicate across.
            ShardedNofNSkyline(
                dim=2, capacity=10, backend="serial", replicas="on"
            )
        with pytest.raises(ValueError):
            ShardedNofNSkyline(dim=2, capacity=10, replica_lag=-1)

    def test_append_many_is_all_or_nothing(self):
        with ShardedNofNSkyline(dim=2, capacity=10, shards=3) as router:
            with pytest.raises(DimensionMismatchError):
                router.append_many([(0.1, 0.2), (0.3, 0.4, 0.5)])
            assert router.seen_so_far == 0
            assert len(router) == 0

    def test_query_validates_n(self):
        with ShardedNofNSkyline(dim=2, capacity=10, shards=2) as router:
            router.append((0.5, 0.5))
            with pytest.raises(InvalidWindowError):
                router.query(0)
            with pytest.raises(InvalidWindowError):
                router.query(11)

    def test_shard_engines_reject_direct_append(self):
        """Shard engines only accept pre-labelled elements from their
        router; the inherited public append surface is sealed off."""
        with ShardedNofNSkyline(dim=2, capacity=10, shards=2) as router:
            engine = router._executor.engines[0]
            with pytest.raises(ReproError):
                engine.append((0.1, 0.2))
            with pytest.raises(ReproError):
                engine.append_many([(0.1, 0.2)])


class TestSanitizer:
    def test_full_mode_runs_clean(self, rng):
        with ShardedNofNSkyline(
            dim=2, capacity=12, shards=3, sanitize="full"
        ) as router:
            for point in random_points(rng, 2, 40, grid=6):
                router.append(point)
            router.append_many(random_points(rng, 2, 20, grid=6))
        with ShardedKSkyband(
            dim=2, capacity=12, k=2, shards=2, sanitize="full"
        ) as band:
            band.append_many(random_points(rng, 2, 40, grid=6))

    def test_shard_merge_check_catches_dropped_element(self, rng):
        with ShardedNofNSkyline(dim=2, capacity=10, shards=2) as router:
            router.append_many(random_points(rng, 2, 30, grid=5))
            healthy = router._merged

            def lossy(stabs):
                return [answer[:-1] for answer in healthy(stabs)]

            router._merged = lossy  # simulate a broken merge
            with pytest.raises(StructureCorruptionError) as excinfo:
                router.check_invariants()
            assert excinfo.value.report.invariant == "shard-merge"


class TestPersistence:
    def test_round_trip_same_shard_count(self, rng):
        with ShardedNofNSkyline(dim=2, capacity=15, shards=3) as router:
            router.append_many(random_points(rng, 2, 60, grid=7))
            snap = snapshot(router)
            with restore(snap) as clone:
                assert clone.shards == 3
                assert clone.seen_so_far == router.seen_so_far
                for n in (1, 8, 15):
                    same_elements(clone.query(n), router.query(n))
                assert snapshot(clone)["records"] == snap["records"]

    @pytest.mark.parametrize("new_shards", [1, 2, 7])
    def test_restore_re_shards(self, rng, new_shards):
        with ShardedNofNSkyline(dim=2, capacity=15, shards=4) as router:
            router.append_many(random_points(rng, 2, 50, grid=7))
            snap = snapshot(router)
            with restore(snap, shards=new_shards) as clone:
                assert clone.shards == new_shards
                for n in (1, 8, 15):
                    same_elements(clone.query(n), router.query(n))

    def test_restore_onto_process_backend(self, rng):
        with ShardedNofNSkyline(dim=2, capacity=12, shards=2) as router:
            router.append_many(random_points(rng, 2, 40, grid=7))
            blob = dumps(router)
            with loads(blob, backend="process", shards=3) as clone:
                assert clone.backend == "process"
                for n in (1, 6, 12):
                    same_elements(clone.query(n), router.query(n))

    def test_skyband_round_trip(self, rng):
        with ShardedKSkyband(dim=2, capacity=12, k=3, shards=3) as band:
            band.append_many(random_points(rng, 2, 45, grid=7))
            snap = snapshot(band)
            assert snap["kind"] == "sharded-skyband"
            with restore(snap, shards=2) as clone:
                assert clone.k == 3
                for n in (1, 6, 12):
                    same_elements(clone.query(n), band.query(n))

    def test_replica_knobs_round_trip(self, rng):
        with ShardedNofNSkyline(
            dim=2, capacity=10, shards=2, backend="process",
            replicas="on", replica_lag=None,
        ) as router:
            router.append_many(random_points(rng, 2, 20, grid=5))
            snap = snapshot(router)
            assert snap["replicas"] == {"mode": "on", "lag": None}
            with restore(snap) as clone:
                assert clone.replica_mode == "on"
                assert clone.replica_lag is None
                for n in (1, 10):
                    same_elements(clone.query(n), router.query(n))
            # Re-targeting the snapshot at the serial backend downgrades
            # "on" to "auto" instead of refusing to restore.
            with restore(snap, backend="serial") as serial_clone:
                assert serial_clone.replica_mode == "auto"
                assert serial_clone.replica_stats() is None

    def test_growth_continues_after_restore(self, rng):
        points = random_points(rng, 2, 60, grid=7)
        reference = NofNSkyline(dim=2, capacity=10)
        reference.append_many(points)
        with ShardedNofNSkyline(dim=2, capacity=10, shards=2) as router:
            router.append_many(points[:40])
            with restore(snapshot(router), shards=3) as clone:
                clone.append_many(points[40:])
                same_elements(clone.skyline(), reference.skyline())


class TestIntrospectionUniformity:
    """Every engine-like object answers the same introspection probes
    (satellite: previously ApproxNofNSkyline and ContinuousQueryManager
    lacked them; TimeWindowSkyline already inherited the full set)."""

    PROBES = ("structure_version", "cache_stats", "stab_cache")

    def build_all(self, rng):
        from repro import (
            ApproxNofNSkyline,
            ContinuousQueryManager,
            TimeWindowSkyline,
        )

        points = random_points(rng, 2, 30, grid=6)
        engines = [
            NofNSkyline(dim=2, capacity=10),
            KSkybandEngine(dim=2, capacity=10, k=2),
            ApproxNofNSkyline(dim=2, capacity=10, epsilon=0.25),
            ContinuousQueryManager(NofNSkyline(dim=2, capacity=10)),
        ]
        for engine in engines:
            for point in points:
                engine.append(point)
        window = TimeWindowSkyline(dim=2, horizon=5.0)
        for i, point in enumerate(points):
            window.append(point, float(i + 1))
        engines.append(window)
        return engines

    def test_uniform_surface(self, rng):
        for engine in self.build_all(rng):
            for probe in self.PROBES:
                assert hasattr(engine, probe), (type(engine), probe)
            assert engine.structure_version > 0
            stats = engine.cache_stats()
            assert stats is None or "misses" in stats

    def test_sharded_router_aggregates(self, rng):
        with ShardedNofNSkyline(dim=2, capacity=10, shards=3) as router:
            router.append_many(random_points(rng, 2, 30, grid=6))
            router.query(5)
            router.query(5)
            assert router.structure_version > 0
            cache = router.cache_stats()
            assert cache is not None
            assert cache["hits"] > 0  # second query hit every shard memo
            per_shard = router.shard_stats()
            assert len(per_shard) == 3
            for entry in per_shard:
                assert {"shard", "retained", "seen", "structure_version",
                        "cache", "stats"} <= set(entry)
        with ShardedNofNSkyline(
            dim=2, capacity=10, shards=2, query_cache=False
        ) as uncached:
            uncached.append((0.5, 0.5))
            assert uncached.cache_stats() is None
