"""Shared-memory shard replica validation: the zero-IPC read path.

Three properties carry the design (see :mod:`repro.parallel.replicas`):

* **Exact at the claimed version** — a replica answer equals what the
  publishing engine answered at the version/seen the replica is
  labelled with, no matter how far the engine has moved on since
  (including expiry churn past the snapshot).
* **Never torn** — the seqlock rejects a mid-flip buffer outright; the
  router falls back to the command-queue path instead of serving a
  corrupt snapshot.
* **No leaks** — every shared-memory segment is unlinked on ``close()``
  even after a worker is killed outright, and the resource tracker
  stays silent (no spurious "leaked shared_memory" warnings, no
  tracker ``KeyError`` tracebacks).
"""

from __future__ import annotations

import os
import signal
import struct
import subprocess
import sys
from pathlib import Path
from uuid import uuid4

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.element import StreamElement
from repro.exceptions import ShardFailureError, StructureCorruptionError
from repro.parallel import ShardedKSkyband, ShardedNofNSkyline
from repro.parallel import replicas as replicas_mod
from repro.parallel.replicas import (
    ReplicaPublisher,
    ReplicaReader,
    cleanup_replica_segments,
    pending_elements,
    replica_prefixes,
)
from repro.parallel.shard_engines import build_shard_engine

from tests.conftest import random_points

REPO_ROOT = Path(__file__).resolve().parents[1]

coord = st.integers(0, 6).map(lambda v: v / 6)


@pytest.fixture(scope="module", autouse=True)
def no_shm_leaks_across_module():
    """Whatever this module does, /dev/shm must end where it started."""
    if not os.path.isdir("/dev/shm"):
        yield
        return
    before = {f for f in os.listdir("/dev/shm") if f.startswith("rs")}
    yield
    after = {f for f in os.listdir("/dev/shm") if f.startswith("rs")}
    assert after - before == set()


def nofn_spec(capacity, stride=1, dim=2, query_cache=True):
    return {
        "kind": "nofn",
        "dim": dim,
        "capacity": capacity,
        "stride": stride,
        "rtree_max_entries": 12,
        "sanitize": "off",
        "query_cache": query_cache,
    }


def keyed(elements):
    return [(e.kappa, tuple(e.values), e.payload) for e in elements]


def fresh_prefix():
    return replica_prefixes(uuid4().hex[:10], 1)[0]


class TestPublisherReaderRoundTrip:
    @pytest.mark.parametrize("query_cache", [True, False])
    def test_snapshot_matches_engine_everywhere(self, rng, query_cache):
        engine = build_shard_engine(nofn_spec(25, query_cache=query_cache))
        for kappa, point in enumerate(random_points(rng, 2, 80, grid=7), 1):
            engine.ingest(
                StreamElement(point, kappa, f"p{kappa}" if kappa % 3 else None)
            )
        prefix = fresh_prefix()
        publisher = ReplicaPublisher(prefix)
        try:
            assert publisher.publish(engine) is True
            # Version-checked no-op: nothing changed, nothing republished.
            assert publisher.publish(engine) is False
            reader = ReplicaReader(prefix)
            snapshot = reader.read()
            assert snapshot is not None
            assert snapshot.version == engine.structure_version
            assert snapshot.seen == engine.seen_so_far
            for stab in (1, 30, 56, 56.5, 80, 200):
                assert keyed(snapshot.stab(stab)) == keyed(
                    engine.stab_elements(stab)
                )
                assert keyed(snapshot.retained_suffix(stab)) == keyed(
                    engine.retained_suffix(stab)
                )
            # The decode is cached until the published version moves.
            assert reader.read() is snapshot
            assert reader.cached_hits >= 1
            reader.close()
        finally:
            publisher.close(unlink=True)

    def test_reader_without_publisher_is_unavailable(self):
        reader = ReplicaReader(fresh_prefix())
        assert reader.read() is None
        assert reader.unavailable == 1
        reader.close()

    def test_pending_elements_counts_round_robin_exactly(self):
        for shards in (1, 2, 3, 5):
            for seen in range(0, 30):
                for m in range(seen, 30):
                    total = sum(
                        pending_elements(seen, m, shard, shards)
                        for shard in range(shards)
                    )
                    assert total == m - seen
                    for shard in range(shards):
                        explicit = sum(
                            1
                            for kappa in range(seen + 1, m + 1)
                            if (kappa - 1) % shards == shard
                        )
                        assert (
                            pending_elements(seen, m, shard, shards)
                            == explicit
                        )


class TestStalenessSemantics:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.tuples(coord, coord), min_size=4, max_size=40),
        st.integers(2, 8),
        st.randoms(use_true_random=False),
    )
    def test_replica_answers_query_scan_at_claimed_version(
        self, history, capacity, rnd
    ):
        """Interleave ingest/expiry with publishes; every replica answer
        must equal ``query_scan`` *at the version the replica claims*,
        even after the engine has ingested (and expired) far past it."""
        engine = build_shard_engine(nofn_spec(capacity))
        prefix = fresh_prefix()
        publisher = ReplicaPublisher(prefix)
        reader = ReplicaReader(prefix)
        try:
            fed = 0
            while fed < len(history):
                step = rnd.randint(1, 5)
                for point in history[fed:fed + step]:
                    fed += 1
                    engine.ingest(StreamElement(point, fed))
                publisher.publish(engine)
                snapshot = reader.read()
                assert snapshot is not None
                assert snapshot.seen == fed
                # Capture the oracle at the published version...
                captured = {}
                for n in (1, max(1, capacity // 2), capacity):
                    stab = max(1, fed - n + 1)
                    captured[stab] = keyed(engine.query_scan(n))
                # ...then march the engine (and its expiries) ahead
                # WITHOUT republishing: the replica must not move.
                ahead = min(len(history) - fed, rnd.randint(0, 6))
                for point in history[fed:fed + ahead]:
                    engine.ingest(StreamElement(point, fed + 1))
                    fed += 1
                stale = reader.read()
                assert stale is not None and stale.seen == snapshot.seen
                for stab, expected in captured.items():
                    assert keyed(stale.stab(stab)) == expected
            reader.close()
        finally:
            publisher.close(unlink=True)

    def test_lag_zero_serves_only_caught_up_replicas(self, rng):
        with ShardedNofNSkyline(
            dim=2, capacity=20, shards=2, backend="process", timeout=60.0,
            replica_lag=0,
        ) as router:
            reference_points = random_points(rng, 2, 50, grid=7)
            router.append_many(reference_points)
            first = router.query(20)
            stats = router.replica_stats()
            # The first query raced the fire-and-forget backlog: either
            # it fell back (stale) or the workers had already drained.
            assert stats["serves"] + stats["fallbacks"] >= 1
            second = router.query(20)
            assert keyed(second) == keyed(first)
            assert router.replica_stats()["serves"] >= 1

    def test_unbounded_lag_serves_each_shard_at_its_own_version(self, rng):
        points = random_points(rng, 2, 60, grid=7)
        with ShardedNofNSkyline(
            dim=2, capacity=15, shards=2, backend="process", timeout=60.0,
            replica_lag=None,
        ) as router:
            router.append_many(points)
            router.query(15)  # may serve an older (valid) prefix
            router.drain()
            readers = router._executor.replica_readers
            snapshots = [reader.read() for reader in readers]
            for shard, snapshot in enumerate(snapshots):
                assert snapshot is not None
                # Replay exactly the shard's claimed prefix through a
                # fresh engine: the replica must answer identically.
                oracle = build_shard_engine(
                    nofn_spec(15, stride=router.shards)
                )
                for kappa, point in enumerate(points, 1):
                    if kappa > snapshot.seen:
                        break
                    if (kappa - 1) % router.shards == shard:
                        oracle.ingest(StreamElement(tuple(point), kappa))
                assert snapshot.seen == oracle.seen_so_far
                for stab in (1, snapshot.seen // 2, snapshot.seen):
                    assert keyed(snapshot.stab(max(1, stab))) == keyed(
                        oracle.stab_elements(max(1, stab))
                    )


class TestTornWriteRejection:
    def test_odd_seq_is_rejected_until_the_flip_completes(self, rng):
        engine = build_shard_engine(nofn_spec(10))
        for kappa, point in enumerate(random_points(rng, 2, 15, grid=5), 1):
            engine.ingest(StreamElement(point, kappa))
        prefix = fresh_prefix()
        publisher = ReplicaPublisher(prefix)
        reader = ReplicaReader(prefix)
        try:
            publisher.publish(engine)
            good = reader.read()
            assert good is not None
            # Seed a mid-flip state: an odd sequence word means the
            # writer is between "start flip" and "finish flip".
            replicas_mod._SEQ.pack_into(
                reader._control.buf,
                replicas_mod._SEQ_OFFSET,
                publisher._seq + 1,
            )
            reader._cached = None
            assert reader.read() is None
            assert reader.torn >= 1
            # Completing the flip (restoring an even seq) heals reads.
            replicas_mod._SEQ.pack_into(
                reader._control.buf,
                replicas_mod._SEQ_OFFSET,
                publisher._seq,
            )
            healed = reader.read()
            assert healed is not None
            assert keyed(healed.stab(1)) == keyed(good.stab(1))
            reader.close()
        finally:
            publisher.close(unlink=True)

    def test_router_falls_back_on_torn_replica(self, rng):
        with ShardedNofNSkyline(
            dim=2, capacity=12, shards=2, backend="process", timeout=60.0
        ) as router:
            router.append_many(random_points(rng, 2, 30, grid=6))
            expected = keyed(router.query(12))
            assert keyed(router.query(12)) == expected
            reader = router._executor.replica_readers[0]
            header = reader.header()
            replicas_mod._SEQ.pack_into(
                reader._control.buf,
                replicas_mod._SEQ_OFFSET,
                header.seq + 1,
            )
            reader._cached = None
            fallbacks = router.replica_stats()["fallbacks"]
            # The version check rejects the mid-flip buffer; the query
            # falls back to IPC and still answers exactly.
            assert keyed(router.query(12)) == expected
            stats = router.replica_stats()
            assert stats["fallbacks"] == fallbacks + 1
            assert stats["shards"][0]["torn"] >= 1


class TestSanitizerReplicaCheck:
    def test_full_mode_runs_clean_with_replicas(self, rng):
        with ShardedNofNSkyline(
            dim=2, capacity=12, shards=2, backend="process", timeout=60.0,
            sanitize="full",
        ) as router:
            for point in random_points(rng, 2, 25, grid=6):
                router.append(point)
            router.check_invariants()
        with ShardedKSkyband(
            dim=2, capacity=10, k=2, shards=2, backend="process",
            timeout=60.0, sanitize="full",
        ) as band:
            band.append_many(random_points(rng, 2, 25, grid=6))
            band.check_invariants()

    def test_seeded_corruption_is_caught(self, rng):
        with ShardedNofNSkyline(
            dim=2, capacity=15, shards=2, backend="process", timeout=60.0
        ) as router:
            router.append_many(random_points(rng, 2, 40, grid=7))
            router.query(15)
            router.query(15)  # replicas published and current
            reader = router._executor.replica_readers[0]
            header = reader.header()
            slot = header.active
            segment = replicas_mod._open_segment(
                replicas_mod._slot_name(
                    reader.prefix, slot, header.gens[slot]
                ),
                create=False,
            )
            try:
                n, _, _ = replicas_mod._DATA_HEADER.unpack_from(
                    segment.buf, 0
                )
                assert n >= 1
                # Rewrite the interval kappa table in place: the replica
                # now reports the wrong identities for right geometry.
                offset = replicas_mod._DATA_HEADER.size + 16 * n
                for i in range(n):
                    struct.pack_into(
                        "<q", segment.buf, offset + 8 * i, 10_000 + i
                    )
            finally:
                segment.close()
            reader._cached = None
            with pytest.raises(StructureCorruptionError) as excinfo:
                router.check_invariants()
            assert excinfo.value.report.invariant == "shard-replica"


class TestCrashCleanup:
    def test_kill_dash_nine_leaves_no_segments(self, rng):
        router = ShardedNofNSkyline(
            dim=2, capacity=10, shards=2, backend="process", timeout=30.0
        )
        try:
            router.append_many(random_points(rng, 2, 20, grid=5))
            router.query(10)
            prefixes = [
                reader.prefix for reader in router._executor.replica_readers
            ]
            victim = router._executor._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            # New work routed to the dead shard surfaces the failure...
            router.append((0.9, 0.9))  # kappa 21 -> shard 0
            with pytest.raises(ShardFailureError):
                router.query(10)
        finally:
            router.close()
        # ...and close() still reclaims every segment, including the
        # killed worker's: names derive from the surviving control
        # blocks, not from worker-side state.
        if os.path.isdir("/dev/shm"):
            leaked = [
                name
                for name in os.listdir("/dev/shm")
                for prefix in prefixes
                if name.startswith(prefix)
            ]
            assert leaked == []

    def test_cleanup_is_idempotent_and_crash_safe(self):
        prefix = fresh_prefix()
        publisher = ReplicaPublisher(prefix)
        engine = build_shard_engine(nofn_spec(5))
        engine.ingest(StreamElement((0.5, 0.5), 1))
        publisher.publish(engine)
        # Simulate a crashed owner: nobody calls close(unlink=True);
        # the janitor derives the slot names from the control block.
        cleanup_replica_segments([prefix])
        cleanup_replica_segments([prefix])  # idempotent on nothing
        reader = ReplicaReader(prefix)
        assert reader.read() is None
        reader.close()
        publisher.close()  # detach the (already unlinked) segments

    def test_no_resource_tracker_noise_after_worker_kill(self):
        script = """
import os, signal
from repro.parallel import ShardedNofNSkyline

router = ShardedNofNSkyline(
    dim=2, capacity=20, shards=2, backend="process", timeout=30.0
)
router.append_many([[(i * 0.37) % 1.0, (i * 0.61) % 1.0] for i in range(30)])
router.query(10)
router.query(10)
victim = router._executor._processes[0]
os.kill(victim.pid, signal.SIGKILL)
victim.join(timeout=10.0)
router.close()
print("clean-exit")
"""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=180,
            env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "clean-exit" in result.stdout
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr
        assert "KeyError" not in result.stderr, result.stderr
