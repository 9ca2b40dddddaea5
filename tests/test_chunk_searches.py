"""The chunk pipelines run the index's critical-dominator search only
where the replay reads its answer.

A member with an older same-chunk weak dominator takes its critical
parent from the chunk (``BatchPrefilter.youngest_older``), so the
nofn, time-window and n1n2 pipelines hand
``max_kappa_dominator_batch`` only the members with
``youngest_older < 0``.  A member whose same-chunk candidates have all
died by its arrival (an exact duplicate killed at that arrival) asks
the still-frozen index with the single-probe ``max_kappa_dominator``.
A spy on both searches checks which members they see, and a per-element
twin checks that outcomes and snapshots are unchanged.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import N1N2Skyline, NofNSkyline, TimeWindowSkyline
from repro.accel.batch_prefilter import BatchPrefilter, iter_chunks
from repro.core.persistence import snapshot
from repro.structures.dense_index import DenseIndex

coord = st.integers(0, 6).map(lambda v: v / 6)

#: Counters only ``append_many`` advances.
BATCH_ONLY_STATS = (
    "batches", "batch_elements", "prefilter_dropped", "batch_size_peak",
    "batch_seconds_total", "batch_seconds_max",
)


def canon(engine):
    snap = snapshot(engine)
    for key in BATCH_ONLY_STATS:
        snap["stats"].pop(key, None)
    return json.dumps(snap, sort_keys=True)


@contextmanager
def spied_searches():
    """Record the probes of every chunk-wide dominator search, and the
    single-probe searches made without a ``kappa_below`` bound."""
    calls = {"batch": [], "single": []}
    batch, single = (
        DenseIndex.max_kappa_dominator_batch,
        DenseIndex.max_kappa_dominator,
    )

    def spy_batch(self, points):
        calls["batch"].append([tuple(p) for p in points.tolist()])
        return batch(self, points)

    def spy_single(self, q, kappa_below=None):
        if kappa_below is None:
            calls["single"].append(tuple(q))
        return single(self, q, kappa_below)

    with mock.patch.object(DenseIndex, "max_kappa_dominator_batch", spy_batch), \
            mock.patch.object(DenseIndex, "max_kappa_dominator", spy_single):
        yield calls


def rootless(chunk):
    """The members of ``chunk`` with no older same-chunk weak dominator."""
    youngest = BatchPrefilter(chunk).youngest_older
    return [p for p, h in zip(chunk, youngest) if h < 0]


def stream(max_len=60):
    return st.integers(1, 3).flatmap(
        lambda d: st.lists(st.tuples(*[coord] * d), min_size=1, max_size=max_len)
    )


class TestBatchSearchSeesRootlessMembersOnly:
    @settings(max_examples=40, deadline=None)
    @given(stream(), st.integers(1, 25), st.sampled_from([1, 4, 16]))
    def test_nofn(self, history, capacity, chunk):
        twin = NofNSkyline(len(history[0]), capacity, batch_chunk=chunk)
        expect = [twin.append(p) for p in history]
        engine = NofNSkyline(len(history[0]), capacity, batch_chunk=chunk)
        with spied_searches() as searches:
            got = engine.append_many(history).outcomes
        assert searches["batch"] == [
            rootless(history[lo:hi]) for lo, hi in iter_chunks(len(history), chunk)
        ]
        assert [o.parent_kappa for o in got] == [o.parent_kappa for o in expect]
        assert canon(engine) == canon(twin)

    @settings(max_examples=40, deadline=None)
    @given(stream(), st.integers(1, 25), st.sampled_from([1, 4, 16]))
    def test_n1n2(self, history, capacity, chunk):
        twin = N1N2Skyline(len(history[0]), capacity, batch_chunk=chunk)
        for p in history:
            twin.append(p)
        engine = N1N2Skyline(len(history[0]), capacity, batch_chunk=chunk)
        with spied_searches() as searches:
            engine.append_many(history)
        step = min(chunk, capacity)
        assert searches["batch"] == [
            rootless(history[lo:hi]) for lo, hi in iter_chunks(len(history), step)
        ]
        assert canon(engine) == canon(twin)


class TestSingleProbeFallback:
    """Member 2 of ``CHUNK`` duplicates member 1 and kills it on
    arrival.  Member 1 is member 2's only older same-chunk dominator,
    so member 2 asks the frozen index, whose answer is ``PRIOR``."""

    PRIOR = (0.1, 0.1)
    CHUNK = [(0.3, 0.4), (0.2, 0.2), (0.2, 0.2), (0.5, 0.5)]

    def test_nofn(self):
        twin = NofNSkyline(2, capacity=10)
        expect = [twin.append(p) for p in [self.PRIOR] + self.CHUNK]
        engine = NofNSkyline(2, capacity=10)
        engine.append(self.PRIOR)
        with spied_searches() as searches:
            got = engine.append_many(self.CHUNK).outcomes
        assert searches["single"] == [self.CHUNK[2]]
        assert searches["batch"] == [[self.CHUNK[0], self.CHUNK[1]]]
        assert got[2].parent_kappa == 1
        assert [o.parent_kappa for o in got] == [o.parent_kappa for o in expect[1:]]
        assert canon(engine) == canon(twin)

    def test_time_window(self):
        stamps = [1.0, 2.0, 3.0, 4.0, 5.0]
        twin = TimeWindowSkyline(2, horizon=10.0)
        for p, t in zip([self.PRIOR] + self.CHUNK, stamps):
            twin.append(p, t)
        engine = TimeWindowSkyline(2, horizon=10.0)
        engine.append(self.PRIOR, stamps[0])
        with spied_searches() as searches:
            got = engine.append_many(self.CHUNK, stamps[1:]).outcomes
        assert searches["single"] == [self.CHUNK[2]]
        assert got[2].parent_kappa == 1
        assert canon(engine) == canon(twin)

    def test_n1n2(self):
        twin = N1N2Skyline(2, capacity=10)
        for p in [self.PRIOR] + self.CHUNK:
            twin.append(p)
        engine = N1N2Skyline(2, capacity=10)
        engine.append(self.PRIOR)
        with spied_searches() as searches:
            engine.append_many(self.CHUNK)
        assert searches["single"] == [self.CHUNK[2]]
        assert engine.ancestors(4)[0] == 1
        assert canon(engine) == canon(twin)
