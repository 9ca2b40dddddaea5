"""``BatchPrefilter`` against a pure-Python pairwise oracle, and the
engines' fallback walk over older same-chunk dominators.

The prefilter answers every chunk member's intra-chunk questions from
one dominance matrix: when it dies (``kill``, ``killed_at``), which
older members dominate it (``older_weak_dominators``,
``youngest_older``) and which older members it dominates
(``older_weak_victims``).  The oracle recomputes each answer with an
``O(B^2)`` loop over plain tuples.

The chunk pipelines take a member's critical-parent candidate from
``youngest_older`` and walk ``older_weak_dominators`` only when that
candidate is already gone: an exact duplicate killed at this very
arrival, or a member that expired mid-chunk.  The second half of this
file builds both cases, checks parity with a per-element twin, and
spies on the walk so that a pipeline which skips it fails.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import N1N2Skyline, NofNSkyline, TimeWindowSkyline
from repro.accel.batch_prefilter import BatchPrefilter, intra_batch_survivors
from repro.core.persistence import snapshot

# One decimal digit: ties on single axes and exact duplicates are common.
coord = st.integers(0, 10).map(lambda v: v / 10)


def chunks(max_len=80):
    return st.integers(1, 5).flatmap(
        lambda d: st.lists(st.tuples(*[coord] * d), min_size=0, max_size=max_len)
    )


def wd(p, q):
    """Oracle weak dominance: ``p <= q`` on every axis."""
    return all(a <= b for a, b in zip(p, q))


def oracle_kill(points, k):
    """Index of the arrival that brings each member's younger weak
    dominators to ``k``, or ``-1``."""
    kill = []
    for i, p in enumerate(points):
        at, seen = -1, 0
        for j in range(i + 1, len(points)):
            if wd(points[j], p):
                seen += 1
                if seen == k:
                    at = j
                    break
        kill.append(at)
    return kill


def oracle_older_dominators(points, i):
    return [h for h in range(i - 1, -1, -1) if wd(points[h], points[i])]


#: A one-member chunk (``append`` runs a chunk of one): the prefilter
#: answers it without building a dominance matrix.
ONE = [(0.3, 0.7)]


def one_member(test):
    """Run ``test`` on the one-member chunk at ``k = 1`` and ``k = 2``
    on every run, whatever hypothesis draws."""
    return example(ONE, 2)(example(ONE, 1)(test))


class TestAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(chunks(), st.integers(1, 3))
    @one_member
    def test_kill_and_killed_at(self, points, k):
        pre = BatchPrefilter(points, k=k)
        kill = oracle_kill(points, k)
        assert pre.size == len(points)
        assert pre.k == k
        assert pre.kill == kill
        for j in range(len(points)):
            assert pre.killed_at(j) == [i for i, at in enumerate(kill) if at == j]
            assert pre.is_doomed(j) == (kill[j] >= 0)
        assert pre.dropped == sum(1 for at in kill if at >= 0)

    @settings(max_examples=80, deadline=None)
    @given(chunks(), st.integers(1, 3))
    @one_member
    def test_older_dominators_and_victims(self, points, k):
        pre = BatchPrefilter(points, k=k)
        for i in range(len(points)):
            assert pre.older_weak_dominators(i) == oracle_older_dominators(
                points, i
            )
            assert pre.older_weak_victims(i) == [
                h for h in range(i) if wd(points[i], points[h])
            ]

    @settings(max_examples=80, deadline=None)
    @given(chunks(max_len=30), st.integers(1, 3))
    @one_member
    def test_weakly_dominates(self, points, k):
        pre = BatchPrefilter(points, k=k)
        for a, p in enumerate(points):
            for b, q in enumerate(points):
                assert pre.weakly_dominates(a, b) == wd(p, q)

    @settings(max_examples=80, deadline=None)
    @given(chunks(), st.integers(1, 3))
    @one_member
    def test_youngest_older(self, points, k):
        pre = BatchPrefilter(points, k=k)
        expect = []
        for i in range(len(points)):
            older = oracle_older_dominators(points, i)
            expect.append(older[0] if older else -1)
        assert pre.youngest_older == expect

    @settings(max_examples=80, deadline=None)
    @given(chunks(), st.integers(1, 3))
    @one_member
    def test_intra_batch_survivors(self, points, k):
        kill = oracle_kill(points, k)
        assert intra_batch_survivors(points, k=k) == [
            i for i, at in enumerate(kill) if at < 0
        ]

    def test_k_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            BatchPrefilter([(0.1, 0.2)], k=0)


# ----------------------------------------------------------------------
# The pipelines' fallback walk
# ----------------------------------------------------------------------

#: ``DUPLICATE[2]`` repeats ``DUPLICATE[1]``: member 1 is member 2's
#: youngest older dominator, and member 2 kills it on arrival, so the
#: parent search walks on to member 0.
DUPLICATE = [(0.1, 0.1), (0.2, 0.2), (0.2, 0.2), (0.3, 0.4)]

#: Member 3's only older dominator is member 0, which has left a window
#: of three or fewer arrivals (or time units) before member 3 arrives.
OVERSIZED = [(0.1, 0.1), (0.9, 0.05), (0.05, 0.9), (0.5, 0.5), (0.6, 0.6)]
OVERSIZED_STAMPS = [1.0, 1.1, 1.2, 4.5, 4.6]

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


def outcome_key(outcome):
    return (
        outcome.element.kappa,
        outcome.parent_kappa,
        frozenset(e.kappa for e in outcome.dominated_removed),
        frozenset(e.kappa for e in outcome.expired),
    )


@pytest.fixture
def walks(monkeypatch):
    """Record the member index of every ``older_weak_dominators`` call."""
    calls = []
    original = BatchPrefilter.older_weak_dominators

    def spy(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(BatchPrefilter, "older_weak_dominators", spy)
    return calls


class TestFallbackWalk:
    def test_nofn_duplicate(self, walks):
        twin = NofNSkyline(dim=2, capacity=10)
        expect = [twin.append(p) for p in DUPLICATE]
        batched = NofNSkyline(dim=2, capacity=10)
        got = batched.append_many(DUPLICATE).outcomes
        assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
        assert got[2].parent_kappa == 1
        assert canon(batched) == canon(twin)
        assert 2 in walks

    def test_nofn_chunk_larger_than_window(self, walks):
        twin = NofNSkyline(dim=2, capacity=2)
        expect = [twin.append(p) for p in OVERSIZED]
        batched = NofNSkyline(dim=2, capacity=2)
        got = batched.append_many(OVERSIZED).outcomes
        assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
        assert canon(batched) == canon(twin)
        assert 3 in walks

    def test_time_window_duplicate(self, walks):
        stamps = [1.0, 2.0, 3.0, 4.0]
        twin = TimeWindowSkyline(dim=2, horizon=10.0)
        expect = [twin.append(p, t) for p, t in zip(DUPLICATE, stamps)]
        batched = TimeWindowSkyline(dim=2, horizon=10.0)
        got = batched.append_many(DUPLICATE, stamps).outcomes
        assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
        assert got[2].parent_kappa == 1
        assert canon(batched) == canon(twin)
        assert 2 in walks

    def test_time_window_burst_wider_than_horizon(self, walks):
        twin = TimeWindowSkyline(dim=2, horizon=2.0)
        expect = [twin.append(p, t) for p, t in zip(OVERSIZED, OVERSIZED_STAMPS)]
        batched = TimeWindowSkyline(dim=2, horizon=2.0)
        got = batched.append_many(OVERSIZED, OVERSIZED_STAMPS).outcomes
        assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
        assert canon(batched) == canon(twin)
        assert 3 in walks

    def test_n1n2_duplicate(self, walks):
        twin = N1N2Skyline(dim=2, capacity=10)
        for p in DUPLICATE:
            twin.append(p)
        batched = N1N2Skyline(dim=2, capacity=10)
        batched.append_many(DUPLICATE)
        assert batched.ancestors(3) == twin.ancestors(3)
        assert batched.ancestors(3)[0] == 1
        assert canon(batched) == canon(twin)
        assert 2 in walks
