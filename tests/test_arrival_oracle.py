"""Every arrival's outcome, pinned against a brute-force oracle.

The oracle derives Algorithm 1's per-arrival changes from the stream
alone, with no engine state:

* ``R(m)`` — the elements that arrived by ``m``, are inside the window
  at ``m`` and have no younger weak dominator among the first ``m``
  arrivals (Theorem 1 with the youngest-copy tie rule);
* arrival ``m`` expires the members of ``R(m-1)`` that left the window,
  ejects the rest of ``R(m-1)`` that ``m`` weakly dominates, and takes
  as critical parent the youngest remaining member that weakly
  dominates it (0 for none);
* an expiring element's children are the members of ``R(m-1)`` whose
  youngest older weak dominator in ``R(m-1)`` it is.

For the k-skyband engine it derives each retained record's ``younger``
count (younger weak dominators so far) and ``older_doms`` (the ``k``
youngest older weak dominators retained just before the record's own
arrival, exact duplicates skipped).

``append`` and ``append_many`` — over chunk sizes 1, 3 and ``CHUNK``
and random batch splits — are compared against the oracle after every
call, on coarse grids that make ties and duplicates common.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    KSkybandEngine,
    LinearScanNofNSkyline,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.accel.batch_prefilter import CHUNK

CHUNK_SIZES = (1, 3, CHUNK)

# A 4-value grid: ties, duplicates and dominance on almost every arrival.
coord = st.integers(0, 3).map(lambda v: v / 3)


def streams(max_dim=3, max_len=40):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d).map(tuple), min_size=1, max_size=max_len
        )
    )


def weakly_dominates(a, b):
    return all(x <= y for x, y in zip(a, b))


def batches(count, seed):
    """A reproducible random split of ``range(count)`` into slices."""
    rng = random.Random(seed)
    out, lo = [], 0
    while lo < count:
        hi = lo + rng.randint(1, count - lo)
        out.append((lo, hi))
        lo = hi
    return out


class ArrivalOracle:
    """Algorithm 1's outcomes and ``R(m)`` from the stream alone.

    ``labels[m - 1]`` is arrival ``m``'s label (its position, or its
    timestamp) and ``starts[m - 1]`` the window start at arrival ``m``:
    labels below it have left the window.
    """

    def __init__(self, points, labels, starts):
        self.points = points
        self.labels = labels
        self.starts = starts
        count = len(points)
        #: kill[j]: the first younger arrival weakly dominating arrival
        #: j + 1 (count + 1 when none does).
        self.kill = [
            next(
                (i + 1 for i in range(j + 1, count)
                 if weakly_dominates(points[i], points[j])),
                count + 1,
            )
            for j in range(count)
        ]

    def retained(self, m):
        """``R(m)``'s kappas, ascending (empty before any arrival)."""
        if m == 0:
            return []
        start = self.starts[m - 1]
        return [
            kappa for kappa in range(1, m + 1)
            if self.labels[kappa - 1] >= start and self.kill[kappa - 1] > m
        ]

    def parent_in(self, members, kappa):
        """Youngest member older than ``kappa`` weakly dominating it."""
        point = self.points[kappa - 1]
        older = [
            y for y in members
            if y < kappa and weakly_dominates(self.points[y - 1], point)
        ]
        return max(older, default=0)

    def outcome(self, m):
        """Arrival ``m``'s outcome: ``(dominated set, parent, expired)``,
        ``expired`` as kappas oldest first."""
        before = self.retained(m - 1)
        start = self.starts[m - 1]
        point = self.points[m - 1]
        gone = [y for y in before if self.labels[y - 1] < start]
        stay = [y for y in before if self.labels[y - 1] >= start]
        dominated = {
            y for y in stay if weakly_dominates(point, self.points[y - 1])
        }
        parent = self.parent_in([y for y in stay if y not in dominated], m)
        return dominated, parent, gone


def outcome_key(outcome):
    return (
        {e.kappa for e in outcome.dominated_removed},
        outcome.parent_kappa,
        [e.kappa for e in outcome.expired],
    )


def check(engine, oracle, outcomes, first):
    """Outcomes of arrivals ``first, first + 1, ...`` and the engine's
    retained set against the oracle."""
    for m, outcome in enumerate(outcomes, first):
        assert outcome.element.kappa == outcome.seen_so_far == m
        assert outcome_key(outcome) == oracle.outcome(m), f"arrival {m}"
    m = engine.seen_so_far
    assert [e.kappa for e in engine.non_redundant()] == oracle.retained(m)


class TestNofNOracle:
    @pytest.mark.parametrize("engine_cls", [NofNSkyline, LinearScanNofNSkyline])
    @settings(max_examples=60, deadline=None)
    @given(
        streams(),
        st.integers(1, 12),
        st.sampled_from((None,) + CHUNK_SIZES),
        st.integers(0, 10**6),
    )
    def test_outcomes_match_oracle(self, engine_cls, history, capacity, chunk, seed):
        """``chunk=None`` feeds ``append``; otherwise ``append_many``
        with that ``batch_chunk`` over a random batch split."""
        count = len(history)
        oracle = ArrivalOracle(
            history,
            labels=list(range(1, count + 1)),
            starts=[m - capacity + 1 for m in range(1, count + 1)],
        )
        engine = engine_cls(
            dim=len(history[0]), capacity=capacity, batch_chunk=chunk
        )
        if chunk is None:
            for m, point in enumerate(history, 1):
                check(engine, oracle, [engine.append(point)], m)
        else:
            for lo, hi in batches(count, seed):
                check(engine, oracle, engine.append_many(history[lo:hi]), lo + 1)
        engine.check_invariants()


class TestTimeWindowOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        streams(),
        st.lists(st.sampled_from([0.1, 0.4, 1.0, 6.0]), min_size=40,
                 max_size=40),
        st.sampled_from((None,) + CHUNK_SIZES),
        st.integers(0, 10**6),
    )
    def test_outcomes_match_oracle(self, history, gaps, chunk, seed):
        """Bursts after quiet spells expire several elements, children
        included, at one arrival."""
        count = len(history)
        stamps, now = [], 0.0
        for gap in gaps[:count]:
            now += gap
            stamps.append(now)
        horizon = 2.0
        oracle = ArrivalOracle(
            history, labels=stamps, starts=[t - horizon for t in stamps]
        )
        engine = TimeWindowSkyline(
            dim=len(history[0]), horizon=horizon, batch_chunk=chunk
        )
        if chunk is None:
            for m, (point, stamp) in enumerate(zip(history, stamps), 1):
                check(engine, oracle, [engine.append(point, stamp)], m)
        else:
            for lo, hi in batches(count, seed):
                outcomes = engine.append_many(history[lo:hi], stamps[lo:hi])
                check(engine, oracle, outcomes, lo + 1)
        engine.check_invariants()


def band_oracle(points, capacity, k, m):
    """The k-skyband engine's records after arrival ``m``, as
    ``(kappa, younger, older_doms)`` triples in kappa order."""

    def younger(kappa, upto):
        return sum(
            1 for j in range(kappa + 1, upto + 1)
            if weakly_dominates(points[j - 1], points[kappa - 1])
        )

    def retained(upto, start):
        return [
            kappa for kappa in range(max(1, start), upto + 1)
            if younger(kappa, upto) < k
        ]

    records = []
    for kappa in retained(m, m - capacity + 1):
        point = points[kappa - 1]
        # Retained just before arrival ``kappa``, inside its window.
        before = retained(kappa - 1, kappa - capacity + 1)
        older = [
            y for y in reversed(before)
            if weakly_dominates(points[y - 1], point)
            and points[y - 1] != point
        ]
        records.append((kappa, younger(kappa, m), older[:k]))
    return records


def band_records(engine):
    return [
        (kappa, r.younger, list(r.older_doms))
        for kappa, r in sorted(engine._records.items())
    ]


class TestKSkybandOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        streams(max_len=30),
        st.integers(1, 10),
        st.integers(1, 3),
        st.sampled_from((None,) + CHUNK_SIZES),
        st.integers(0, 10**6),
    )
    def test_records_match_oracle(self, history, capacity, k, chunk, seed):
        engine = KSkybandEngine(
            dim=len(history[0]), capacity=capacity, k=k, batch_chunk=chunk
        )
        if chunk is None:
            for m, point in enumerate(history, 1):
                engine.append(point)
                assert band_records(engine) == band_oracle(
                    history, capacity, k, m
                ), f"arrival {m}"
        else:
            for lo, hi in batches(len(history), seed):
                engine.append_many(history[lo:hi])
                assert band_records(engine) == band_oracle(
                    history, capacity, k, hi
                ), f"batch ending at {hi}"
        engine.check_invariants()
