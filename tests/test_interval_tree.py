"""Unit and property tests for the stabbing-query interval tree."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import StabCache
from repro.exceptions import InvalidIntervalError, KeyNotFoundError
from repro.structures.interval_tree import Interval, IntervalTree


class TestInterval:
    def test_half_open_membership(self):
        interval = Interval(2.0, 5.0, "x")
        assert not interval.contains(2.0)  # open at the low end
        assert interval.contains(2.0001)
        assert interval.contains(5.0)  # closed at the high end
        assert not interval.contains(5.0001)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(3.0, 3.0, None)
        with pytest.raises(InvalidIntervalError):
            Interval(4.0, 3.0, None)

    def test_infinite_high_allowed(self):
        interval = Interval(0.0, math.inf, "live")
        assert interval.contains(1e12)

    def test_repr(self):
        assert "(1.0, 2.0]" in repr(Interval(1.0, 2.0, "p"))


class TestStabbing:
    def test_empty_tree_stabs_nothing(self):
        assert IntervalTree().stab(1.0) == []

    def test_paper_example_encoding(self):
        """Example 3 of the paper: intervals (0,3], (0,4], (3,7],
        (4,5], (4,6]; stabbing with M-n+1 = 2 returns c and e."""
        tree = IntervalTree()
        tree.insert(0, 3, "c")
        tree.insert(0, 4, "e")
        tree.insert(3, 7, "h")
        tree.insert(4, 5, "f")
        tree.insert(4, 6, "g")
        assert sorted(tree.stab(2)) == ["c", "e"]
        # n = 3 -> stab 5: f (4,5], g (4,6] and h (3,7] are all stabbed.
        assert sorted(tree.stab(5)) == ["f", "g", "h"]
        # n = 7 -> stab 1: only the roots.
        assert sorted(tree.stab(1)) == ["c", "e"]

    def test_duplicate_endpoints_coexist(self):
        tree = IntervalTree()
        a = tree.insert(1, 5, "a")
        b = tree.insert(1, 5, "b")
        assert sorted(tree.stab(3)) == ["a", "b"]
        tree.remove(a)
        assert tree.stab(3) == ["b"]
        assert b.interval.data == "b"

    def test_stab_intervals_returns_objects(self):
        tree = IntervalTree()
        tree.insert(0, 2, "x")
        [interval] = tree.stab_intervals(1)
        assert isinstance(interval, Interval)
        assert interval.high == 2

    def test_infinite_intervals_always_stabbed_above_low(self):
        tree = IntervalTree()
        tree.insert(10, math.inf, "live")
        assert tree.stab(11) == ["live"]
        assert tree.stab(10) == []


class TestUpdates:
    def test_remove_by_handle(self):
        tree = IntervalTree()
        h = tree.insert(0, 10, "x")
        tree.insert(5, 15, "y")
        tree.remove(h)
        assert tree.stab(7) == ["y"]
        assert len(tree) == 1

    def test_replace_rewrites_endpoints_keeps_payload(self):
        tree = IntervalTree()
        h = tree.insert(4, 9, "child")
        h2 = tree.replace(h, 0, 9)
        assert tree.stab(2) == ["child"]
        assert h2.interval.data == "child"
        assert len(tree) == 1

    def test_len_and_iteration(self):
        tree = IntervalTree()
        tree.insert(0, 1, "a")
        tree.insert(0, 2, "b")
        assert len(tree) == 2 and bool(tree)
        assert [i.data for i in tree.intervals()] == ["a", "b"]

    def test_iteration_ties_follow_insertion_not_slots(self):
        tree = IntervalTree()
        a = tree.insert(0, 5, "a")
        b = tree.insert(0, 5, "b")
        tree.remove(a)
        c = tree.insert(0, 5, "c")  # recycles a's slot, ahead of b's
        assert c._slot < b._slot
        assert [i.data for i in tree.intervals()] == ["b", "c"]
        tree.replace(b, 0, 5)  # a replacement counts as a fresh insert
        assert [i.data for i in tree.intervals()] == ["c", "b"]

    def test_many_updates_keep_invariants(self):
        tree = IntervalTree()
        rng = random.Random(3)
        handles = []
        for step in range(600):
            if handles and rng.random() < 0.45:
                handles.pop(rng.randrange(len(handles)))
                # removal via replace half the time exercises both paths
                continue
            lo = rng.randint(0, 50)
            hi = lo + rng.randint(1, 50)
            handles.append(tree.insert(lo, hi, step))
        # The tree only grew here; now remove all and re-check.
        tree.check_invariants()


def _state(tree):
    lows, highs, payloads = tree.slots()
    return (
        len(tree),
        tree.version,
        lows.tolist(),
        highs.tolist(),
        list(payloads),
        list(tree._free),
    )


class TestDeadHandle:
    """A handle that is not live is rejected before anything changes.
    Accepted, a second removal would push its slot onto the free list
    twice, two later inserts would share one slot, and stabs would drop
    an interval."""

    @pytest.mark.parametrize("write", ["remove", "replace"])
    def test_removed_handle_is_rejected(self, write):
        tree = IntervalTree()
        dead = tree.insert(0, 5, "a")
        tree.insert(1, 6, "b")
        tree.remove(dead)
        before = _state(tree)
        with pytest.raises(KeyNotFoundError):
            if write == "remove":
                tree.remove(dead)
            else:
                tree.replace(dead, 2, 7)
        assert _state(tree) == before
        tree.check_invariants()
        first = tree.insert(0, 5, "c")
        second = tree.insert(0, 5, "d")
        assert first._slot != second._slot
        assert sorted(tree.stab(3)) == ["b", "c", "d"]

    def test_handle_of_a_recycled_slot_is_rejected(self):
        tree = IntervalTree()
        dead = tree.insert(0, 5, "a")
        tree.remove(dead)
        tree.insert(2, 9, "b")  # takes the freed slot
        before = _state(tree)
        with pytest.raises(KeyNotFoundError):
            tree.remove(dead)
        assert _state(tree) == before
        assert tree.stab(3) == ["b"]
        tree.check_invariants()

    def test_handle_from_another_tree_is_rejected(self):
        tree = IntervalTree()
        tree.insert(0, 5, "a")
        other = IntervalTree()
        foreign = [other.insert(i, i + 1, i) for i in range(3)][-1]
        before = _state(tree)
        with pytest.raises(KeyNotFoundError):
            tree.remove(foreign)
        assert _state(tree) == before
        tree.check_invariants()


class TestVersioning:
    def test_insert_and_remove_each_bump(self):
        tree = IntervalTree()
        v0 = tree.version
        h = tree.insert(0, 5, "a")
        assert tree.version == v0 + 1
        tree.insert(1, 6, "b")
        assert tree.version == v0 + 2
        tree.remove(h)
        assert tree.version == v0 + 3

    def test_replace_bumps_twice(self):
        tree = IntervalTree()
        h = tree.insert(4, 9, "child")
        v = tree.version
        tree.replace(h, 0, 9)
        assert tree.version == v + 2

    def test_reads_do_not_bump(self):
        tree = IntervalTree()
        tree.insert(0, 5, "a")
        v = tree.version
        tree.stab(3)
        tree.stab_intervals(3)
        list(tree.intervals())
        len(tree)
        tree.check_invariants()
        assert tree.version == v


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 40)), max_size=80
)

#: A width of ``None`` makes the high endpoint ``inf``.
width_strategy = st.one_of(st.integers(1, 40), st.none())

#: Writes after the initial inserts.  ``remove`` and ``replace`` pick a
#: live interval by index, so removals free slots that later
#: inserts and replacements recycle.
updates_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 60), width_strategy),
        st.tuples(st.just("remove"), st.integers(0, 10_000), st.none()),
        st.tuples(
            st.just("replace"),
            st.integers(0, 10_000),
            st.tuples(st.integers(0, 60), width_strategy),
        ),
    ),
    max_size=60,
)


def _high(lo, width):
    return math.inf if width is None else lo + width


class TestStabbingProperties:
    @settings(max_examples=60, deadline=None)
    @given(intervals_strategy, updates_strategy, st.integers(0, 100))
    def test_matches_linear_scan(self, spans, updates, stab_at):
        """The tree and a :class:`StabCache` (answers ascending by high)
        agree with a linear scan, across slot recycling (removals,
        replacements, re-inserts), slot-array growth past its initial 16
        slots (up to 80 initial inserts), ``inf`` highs and stab points
        on endpoint values; the size and the ``(low, high, insertion)``
        iteration order follow the model."""
        tree = IntervalTree()
        cache = StabCache(tree)
        live = {}
        handles = {}

        def scan(t):
            return sorted(i for i, (lo, hi) in live.items() if lo < t <= hi)

        for i, (lo, width) in enumerate(spans):
            live[i] = (lo, lo + width)
            handles[i] = tree.insert(lo, lo + width, i)
        next_id = len(spans)
        for kind, arg, extra in updates:
            if kind == "insert":
                live[next_id] = (arg, _high(arg, extra))
                handles[next_id] = tree.insert(*live[next_id], next_id)
                next_id += 1
            elif live:
                key = sorted(live)[arg % len(live)]
                if kind == "remove":
                    tree.remove(handles.pop(key))
                    del live[key]
                else:
                    lo, width = extra
                    # Re-keyed so ``live`` keeps insertion order: a
                    # replacement is a removal and a fresh insert.
                    del live[key]
                    live[key] = (lo, _high(lo, width))
                    handles[key] = tree.replace(handles[key], *live[key])
            # Read between writes so every version is caught up with.
            assert sorted(cache.stab(stab_at)) == scan(stab_at)
            assert len(tree) == len(live)
        # Intervals come sorted by (low, high), ties in insertion order
        # (``sorted`` is stable over the insertion-ordered ``live``).
        assert [i.data for i in tree.intervals()] == sorted(
            live, key=live.__getitem__
        )
        assert bool(tree) == bool(live)

        points = {stab_at}
        for lo, hi in live.values():
            points.update((lo, lo + 0.5))
            if hi != math.inf:
                points.add(hi)
        answers = {}
        for t in sorted(points):
            expected = scan(t)
            assert sorted(tree.stab(t)) == expected
            answers[t] = cache.stab(t)
            assert sorted(answers[t]) == expected
            highs = [live[i][1] for i in answers[t]]
            assert highs == sorted(highs)
        for t, first in answers.items():
            hits = cache.hits
            assert cache.stab(t) == first
            assert cache.hits == hits + 1
        tree.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(intervals_strategy)
    def test_insert_remove_all_leaves_empty(self, spans):
        tree = IntervalTree()
        handles = [tree.insert(lo, lo + w, i) for i, (lo, w) in enumerate(spans)]
        random.Random(1).shuffle(handles)
        for h in handles:
            tree.remove(h)
            tree.check_invariants()
        assert len(tree) == 0
        assert tree.stab(5) == []
