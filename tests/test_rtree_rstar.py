"""Tests for the R*-style split policy (the paper's citation [2])."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import weakly_dominates
from repro.structures.mbr import MBR
from repro.structures.rtree import RTree


class TestPolicySelection:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="split"):
            RTree(2, split="linear")

    def test_policy_recorded(self):
        assert RTree(2, split="rstar").split_policy == "rstar"
        assert RTree(2).split_policy == "quadratic"


class TestOverlapArea:
    def test_disjoint_boxes(self):
        a = MBR((0, 0), (1, 1))
        b = MBR((2, 2), (3, 3))
        assert RTree._overlap_area(a, b) == 0.0

    def test_touching_boxes_have_zero_overlap(self):
        a = MBR((0, 0), (1, 1))
        b = MBR((1, 0), (2, 1))
        assert RTree._overlap_area(a, b) == 0.0

    def test_partial_overlap(self):
        a = MBR((0, 0), (2, 2))
        b = MBR((1, 1), (3, 3))
        assert RTree._overlap_area(a, b) == 1.0

    def test_containment(self):
        a = MBR((0, 0), (4, 4))
        b = MBR((1, 1), (2, 3))
        assert RTree._overlap_area(a, b) == 2.0


class TestRStarBehaviour:
    def test_invariants_under_heavy_churn(self):
        tree = RTree(3, max_entries=6, min_entries=2, split="rstar")
        rng = random.Random(13)
        live = {}
        kappa = 0
        for step in range(600):
            if live and rng.random() < 0.4:
                victim = rng.choice(list(live))
                tree.delete(victim)
                del live[victim]
            else:
                kappa += 1
                point = tuple(rng.random() for _ in range(3))
                tree.insert(point, kappa)
                live[kappa] = point
            if step % 30 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert sorted(e.kappa for e in tree.entries()) == sorted(live)

    def test_searches_match_quadratic_tree(self):
        rng = random.Random(17)
        quad = RTree(2, max_entries=4, min_entries=2, split="quadratic")
        rstar = RTree(2, max_entries=4, min_entries=2, split="rstar")
        points = {}
        for i in range(200):
            point = (rng.random(), rng.random())
            quad.insert(point, i + 1)
            rstar.insert(point, i + 1)
            points[i + 1] = point
        for _ in range(30):
            q = (rng.random(), rng.random())
            expect = sorted(
                k for k, p in points.items() if weakly_dominates(q, p)
            )
            assert sorted(e.kappa for e in quad.report_dominated(q)) == expect
            assert sorted(e.kappa for e in rstar.report_dominated(q)) == expect
            a = quad.max_kappa_dominator(q)
            b = rstar.max_kappa_dominator(q)
            assert (a.kappa if a else None) == (b.kappa if b else None)


coords = st.floats(min_value=0, max_value=1, allow_nan=False, width=32)


class TestRStarProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(coords, coords, coords), max_size=60),
        st.tuples(coords, coords, coords),
    )
    def test_searches_match_brute_force(self, raw_points, q):
        tree = RTree(3, max_entries=4, min_entries=2, split="rstar")
        live = {}
        for i, point in enumerate(raw_points):
            tree.insert(point, i + 1)
            live[i + 1] = point
        got = sorted(e.kappa for e in tree.report_dominated(q))
        expect = sorted(k for k, p in live.items() if weakly_dominates(q, p))
        assert got == expect
        best = tree.max_kappa_dominator(q)
        eligible = [k for k, p in live.items() if weakly_dominates(p, q)]
        assert (best.kappa if best else None) == (
            max(eligible) if eligible else None
        )
        tree.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=60),
           st.tuples(coords, coords))
    def test_remove_dominated_keeps_invariants(self, raw_points, q):
        tree = RTree(2, max_entries=4, min_entries=2, split="rstar")
        for i, point in enumerate(raw_points):
            tree.insert(point, i + 1)
        removed = tree.remove_dominated(q)
        tree.check_invariants()
        assert len(tree) == len(raw_points) - len(removed)
