"""The pointer R-tree as the oracle for the indexes the engines run.

:class:`~repro.structures.rtree.RTree` is the paper's Figure 8
structure.  The engines run :class:`~repro.structures.rtree_soa.SoARTree`
(and the linear-scan ablation runs ``_ScanIndex``), and their
``append_many`` chunk pipeline talks to it only through the batch
surface.  That surface is checked here structure against structure: the
same random contents go into both indexes, which are then frozen and
probed with random chunks.

* the per-probe searches ``report_dominated``, ``remove_dominated``
  and ``max_kappa_dominator`` (with and without ``kappa_below``) equal
  the pointer tree's;
* ``report_dominated_batch`` equals per-probe pointer
  ``report_dominated``, each victim under the earliest probe that
  dominates it (``first_only=True``) or under every such probe
  (``first_only=False``);
* ``max_kappa_dominator_batch`` equals per-probe pointer
  ``max_kappa_dominator``;
* after ``delete_many`` and ``insert_many`` both indexes still agree.

The oracle's own pruning contract is pinned first: ``report_dominated``
expands only subtrees whose candidate region contains the probe, under
either split policy.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nofn_linear import _ScanIndex
from repro.structures.rtree import RTree
from repro.structures.rtree_soa import SoARTree


def all_nodes(tree):
    nodes = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack.extend(node.children)
    return nodes


# ----------------------------------------------------------------------
# The oracle's pruning contract
# ----------------------------------------------------------------------


class TestReportPruning:
    def mirror_visits(self, tree, q):
        """Independent re-statement of the pruning contract: a node is
        expanded iff its box passes ``may_contain_dominated`` at push
        time, and a fully dominated box is harvested without pushing
        its children."""
        visits = 0
        root = tree._root
        stack = []
        if root.mbr is not None and root.mbr.may_contain_dominated(q):
            stack.append(root)
        while stack:
            node = stack.pop()
            if node.mbr is None:
                continue
            visits += 1
            if node.mbr.fully_dominated_by(q) or node.is_leaf:
                continue
            for child in node.children:
                if child.mbr is not None and child.mbr.may_contain_dominated(q):
                    stack.append(child)
        return visits

    @pytest.mark.parametrize("split", ["quadratic", "rstar"])
    def test_visit_counts_match_mirror(self, split):
        rng = random.Random(42)
        tree = RTree(dim=3, max_entries=4, min_entries=2, split=split)
        points = [
            tuple(rng.randint(0, 50) for _ in range(3)) for _ in range(300)
        ]
        for kappa, point in enumerate(points, start=1):
            tree.insert(point, kappa)
        total_nodes = len(all_nodes(tree))
        pruned_somewhere = False
        for _ in range(25):
            q = tuple(rng.randint(0, 50) for _ in range(3))
            got = sorted(e.kappa for e in tree.report_dominated(q))
            assert tree.last_report_visits == self.mirror_visits(tree, q)
            if tree.last_report_visits < total_nodes:
                pruned_somewhere = True
            brute = sorted(
                kappa
                for kappa, point in enumerate(points, start=1)
                if all(a <= b for a, b in zip(q, point))  # lint: skip=REPRO002
            )
            assert got == brute
        assert pruned_somewhere

    def test_high_probe_visits_nothing(self):
        """A probe dominating nothing and outside every candidate region
        must not expand a single node."""
        tree = RTree(dim=2, max_entries=4, min_entries=2)
        for kappa in range(1, 30):
            tree.insert((kappa % 5, kappa % 7), kappa)
        assert tree.report_dominated((100, 100)) == []
        assert tree.last_report_visits == 0

    def test_empty_tree_visits_nothing(self):
        tree = RTree(dim=2)
        assert tree.report_dominated((0, 0)) == []
        assert tree.last_report_visits == 0


# ----------------------------------------------------------------------
# Batch surface against the oracle (hypothesis)
# ----------------------------------------------------------------------

#: A coarse grid, so exact ties and duplicate points are common.
coord = st.integers(0, 6).map(lambda v: v / 6)


@st.composite
def frozen_cases(draw, max_contents=120, max_chunk=12):
    """``(dim, contents, probes, deletes, inserts)``: the index
    contents as ``(point, kappa)`` pairs, one probe chunk, a victim
    subset of the stored kappas, and fresh points to insert."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[coord] * dim)
    points = draw(st.lists(point, max_size=max_contents))
    contents = list(zip(points, range(1, len(points) + 1)))
    probes = draw(st.lists(point, min_size=1, max_size=max_chunk))
    deletes = draw(st.lists(
        st.sampled_from([k for _, k in contents]) if contents
        else st.nothing(),
        unique=True,
    ))
    inserts = draw(st.lists(point, max_size=max_chunk))
    return dim, contents, probes, deletes, inserts


def pointer_of(dim, contents):
    tree = RTree(dim, max_entries=4, min_entries=2)
    for point, kappa in contents:
        tree.insert(point, kappa, ("payload", kappa))
    return tree


def expected_report(pointer, probes, first_only):
    """Per-probe pointer ``report_dominated`` buckets, kappa-sorted;
    with ``first_only`` each victim stays only in its earliest probe's
    bucket."""
    buckets = [
        sorted(e.kappa for e in pointer.report_dominated(q)) for q in probes
    ]
    if first_only:
        claimed = set()
        for i, bucket in enumerate(buckets):
            buckets[i] = [k for k in bucket if k not in claimed]
            claimed.update(bucket)
    return buckets


def expected_parents(pointer, probes):
    answers = [pointer.max_kappa_dominator(q) for q in probes]
    return [None if e is None else e.kappa for e in answers]


def kappas_of(buckets):
    return [[e.kappa for e in bucket] for bucket in buckets]


def parents_of(entries):
    return [None if e is None else e.kappa for e in entries]


def contents_of(index):
    return sorted(
        (kappa, entry.point, entry.data)
        for kappa, entry in index._entries.items()
    )


def mutate(index, pointer, deletes, inserts, next_kappa):
    """Bulk mutations on ``index``, the per-element equivalent on the
    pointer oracle."""
    removed = index.delete_many(deletes)
    assert [e.kappa for e in removed] == list(deletes)
    for kappa in deletes:
        pointer.delete(kappa)
    kappas = list(range(next_kappa, next_kappa + len(inserts)))
    datas = [("payload", k) for k in kappas]
    entries = index.insert_many(inserts, kappas, datas)
    assert [e.kappa for e in entries] == kappas
    for point, kappa, data in zip(inserts, kappas, datas):
        pointer.insert(point, kappa, data)


def soa_of(dim, contents, capacity):
    soa = SoARTree(dim, max_entries=4, block_capacity=capacity)
    for point, kappa in contents:
        soa.insert(point, kappa, ("payload", kappa))
    return soa


class TestSoAProbeOracle:
    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), st.sampled_from([2, 4, None]))
    def test_report_dominated_matches_pointer(self, case, capacity):
        dim, contents, probes, _, _ = case
        soa = soa_of(dim, contents, capacity)
        pointer = pointer_of(dim, contents)
        for q in probes:
            got = [e.kappa for e in soa.report_dominated(q)]
            assert got == sorted(e.kappa for e in pointer.report_dominated(q))
        assert len(soa) == len(contents)

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), st.sampled_from([2, 4, None]))
    def test_remove_dominated_matches_pointer(self, case, capacity):
        dim, contents, probes, _, _ = case
        soa = soa_of(dim, contents, capacity)
        pointer = pointer_of(dim, contents)
        for q in probes:
            got = [e.kappa for e in soa.remove_dominated(q)]
            assert got == sorted(e.kappa for e in pointer.remove_dominated(q))
            soa.check_invariants()
            pointer.check_invariants()
            assert contents_of(soa) == contents_of(pointer)

    @settings(max_examples=60, deadline=None)
    @given(
        frozen_cases(),
        st.sampled_from([2, 4, None]),
        st.one_of(st.none(), st.integers(1, 130)),
    )
    def test_max_kappa_dominator_matches_pointer(
        self, case, capacity, kappa_below
    ):
        dim, contents, probes, _, _ = case
        soa = soa_of(dim, contents, capacity)
        pointer = pointer_of(dim, contents)
        for q in probes:
            bounds = [None, kappa_below]
            unrestricted = pointer.max_kappa_dominator(q)
            if unrestricted is not None:
                bounds.append(unrestricted.kappa)  # the sharpest cut-off
            for below in bounds:
                got = soa.max_kappa_dominator(q, below)
                want = pointer.max_kappa_dominator(q, below)
                assert parents_of([got]) == parents_of([want])


class TestSoABatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), st.sampled_from([2, 4, None]))
    def test_report_dominated_batch_matches_pointer(self, case, capacity):
        dim, contents, probes, _, _ = case
        soa = soa_of(dim, contents, capacity)
        pointer = pointer_of(dim, contents)
        for first_only in (True, False):
            got = soa.report_dominated_batch(probes, first_only=first_only)
            assert kappas_of(got) == expected_report(
                pointer, probes, first_only
            )
        # Non-destructive: the frozen index still holds everything.
        assert len(soa) == len(pointer) == len(contents)
        soa.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), st.sampled_from([2, 4, None]))
    def test_max_kappa_dominator_batch_matches_pointer(self, case, capacity):
        dim, contents, probes, _, _ = case
        soa = soa_of(dim, contents, capacity)
        pointer = pointer_of(dim, contents)
        got = parents_of(soa.max_kappa_dominator_batch(probes))
        assert got == expected_parents(pointer, probes)

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), st.sampled_from([2, 4, None]))
    def test_bulk_mutations_keep_trees_in_agreement(self, case, capacity):
        dim, contents, probes, deletes, inserts = case
        soa = SoARTree(dim, max_entries=4, block_capacity=capacity)
        soa.insert_many(
            [p for p, _ in contents],
            [k for _, k in contents],
            [("payload", k) for _, k in contents],
        )
        pointer = pointer_of(dim, contents)
        mutate(soa, pointer, deletes, inserts, len(contents) + 1)
        soa.check_invariants()
        pointer.check_invariants()
        assert contents_of(soa) == contents_of(pointer)
        for first_only in (True, False):
            got = soa.report_dominated_batch(probes, first_only=first_only)
            assert kappas_of(got) == expected_report(
                pointer, probes, first_only
            )
        assert parents_of(soa.max_kappa_dominator_batch(probes)) == (
            expected_parents(pointer, probes)
        )


class TestScanIndexOracle:
    """The linear-scan ablation index runs the same chunk pipeline as
    the SoA index; its plain-loop batch methods must match the oracle
    too (``first_only`` attribution only: the n-of-N engine is their one
    user)."""

    @staticmethod
    def scan_of(dim, contents):
        index = _ScanIndex(dim)
        for point, kappa in contents:
            index.insert(point, kappa, ("payload", kappa))
        return index

    @settings(max_examples=40, deadline=None)
    @given(frozen_cases())
    def test_report_dominated_batch_matches_pointer(self, case):
        dim, contents, probes, _, _ = case
        scan = self.scan_of(dim, contents)
        pointer = pointer_of(dim, contents)
        got = kappas_of(scan.report_dominated_batch(probes))
        assert got == expected_report(pointer, probes, first_only=True)
        assert len(scan) == len(contents)

    @settings(max_examples=40, deadline=None)
    @given(frozen_cases())
    def test_max_kappa_dominator_batch_matches_pointer(self, case):
        dim, contents, probes, _, _ = case
        scan = self.scan_of(dim, contents)
        pointer = pointer_of(dim, contents)
        got = parents_of(scan.max_kappa_dominator_batch(probes))
        assert got == expected_parents(pointer, probes)

    @settings(max_examples=40, deadline=None)
    @given(frozen_cases())
    def test_bulk_mutations_keep_indexes_in_agreement(self, case):
        dim, contents, probes, deletes, inserts = case
        scan = self.scan_of(dim, contents)
        pointer = pointer_of(dim, contents)
        mutate(scan, pointer, deletes, inserts, len(contents) + 1)
        scan.check_invariants()
        assert contents_of(scan) == contents_of(pointer)
        got = kappas_of(scan.report_dominated_batch(probes))
        assert got == expected_report(pointer, probes, first_only=True)
        assert parents_of(scan.max_kappa_dominator_batch(probes)) == (
            expected_parents(pointer, probes)
        )
