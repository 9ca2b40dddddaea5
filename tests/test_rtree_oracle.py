"""The pointer R-tree as the oracle for the indexes the engines run.

:class:`~repro.structures.rtree.RTree` is the paper's Figure 8
structure.  The engines run
:class:`~repro.structures.dense_index.DenseIndex` (and the linear-scan
ablation runs ``_ScanIndex``), and their ``append_many`` chunk pipeline
talks to it only through the batch surface.  That surface is checked
here structure against structure: the same random contents go into both
indexes, which are then frozen and probed with random chunks.  The
dense index runs with its default sweep segments and probe blocks and
with tiny ones, so every multi-segment sweep and every cross-block
attribution path is reached by these small cases.  The ``TestSoA*``
classes take their name from the index's struct-of-arrays layout (a
coordinate matrix beside a kappa vector), which it shares with the
block R-tree it replaced.

* the per-probe searches ``report_dominated`` and
  ``max_kappa_dominator`` (with and without ``kappa_below``) equal the
  pointer tree's, and so does an ejection (a report deleted with
  ``delete_many``) to the pointer's ``remove_dominated``;
* ``report_dominated_batch`` equals per-probe pointer
  ``report_dominated``, each victim under the earliest probe that
  dominates it (``first_only=True``) or under every such probe
  (``first_only=False``); searching with the chunk's prefilter
  survivors alone gives the first-only buckets of the whole chunk;
* ``max_kappa_dominator_batch`` equals per-probe pointer
  ``max_kappa_dominator``;
* after ``delete_many`` and ``insert_many`` both indexes still agree,
  including across a compaction of the dense index's tombstones.

``append`` runs a chunk of one, so every batch test also runs a fixed
one-probe case (one probe, one delete, one insert) on every run.

The oracle's own pruning contract is pinned first: ``report_dominated``
expands only subtrees whose candidate region contains the probe, under
either split policy.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel.batch_prefilter import intra_batch_survivors
from repro.core.nofn_linear import _ScanIndex
from repro.structures import dense_index
from repro.structures.dense_index import DenseIndex
from repro.structures.rtree import RTree


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


#: A one-probe chunk over tied contents: the probe weakly dominates an
#: exact duplicate of itself (kappas 1 and 3) and a worse point (5), and
#: is dominated by both duplicates and by kappa 6.  One delete and one
#: insert follow.
ONE_PROBE = (
    2,
    [((0.5, 0.5), 1), ((0.25, 1.0), 2), ((0.5, 0.5), 3), ((1.0, 0.25), 4),
     ((0.75, 0.75), 5), ((0.25, 0.5), 6)],
    [(0.5, 0.5)],
    [2],
    [(0.25, 0.25)],
)


def one_probe(test):
    """Run ``test`` on :data:`ONE_PROBE` with the default and the
    smallest sweep segments on every run, whatever hypothesis draws."""
    return example(ONE_PROBE, 1)(example(ONE_PROBE, None)(test))


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


#: Sweep segment and probe-block sizes: ``None`` keeps the defaults,
#: the small ones force multi-segment sweeps and several probe blocks.
blocking = st.sampled_from([1, 3, None])


def dense_of(dim, contents):
    index = DenseIndex(dim)
    for point, kappa in contents:
        index.insert(point, kappa, ("payload", kappa))
    return index


def blocked(size):
    """Shrink the dense index's sweep segments and probe blocks to
    ``size`` (no-op for ``None``)."""
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(
        dense_index,
        _FIRST_SEGMENT=size,
        _FIRST_BATCH_SEGMENT=size,
        _PROBE_BLOCK=size,
    )


class TestSoAProbeOracle:
    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), blocking)
    def test_report_dominated_matches_pointer(self, case, size):
        dim, contents, probes, _, _ = case
        dense = dense_of(dim, contents)
        pointer = pointer_of(dim, contents)
        with blocked(size):
            for q in probes:
                got = [e.kappa for e in dense.report_dominated(q)]
                assert got == sorted(
                    e.kappa for e in pointer.report_dominated(q)
                )
        assert len(dense) == len(contents)

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), blocking)
    def test_remove_dominated_matches_pointer(self, case, size):
        """An ejection as the engines flush it — the report, then
        ``delete_many`` — against the pointer's ``remove_dominated``."""
        dim, contents, probes, _, _ = case
        dense = dense_of(dim, contents)
        pointer = pointer_of(dim, contents)
        with blocked(size):
            for q in probes:
                got = [e.kappa for e in dense.report_dominated(q)]
                dense.delete_many(got)
                assert got == sorted(
                    e.kappa for e in pointer.remove_dominated(q)
                )
                dense.check_invariants()
                pointer.check_invariants()
                assert contents_of(dense) == contents_of(pointer)

    @settings(max_examples=60, deadline=None)
    @given(
        frozen_cases(),
        blocking,
        st.one_of(st.none(), st.integers(1, 130)),
    )
    def test_max_kappa_dominator_matches_pointer(
        self, case, size, kappa_below
    ):
        dim, contents, probes, _, _ = case
        dense = dense_of(dim, contents)
        pointer = pointer_of(dim, contents)
        with blocked(size):
            for q in probes:
                bounds = [None, kappa_below]
                unrestricted = pointer.max_kappa_dominator(q)
                if unrestricted is not None:
                    bounds.append(unrestricted.kappa)  # the sharpest cut-off
                for below in bounds:
                    got = dense.max_kappa_dominator(q, below)
                    want = pointer.max_kappa_dominator(q, below)
                    assert parents_of([got]) == parents_of([want])


class TestSoABatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), blocking)
    @one_probe
    def test_report_dominated_batch_matches_pointer(self, case, size):
        dim, contents, probes, _, _ = case
        dense = dense_of(dim, contents)
        pointer = pointer_of(dim, contents)
        with blocked(size):
            for first_only in (True, False):
                got = dense.report_dominated_batch(
                    probes, first_only=first_only
                )
                assert kappas_of(got) == expected_report(
                    pointer, probes, first_only
                )
        # Non-destructive: the frozen index still holds everything.
        assert len(dense) == len(pointer) == len(contents)
        dense.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(max_chunk=40), blocking)
    @one_probe
    def test_report_over_survivors_matches_full_pass(self, case, size):
        dim, contents, probes, _, _ = case
        dense = dense_of(dim, contents)
        pointer = pointer_of(dim, contents)
        survivors = intra_batch_survivors(probes)
        with blocked(size):
            full = kappas_of(dense.report_dominated_batch(probes))
            got = kappas_of(
                dense.report_dominated_batch(probes, survivors=survivors)
            )
            matrix = kappas_of(dense.report_dominated_batch(
                np.asarray(probes, dtype=float), survivors=survivors
            ))
        assert got == full == matrix
        assert got == expected_report(pointer, probes, first_only=True)

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), blocking)
    @one_probe
    def test_max_kappa_dominator_batch_matches_pointer(self, case, size):
        dim, contents, probes, _, _ = case
        dense = dense_of(dim, contents)
        pointer = pointer_of(dim, contents)
        with blocked(size):
            got = parents_of(dense.max_kappa_dominator_batch(probes))
        assert got == expected_parents(pointer, probes)

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), blocking)
    @one_probe
    def test_bulk_mutations_keep_trees_in_agreement(self, case, size):
        dim, contents, probes, deletes, inserts = case
        dense = DenseIndex(dim)
        dense.insert_many(
            [p for p, _ in contents],
            [k for _, k in contents],
            [("payload", k) for _, k in contents],
        )
        pointer = pointer_of(dim, contents)
        mutate(dense, pointer, deletes, inserts, len(contents) + 1)
        dense.check_invariants()
        pointer.check_invariants()
        assert contents_of(dense) == contents_of(pointer)
        with blocked(size):
            for first_only in (True, False):
                got = dense.report_dominated_batch(
                    probes, first_only=first_only
                )
                assert kappas_of(got) == expected_report(
                    pointer, probes, first_only
                )
            assert parents_of(dense.max_kappa_dominator_batch(probes)) == (
                expected_parents(pointer, probes)
            )

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), blocking, st.randoms(use_true_random=False))
    def test_compaction_between_probes_keeps_agreement(
        self, case, size, rng
    ):
        dim, contents, probes, _, inserts = case
        dense = dense_of(dim, contents)
        pointer = pointer_of(dim, contents)
        half = len(probes) // 2
        with blocked(size):
            got = dense.report_dominated_batch(probes[:half])
            assert kappas_of(got) == expected_report(
                pointer, probes[:half], True
            )
            # More dead rows than live ones: the delete compacts.
            deletes = rng.sample(
                [k for _, k in contents], len(contents) // 2 + 1
            ) if contents else []
            mutate(dense, pointer, deletes, inserts, len(contents) + 1)
            assert len(dense._rows) == len(dense)
            dense.check_invariants()
            assert contents_of(dense) == contents_of(pointer)
            for first_only in (True, False):
                got = dense.report_dominated_batch(
                    probes[half:], first_only=first_only
                )
                assert kappas_of(got) == expected_report(
                    pointer, probes[half:], first_only
                )
            assert parents_of(dense.max_kappa_dominator_batch(probes)) == (
                expected_parents(pointer, probes)
            )
            for q in probes:
                got_one = dense.max_kappa_dominator(q)
                assert parents_of([got_one]) == parents_of(
                    [pointer.max_kappa_dominator(q)]
                )


class TestScanIndexOracle:
    """The linear-scan ablation index runs the same chunk pipeline as
    the dense index; its plain-loop batch methods must match the oracle
    too (``first_only`` attribution only: the n-of-N engine is their one
    user)."""

    @staticmethod
    def scan_of(dim, contents):
        index = _ScanIndex(dim)
        index.insert_many(
            [p for p, _ in contents],
            [k for _, k in contents],
            [("payload", k) for _, k in contents],
        )
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
    @given(frozen_cases(max_chunk=40))
    def test_report_over_survivors_matches_full_pass(self, case):
        dim, contents, probes, _, _ = case
        scan = self.scan_of(dim, contents)
        pointer = pointer_of(dim, contents)
        survivors = intra_batch_survivors(probes)
        got = kappas_of(scan.report_dominated_batch(probes, survivors=survivors))
        assert got == kappas_of(scan.report_dominated_batch(probes))
        assert got == expected_report(pointer, probes, first_only=True)

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
