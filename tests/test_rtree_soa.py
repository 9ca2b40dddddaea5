"""Tests for the struct-of-arrays R-tree (``structures/rtree_soa.py``).

Three concerns:

* *engine wiring* — every engine builds its dominance index as a
  :class:`SoARTree` sized from ``rtree_max_entries``, and the n-of-N
  chunk pipeline on it passes the full sanitizer (hypothesis);
* *parity* — the SoA index answers every dominance search identically
  to the pointer tree and to brute force over random interleavings of
  insert/delete/remove_dominated (the batch searches are checked
  against the same oracle in ``tests/test_rtree_oracle.py``);
* *seeded corruption* — one deliberate tamper per invariant id,
  mirroring ``tests/test_sanitizer.py``: the pooled arrays must be as
  auditable as the pointer nodes, under the same names.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    KSkybandEngine,
    N1N2Skyline,
    NofNSkyline,
    ShardedKSkyband,
    ShardedNofNSkyline,
    TimeWindowSkyline,
)
from repro.core.dominance import weakly_dominates
from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    StructureCorruptionError,
)
from repro.structures.rtree import RTree
from repro.structures.rtree_soa import SoARTree

from tests.conftest import window_skyline_kappas


def fed_tree(count=60, dim=2, seed=3, **kwargs):
    tree = SoARTree(dim, **kwargs)
    rng = random.Random(seed)
    for kappa in range(1, count + 1):
        tree.insert(tuple(rng.random() for _ in range(dim)), kappa)
    return tree


coord = st.integers(0, 7).map(lambda v: v / 7)


def histories(max_dim=3, max_batches=14):
    """Arrival histories as a list of ``append_many`` batches."""
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.lists(
                st.tuples(*[coord] * d).map(tuple), min_size=1, max_size=5
            ),
            min_size=1,
            max_size=max_batches,
        )
    )


def invariant_of(excinfo):
    report = excinfo.value.report
    assert report is not None, "corruption error must carry a report"
    return report.invariant


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------


class TestEngineIndex:
    @pytest.mark.parametrize("build", [
        lambda **kw: NofNSkyline(dim=2, capacity=8, **kw),
        lambda **kw: TimeWindowSkyline(dim=2, horizon=1.0, **kw),
        lambda **kw: KSkybandEngine(dim=2, capacity=8, k=2, **kw),
        lambda **kw: N1N2Skyline(dim=2, capacity=8, **kw),
    ], ids=["nofn", "timewindow", "skyband", "n1n2"])
    def test_engines_build_soa_sized_from_max_entries(self, build):
        default = build()._rtree
        assert isinstance(default, SoARTree)
        assert default.max_entries == 12
        assert default.block_capacity == 48  # max(32, 4 * 12)
        tuned = build(rtree_max_entries=16)._rtree
        assert tuned.max_entries == 16
        assert tuned.block_capacity == 64
        with pytest.raises(ValueError):
            build(rtree_max_entries=3)

    @pytest.mark.parametrize("router", [ShardedNofNSkyline, ShardedKSkyband])
    def test_routers_forward_max_entries_to_shards(self, router):
        kwargs = {"k": 2} if router is ShardedKSkyband else {}
        with router(dim=2, capacity=8, shards=2, rtree_max_entries=16,
                    **kwargs) as sharded:
            for spec in (sharded._shard_spec(i) for i in range(2)):
                assert spec["rtree_max_entries"] == 16

    @settings(max_examples=15, deadline=None)
    @given(histories(max_dim=2, max_batches=10), st.integers(1, 6))
    def test_chunk_pipeline_under_full_sanitize(self, batches, capacity):
        dim = len(batches[0][0])
        engine = NofNSkyline(dim=dim, capacity=capacity, sanitize="full")
        history = []
        for batch in batches:
            engine.append_many(batch)
            history.extend(batch)
            got = [e.kappa for e in engine.query(capacity)]
            assert got == window_skyline_kappas(history, capacity)
            assert got == [e.kappa for e in engine.query_scan(capacity)]


# ----------------------------------------------------------------------
# Construction / basic mechanics
# ----------------------------------------------------------------------


class TestSoAMechanics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SoARTree(0)
        with pytest.raises(ValueError):
            SoARTree(2, max_entries=3)
        with pytest.raises(ValueError):
            SoARTree(2, block_capacity=1)

    def test_duplicate_kappa_rejected(self):
        tree = SoARTree(2)
        tree.insert((0.5, 0.5), 1)
        with pytest.raises(DuplicateKeyError):
            tree.insert((0.2, 0.2), 1)

    def test_wrong_dimension_rejected(self):
        tree = SoARTree(2)
        with pytest.raises(DimensionMismatchError):
            tree.insert((0.1, 0.2, 0.3), 1)

    def test_insert_delete_roundtrip(self):
        tree = fed_tree(count=100)
        assert len(tree) == 100
        for kappa in range(1, 101):
            assert kappa in tree
            tree.delete(kappa)
        assert len(tree) == 0
        tree.check_invariants()

    def test_entry_points_stay_tuples(self):
        # Engine duplicate checks compare ``entry.point != values``
        # against tuples; an ndarray row here would silently break them.
        tree = fed_tree(count=5)
        for entry in tree.entries():
            assert type(entry.point) is tuple

    def test_growth_past_initial_blocks(self):
        tree = fed_tree(count=2000, block_capacity=32)
        assert len(tree) == 2000
        tree.check_invariants()


# ----------------------------------------------------------------------
# Parity with the pointer tree and brute force
# ----------------------------------------------------------------------


class TestSoAParity:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_random_interleaving_matches_pointer_tree(self, dim):
        rng = random.Random(100 + dim)
        soa = SoARTree(dim, block_capacity=32)
        pointer = RTree(dim)
        live = {}
        kappa = 0
        for _ in range(1200):
            op = rng.random()
            q = tuple(rng.random() for _ in range(dim))
            if op < 0.55 or not live:
                kappa += 1
                soa.insert(q, kappa)
                pointer.insert(q, kappa)
                live[kappa] = q
            elif op < 0.70:
                victim = rng.choice(list(live))
                soa.delete(victim)
                pointer.delete(victim)
                del live[victim]
            elif op < 0.80:
                # The pointer tree reports in DFS order (no ordering
                # contract); the SoA index happens to sort by kappa.
                got = [e.kappa for e in soa.remove_dominated(q)]
                want = sorted(
                    e.kappa for e in pointer.remove_dominated(q)
                )
                assert got == want
                for k in got:
                    del live[k]
            elif op < 0.90:
                got = [e.kappa for e in soa.report_dominated(q)]
                want = sorted(
                    e.kappa for e in pointer.report_dominated(q)
                )
                brute = sorted(
                    k for k, p in live.items() if weakly_dominates(q, p)
                )
                assert got == want == brute
            else:
                cutoff = rng.choice([None, kappa // 2 + 1])
                got = soa.max_kappa_dominator(q, cutoff)
                want = pointer.max_kappa_dominator(q, cutoff)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.kappa == want.kappa
            soa.check_invariants()
        pointer.check_invariants()

    def test_top_kappa_dominators_matches_pointer(self):
        rng = random.Random(9)
        soa = fed_tree(count=200, dim=3, seed=9)
        pointer = RTree(3)
        for entry in soa.entries():
            pointer.insert(entry.point, entry.kappa)
        for _ in range(50):
            q = tuple(rng.random() for _ in range(3))
            for k in (1, 3, 10):
                got = [e.kappa for e in soa.top_kappa_dominators(q, k)]
                want = [e.kappa for e in pointer.top_kappa_dominators(q, k)]
                assert got == want


# ----------------------------------------------------------------------
# Seeded corruption: one tamper per invariant id
# ----------------------------------------------------------------------


class TestSoACorruption:
    def _live_block(self, tree):
        return next(
            b for b in range(len(tree._blk_len)) if tree._blk_len[b]
        )

    def test_point_matrix_tamper_is_kernel_cache(self):
        tree = fed_tree()
        b = self._live_block(tree)
        tree._points[b * tree.block_capacity][0] += 0.125
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-kernel-cache"

    def test_kappa_matrix_tamper_is_kernel_cache(self):
        tree = fed_tree()
        b = self._live_block(tree)
        tree._kappas[b * tree.block_capacity] += 1000
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-kernel-cache"

    def test_summary_box_tamper_is_mbr(self):
        tree = fed_tree()
        b = self._live_block(tree)
        # Raising the lower corner breaks tight AND conservative
        # summaries, so the tamper is caught whether or not the block
        # happens to be dirty.
        tree._blk_lower[b] += 0.25
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-mbr"

    def test_max_kappa_tamper_is_augmentation(self):
        tree = fed_tree()
        b = self._live_block(tree)
        tree._blk_maxk[b] = -5
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-augmentation"

    def test_dropped_index_entry_is_count(self):
        tree = fed_tree()
        del tree._entries[next(iter(tree._entries))]
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-count"

    def test_row_link_tamper_is_links(self):
        tree = fed_tree()
        entry = next(iter(tree._entries.values()))
        entry.row += 1 if entry.row % tree.block_capacity == 0 else -1
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-links"

    def test_overfull_block_length_is_fanout(self):
        tree = fed_tree(count=100, block_capacity=32)
        b1, b2 = [
            b for b in range(len(tree._blk_len)) if tree._blk_len[b]
        ][:2]
        # Move the surplus to a later block so the total row count
        # stays honest: the overfull length itself must be what fires,
        # not the count mismatch it would otherwise cause.
        surplus = tree.block_capacity + 1 - int(tree._blk_len[b1])
        tree._blk_len[b1] = tree.block_capacity + 1
        tree._blk_len[b2] -= surplus
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-fanout"

    def test_engine_sanitizer_sees_soa_tampering(self):
        # The full n-of-N verifier must surface SoA corruption exactly
        # like pointer corruption (same invariant id, same exception).
        engine = NofNSkyline(2, 12)
        rng = random.Random(4)
        for _ in range(40):
            engine.append((rng.random(), rng.random()))
        tree = engine._rtree
        tree._kappas[self._live_block(tree) * tree.block_capacity] += 99
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "rtree-kernel-cache"
