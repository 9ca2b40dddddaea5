"""Tests for the engines' dominance index over ``R_N``, the dense
kappa-ordered matrix of ``structures/dense_index.py``.

The dense index replaced the struct-of-arrays block R-tree
(``rtree_soa.py``) and is itself a struct-of-arrays layout: one
coordinate matrix beside a kappa vector.  This module keeps the file
name and test ids (``TestSoA*``) of that index's tests for the checks
both indexes answer.

Three concerns:

* *engine wiring* — every engine builds its dominance index as a
  :class:`DenseIndex`, and the n-of-N chunk pipeline on it passes the
  full sanitizer (hypothesis);
* *mechanics and parity* — bad inserts are rejected before any write,
  deletes leave NaN tombstones, the matrix grows and compacts, and the
  index answers every dominance search identically to the pointer tree
  and to brute force over random interleavings of inserts, deletes and
  ejections (a dominance report deleted with ``delete_many``, as the
  engines flush a chunk; the batch searches are checked against the
  same oracle in ``tests/test_rtree_oracle.py``);
* *seeded corruption* — one deliberate tamper per check id the index
  raises, plus an engine-level tamper the full verifier must surface.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KSkybandEngine, N1N2Skyline, NofNSkyline, TimeWindowSkyline
from repro.core.dominance import weakly_dominates
from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    KeyNotFoundError,
    StructureCorruptionError,
)
from repro.structures.dense_index import DenseIndex
from repro.structures.rtree import RTree

from tests.conftest import window_skyline_kappas


def fed_index(count=60, dim=2, seed=3):
    index = DenseIndex(dim)
    rng = random.Random(seed)
    for kappa in range(1, count + 1):
        index.insert(tuple(rng.random() for _ in range(dim)), kappa)
    return index


def state_of(index):
    """Everything a rejected write must leave untouched."""
    used = len(index._rows)
    return (
        len(index),
        used,
        index._points[:, :used].tobytes(),
        index._kappas[:used].tolist(),
    )


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
    def test_engines_build_dense_index(self, build):
        index = build()._rtree
        assert isinstance(index, DenseIndex)
        assert index.dim == 2
        # The R-tree fan-out knob left every constructor with the
        # R-tree.
        with pytest.raises(TypeError):
            build(rtree_max_entries=12)

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
            DenseIndex(0)

    def test_duplicate_kappa_rejected(self):
        index = DenseIndex(2)
        index.insert((0.5, 0.5), 1)
        before = state_of(index)
        with pytest.raises(DuplicateKeyError):
            index.insert((0.2, 0.2), 1)
        with pytest.raises(DuplicateKeyError):
            index.insert_many([(0.2, 0.2)], [1])
        assert state_of(index) == before
        index.check_invariants()

    def test_non_ascending_kappa_rejected(self):
        index = DenseIndex(2)
        index.insert((0.5, 0.5), 5)
        before = state_of(index)
        with pytest.raises(ValueError):
            index.insert((0.2, 0.2), 3)
        # The whole chunk is checked before its first write.
        with pytest.raises(ValueError):
            index.insert_many([(0.2, 0.2), (0.3, 0.3)], [7, 6])
        assert state_of(index) == before
        # A tombstone keeps its kappa, so a deleted kappa cannot return
        # below the newest row either.
        index.insert((0.1, 0.1), 6)
        index.delete_many([6])
        with pytest.raises(ValueError):
            index.insert((0.2, 0.2), 6)
        index.check_invariants()

    def test_nan_coordinate_rejected(self):
        index = fed_index(count=5)
        before = state_of(index)
        with pytest.raises(ValueError):
            index.insert((math.nan, 0.5), 6)
        with pytest.raises(ValueError):
            index.insert_many([(0.1, 0.1), (0.2, math.nan)], [6, 7])
        assert state_of(index) == before
        index.check_invariants()

    def test_wrong_dimension_rejected(self):
        index = fed_index(count=5)
        before = state_of(index)
        with pytest.raises(DimensionMismatchError):
            index.insert((0.1, 0.2, 0.3), 6)
        with pytest.raises(DimensionMismatchError):
            index.insert_many([(0.1, 0.2), (0.3,)], [6, 7])
        with pytest.raises(DimensionMismatchError):
            index.report_dominated_batch([(0.1, 0.2, 0.3)])
        assert state_of(index) == before

    def test_delete_many_is_all_or_nothing(self):
        index = fed_index(count=10)
        before = state_of(index)
        with pytest.raises(KeyNotFoundError):
            index.delete_many([2, 99])
        with pytest.raises(KeyNotFoundError):
            index.delete_many([3, 3])
        assert state_of(index) == before

    def test_insert_delete_roundtrip(self):
        index = fed_index(count=100)
        assert len(index) == 100
        for kappa in range(1, 101):
            assert kappa in index
            index.delete_many([kappa])
        assert len(index) == 0
        index.check_invariants()

    def test_delete_leaves_a_nan_tombstone(self):
        index = fed_index(count=10)
        entry = index._entries[4]
        column = entry.row
        assert index.delete_many([4]) == [entry]
        assert entry.row == -1
        assert index._rows[column] is None
        assert all(math.isnan(v) for v in index._points[:, column])
        assert 4 not in index
        # A tombstone never matches: the origin dominates every row.
        assert 4 not in [e.kappa for e in index.report_dominated((0.0, 0.0))]
        index.check_invariants()

    def test_entry_points_stay_tuples(self):
        # Engine duplicate checks compare ``entry.point != values``
        # against tuples; an ndarray row here would silently break them.
        index = fed_index(count=5)
        index.insert_many([(0.5, 0.25)], [6])
        for entry in index.entries():
            assert type(entry.point) is tuple

    def test_growth_past_initial_columns(self):
        index = fed_index(count=2000)
        assert len(index) == 2000
        assert index._points.shape[1] >= 2000
        assert [e.kappa for e in index.entries()] == list(range(1, 2001))
        index.check_invariants()

    def test_compaction_keeps_answers_rows_and_links(self):
        rng = random.Random(11)
        index = fed_index(count=200, dim=3, seed=11)
        live = {e.kappa: e.point for e in index.entries()}
        probes = [tuple(rng.random() for _ in range(3)) for _ in range(30)]
        victims = rng.sample(sorted(live), 101)
        for kappa in victims[:100]:
            index.delete_many([kappa])
            del live[kappa]
        # 100 dead of 200: not yet more dead than live.
        assert len(index._rows) == 200
        index.delete_many([victims[100]])
        del live[victims[100]]
        # 101 dead of 200: the matrix compacted to the live columns,
        # still in arrival order, every entry naming its new column.
        assert len(index._rows) == len(live) == 99
        assert [e.kappa for e in index.entries()] == sorted(live)
        assert index._kappas[:99].tolist() == sorted(live)
        for row, entry in enumerate(index._rows):
            assert entry.row == row
        index.check_invariants()
        for q in probes:
            got = [e.kappa for e in index.report_dominated(q)]
            assert got == sorted(
                k for k, p in live.items() if weakly_dominates(q, p)
            )
            dominators = [k for k, p in live.items() if weakly_dominates(p, q)]
            best = index.max_kappa_dominator(q)
            assert (best.kappa if best else None) == max(dominators, default=None)


# ----------------------------------------------------------------------
# Parity with the pointer tree and brute force
# ----------------------------------------------------------------------


class TestSoAParity:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_random_interleaving_matches_pointer_tree(self, dim):
        rng = random.Random(100 + dim)
        dense = DenseIndex(dim)
        pointer = RTree(dim)
        live = {}
        kappa = 0
        for _ in range(1200):
            op = rng.random()
            q = tuple(rng.random() for _ in range(dim))
            if op < 0.55 or not live:
                kappa += 1
                dense.insert(q, kappa)
                pointer.insert(q, kappa)
                live[kappa] = q
            elif op < 0.70:
                victim = rng.choice(list(live))
                dense.delete_many([victim])
                pointer.delete(victim)
                del live[victim]
            elif op < 0.80:
                # The pointer tree reports in DFS order (no ordering
                # contract); the dense index reports in kappa order.
                got = [e.kappa for e in dense.report_dominated(q)]
                dense.delete_many(got)
                want = sorted(
                    e.kappa for e in pointer.remove_dominated(q)
                )
                assert got == want
                for k in got:
                    del live[k]
            elif op < 0.90:
                got = [e.kappa for e in dense.report_dominated(q)]
                want = sorted(
                    e.kappa for e in pointer.report_dominated(q)
                )
                brute = sorted(
                    k for k, p in live.items() if weakly_dominates(q, p)
                )
                assert got == want == brute
            else:
                cutoff = rng.choice([None, kappa // 2 + 1])
                got = dense.max_kappa_dominator(q, cutoff)
                want = pointer.max_kappa_dominator(q, cutoff)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.kappa == want.kappa
            dense.check_invariants()
        pointer.check_invariants()


# ----------------------------------------------------------------------
# Seeded corruption: one tamper per check id
# ----------------------------------------------------------------------


class TestSoACorruption:
    def check_raises(self, index, invariant):
        with pytest.raises(StructureCorruptionError) as excinfo:
            index.check_invariants()
        assert invariant_of(excinfo) == invariant

    def test_tombstone_tamper_is_tombstone(self):
        index = fed_index()
        column = index._entries[7].row
        index.delete_many([7])
        index._points[1, column] = 0.5
        self.check_raises(index, "dense-tombstone")

    def test_kappa_order_tamper_is_order(self):
        index = fed_index()
        index._kappas[[2, 3]] = index._kappas[[3, 2]]
        self.check_raises(index, "dense-order")

    def test_point_matrix_tamper_is_mirror(self):
        index = fed_index()
        index._points[0, 5] += 0.125
        self.check_raises(index, "dense-mirror")

    def test_kappa_vector_tamper_is_mirror(self):
        # Still ascending, so only the entry mirror can tell.
        index = fed_index()
        index._kappas[len(index._rows) - 1] += 1000
        self.check_raises(index, "dense-mirror")

    def test_dropped_index_entry_is_count(self):
        index = fed_index()
        del index._entries[next(iter(index._entries))]
        self.check_raises(index, "dense-count")

    def test_row_link_tamper_is_links(self):
        index = fed_index()
        index._entries[9].row += 1
        self.check_raises(index, "dense-links")

    @pytest.mark.parametrize("invariant", [
        "dense-tombstone", "dense-order", "dense-mirror", "dense-count",
        "dense-links",
    ])
    def test_full_sanitizer_names_each_seeded_corruption(self, invariant):
        engine = NofNSkyline(2, 12, sanitize="full")
        rng = random.Random(4)
        for _ in range(40):
            engine.append((rng.random(), rng.random()))
        index = engine._rtree
        dead = index._rows.index(None)  # raises if no tombstone to tamper
        live = next(index.entries())
        if invariant == "dense-tombstone":
            index._points[1, dead] = 0.5
        elif invariant == "dense-order":
            index._kappas[[0, 1]] = index._kappas[[1, 0]]
        elif invariant == "dense-mirror":
            index._points[0, live.row] = 2.0
        elif invariant == "dense-count":
            # Bury a live column but keep its entry: the engine's own
            # sizes still agree, only the index can tell.
            index._rows[live.row] = None
            index._points[:, live.row] = math.nan
        else:
            live.row += 1
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.sanitizer.verify(engine)
        assert invariant_of(excinfo) == invariant

    def test_engine_sanitizer_sees_soa_tampering(self):
        # The full n-of-N verifier must surface index corruption with
        # the index's own invariant id.
        engine = NofNSkyline(2, 12)
        rng = random.Random(4)
        for _ in range(40):
            engine.append((rng.random(), rng.random()))
        column = next(engine._rtree.entries()).row
        engine._rtree._points[1, column] += 99
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "dense-mirror"
