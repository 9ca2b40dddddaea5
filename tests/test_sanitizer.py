"""Tests for the invariant-sanitizer subsystem.

Two halves:

* *clean runs* — every engine under ``sanitize="full"`` stays silent
  over random streams (the verifiers agree with healthy structures);
* *mutation runs* — each test seeds one deliberate corruption into a
  healthy engine and asserts that validation raises
  :class:`StructureCorruptionError` naming the **right** invariant, so
  a regression in any single check is caught by name, not just by "some
  error happened".

The mutation tests reach into private state on purpose: that is the
only way to simulate the bugs the sanitizer exists to catch.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    ContinuousQueryManager,
    InvariantSanitizer,
    KSkybandEngine,
    N1N2Skyline,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.exceptions import StructureCorruptionError
from repro.structures.rtree import RTree


def points_stream(count, dim=2, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(dim)) for _ in range(count)]


def invariant_of(excinfo):
    report = excinfo.value.report
    assert report is not None, "corruption error must carry a report"
    return report.invariant


# ----------------------------------------------------------------------
# Mode plumbing
# ----------------------------------------------------------------------


class TestSanitizerModes:
    def test_coerce_off_is_none(self):
        assert InvariantSanitizer.coerce(None) is None
        assert InvariantSanitizer.coerce("off") is None

    def test_coerce_mode_strings(self):
        assert InvariantSanitizer.coerce("full").mode == "full"
        assert InvariantSanitizer.coerce("sampled").mode == "sampled"

    def test_coerce_passthrough_and_rejects(self):
        sanitizer = InvariantSanitizer("full")
        assert InvariantSanitizer.coerce(sanitizer) is sanitizer
        with pytest.raises(ValueError):
            InvariantSanitizer.coerce("loud")
        with pytest.raises(TypeError):
            InvariantSanitizer.coerce(3.14)

    def test_engine_reports_mode(self):
        assert NofNSkyline(2, 8).sanitize_mode == "off"
        assert NofNSkyline(2, 8, sanitize="full").sanitize_mode == "full"
        assert NofNSkyline(2, 8, sanitize="sampled").sanitize_mode == "sampled"

    def test_off_mode_has_no_sanitizer_object(self):
        engine = NofNSkyline(2, 8)
        assert engine.sanitizer is None

    def test_sampled_counts_every_event(self):
        engine = NofNSkyline(2, 8, sanitize="sampled")
        for point in points_stream(10, seed=1):
            engine.append(point)
        assert engine.sanitizer.events_seen == 10

    def test_invalid_sample_every(self):
        with pytest.raises(ValueError):
            InvariantSanitizer("sampled", sample_every=0)


# ----------------------------------------------------------------------
# Clean runs stay silent
# ----------------------------------------------------------------------


class TestCleanRuns:
    def test_nofn_full(self):
        engine = NofNSkyline(2, 30, sanitize="full")
        for point in points_stream(150, seed=2):
            engine.append(point)

    def test_nofn_batched_full(self):
        engine = NofNSkyline(3, 25, sanitize="full")
        pts = points_stream(120, dim=3, seed=3)
        engine.append_many(pts[:70])
        engine.append_many(pts[70:])

    def test_timewindow_full(self):
        engine = TimeWindowSkyline(2, horizon=10.0, sanitize="full")
        for i, point in enumerate(points_stream(100, seed=4)):
            engine.append(point, 0.5 * (i + 1))

    def test_n1n2_full(self):
        engine = N1N2Skyline(2, 25, sanitize="full")
        for point in points_stream(100, seed=5):
            engine.append(point)

    def test_skyband_full(self):
        engine = KSkybandEngine(2, 25, k=3, sanitize="full")
        for point in points_stream(100, seed=6):
            engine.append(point)

    def test_continuous_full(self):
        manager = ContinuousQueryManager(
            NofNSkyline(2, 20), sanitize="full"
        )
        manager.register(10)
        manager.register(20)
        for point in points_stream(80, seed=7):
            manager.append(point)

    def test_duplicates_and_ties(self):
        # Exact duplicates exercise the tie rule in every verifier.
        engine = NofNSkyline(2, 10, sanitize="full")
        for _ in range(3):
            for point in points_stream(8, seed=8):
                engine.append(point)


# ----------------------------------------------------------------------
# Seeded corruption: n-of-N family
# ----------------------------------------------------------------------


def fed_nofn(count=40, capacity=12, seed=10, **kwargs):
    engine = NofNSkyline(2, capacity, **kwargs)
    for point in points_stream(count, seed=seed):
        engine.append(point)
    return engine


class TestNofNCorruption:
    def test_dropped_record_is_counts(self):
        engine = fed_nofn()
        kappa = next(iter(engine._records))
        del engine._records[kappa]
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "counts"

    def test_redundant_pair_detected(self):
        engine = fed_nofn()
        # Turn the oldest root into an exact duplicate of the youngest
        # retained element: it is now weakly dominated by a younger
        # element yet still present — a Theorem 1 violation.
        records = sorted(engine._records)
        oldest = engine._records[records[0]]
        youngest = engine._records[records[-1]]
        oldest.element.values = youngest.element.values
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) in {"non-redundancy", "critical-parent"}

    def test_label_tamper_is_interval_encoding(self):
        engine = fed_nofn()
        record = next(iter(engine._records.values()))
        record.label += 0.25
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "interval-encoding"

    def test_interval_high_tamper_is_tree_augmentation(self):
        engine = fed_nofn()
        record = next(iter(engine._records.values()))
        record.handle.interval.high += 7.0
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "max-high-augmentation"

    def test_forged_parent_is_forest(self):
        engine = fed_nofn()
        record = next(iter(engine._records.values()))
        record.parent_kappa = 10_000
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "forest"

    def test_rtree_augmentation_tamper(self):
        # The pointer tree (the engines' reference structure) raises the
        # same invariant name as the SoA index the engines run.
        tree = RTree(2)
        for kappa, point in enumerate(points_stream(40, seed=10), start=1):
            tree.insert(point, kappa)
        tree._root.max_kappa = -5
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-augmentation"

    def test_rtree_augmentation_tamper_soa(self):
        engine = fed_nofn()
        tree = engine._rtree
        blocks = [b for b in range(len(tree._blk_len)) if tree._blk_len[b]]
        tree._blk_maxk[blocks[0]] = -5
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "rtree-augmentation"

    def test_stabbing_mismatch(self, monkeypatch):
        engine = fed_nofn()
        real_stab = engine._intervals.stab

        def lossy_stab(t):
            return real_stab(t)[:-1]

        monkeypatch.setattr(engine._intervals, "stab", lossy_stab)
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "stabbing-bruteforce"

    def test_full_mode_catches_corruption_on_next_arrival(self):
        engine = NofNSkyline(2, 12, sanitize="full")
        for point in points_stream(30, seed=11):
            engine.append(point)
        record = next(iter(engine._records.values()))
        record.handle.interval.high += 3.0
        with pytest.raises(StructureCorruptionError):
            engine.append((0.5, 0.5))


class TestTimeWindowCorruption:
    def test_label_clock_tamper(self):
        engine = TimeWindowSkyline(2, horizon=50.0)
        for i, point in enumerate(points_stream(40, seed=12)):
            engine.append(point, float(i + 1))
        record = next(iter(engine._records.values()))
        record.label += 9.0
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "interval-encoding"


# ----------------------------------------------------------------------
# Seeded corruption: (n1,n2) and k-skyband
# ----------------------------------------------------------------------


class TestN1N2Corruption:
    def fed(self):
        engine = N1N2Skyline(2, 15)
        for point in points_stream(60, seed=13):
            engine.append(point)
        return engine

    def test_ancestor_tamper_is_cbc(self):
        engine = self.fed()
        # Pick a record with a recorded ancestor and forge it to 0
        # while keeping its interval consistent with the forgery, so
        # the *semantic* brute-force check (Equation 1), not the
        # encoding check, is what must catch it.
        record = next(
            r for r in engine._records.values() if r.a_kappa
        )
        tree = engine._live if record.in_rn else engine._superseded
        kappa = record.element.kappa
        tree.remove(record.handle)
        record.a_kappa = 0
        record.handle = tree.insert(0.0, float(kappa), record)
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) in {"cbc-ancestor", "forest"}

    def test_b_tamper(self):
        engine = self.fed()
        record = next(
            r for r in engine._records.values() if r.in_rn
        )
        record.b_kappa = record.element.kappa + 1
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "cbc-ancestor"


class TestSkybandCorruption:
    def fed(self):
        engine = KSkybandEngine(2, 15, k=3)
        for point in points_stream(60, seed=14):
            engine.append(point)
        return engine

    def test_younger_count_tamper(self):
        engine = self.fed()
        record = next(iter(engine._records.values()))
        record.younger = 99
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "band-count"

    def test_older_doms_tamper(self):
        engine = self.fed()
        record = max(
            engine._records.values(), key=lambda r: r.element.kappa
        )
        record.older_doms = [record.element.kappa + 5]
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) in {"band-count", "interval-encoding"}


# ----------------------------------------------------------------------
# Seeded corruption: continuous-query manager
# ----------------------------------------------------------------------


class TestContinuousCorruption:
    def fed(self):
        manager = ContinuousQueryManager(NofNSkyline(2, 15))
        handle = manager.register(10)
        for point in points_stream(50, seed=15):
            manager.append(point)
        return manager, handle

    def test_heap_member_divergence(self):
        manager, handle = self.fed()
        kappa = handle.result_kappas()[0]
        handle._heap.delete(kappa)
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.check_invariants()
        assert invariant_of(excinfo) == "trigger-heap"

    def test_result_out_of_sync(self):
        manager, handle = self.fed()
        kappa = handle.result_kappas()[0]
        handle._heap.delete(kappa)
        del handle._members[kappa]
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.check_invariants()
        assert invariant_of(excinfo) == "result-sync"

    def test_graph_mirror_tamper(self):
        manager, handle = self.fed()
        kappa = next(iter(manager._graph_children))
        manager._graph_children[kappa].add(10_000)
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.check_invariants()
        assert invariant_of(excinfo) == "graph-mirror"


# ----------------------------------------------------------------------
# Structure-level raises keep their names
# ----------------------------------------------------------------------


class TestStructureReports:
    def test_heap_order_tamper(self):
        from repro.structures.heap import MinIndexedHeap

        heap = MinIndexedHeap()
        for value in (5, 3, 8, 1):
            heap.push(value, value)
        # Clobber the root's priority so a child now beats it.
        priority, tiebreak, key = heap._entries[0]
        heap._entries[0] = (99, tiebreak, key)
        with pytest.raises(StructureCorruptionError) as excinfo:
            heap.check_invariants()
        assert invariant_of(excinfo) == "heap-order"

    def test_labelset_order_tamper(self):
        engine = fed_nofn()
        node = engine._labels._head  # oldest node
        node.kappa += 1e9
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine._labels.check_invariants()
        assert invariant_of(excinfo).startswith("labelset")


# ----------------------------------------------------------------------
# The checks survive python -O
# ----------------------------------------------------------------------


class TestOptimizedMode:
    def test_corruption_detected_under_dash_o(self, tmp_path):
        script = tmp_path / "probe.py"
        script.write_text(
            "import random\n"
            "from repro import NofNSkyline\n"
            "from repro.exceptions import StructureCorruptionError\n"
            "rng = random.Random(0)\n"
            "engine = NofNSkyline(2, 10, sanitize='full')\n"
            "for _ in range(25):\n"
            "    engine.append((rng.random(), rng.random()))\n"
            "record = next(iter(engine._records.values()))\n"
            "record.label += 5.0\n"
            "try:\n"
            "    engine.append((0.5, 0.5))\n"
            "except StructureCorruptionError as exc:\n"
            "    assert exc.report is None  # asserts are erased under -O\n"
            "    print('caught', exc.report.invariant"
            " if exc.report else 'erased')\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src_dir = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-O", str(script)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src_dir)},
        )
        # Exit 0 proves the corruption raised even with asserts erased
        # (the probe's own ``assert`` above IS erased by -O: the report
        # is present, the assert simply never runs).
        assert proc.returncode == 0, proc.stderr
        assert "caught interval-encoding" in proc.stdout


# ----------------------------------------------------------------------
# Persistence keeps the mode
# ----------------------------------------------------------------------


class TestPersistenceSanitize:
    def test_roundtrip_keeps_mode(self):
        from repro.core.persistence import restore, snapshot

        engine = NofNSkyline(2, 12, sanitize="sampled")
        for point in points_stream(30, seed=16):
            engine.append(point)
        clone = restore(snapshot(engine))
        assert clone.sanitize_mode == "sampled"

    def test_restore_override(self):
        from repro.core.persistence import restore, snapshot

        engine = NofNSkyline(2, 12)
        for point in points_stream(30, seed=17):
            engine.append(point)
        clone = restore(snapshot(engine), sanitize="full")
        assert clone.sanitize_mode == "full"
        clone.check_invariants()
