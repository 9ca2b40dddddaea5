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

    def test_interval_high_tamper_is_slot_mirror(self):
        # The handle's interval no longer matches its slot (the slot
        # arrays are intact; the next test tampers with those instead).
        engine = fed_nofn()
        record = next(iter(engine._records.values()))
        record.handle.interval.high += 7.0
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "slot-mirror"

    def test_interval_slot_tamper_is_slot_mirror(self):
        engine = fed_nofn()
        record = next(iter(engine._records.values()))
        engine._intervals._lows[record.handle._slot] -= 0.5
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "slot-mirror"

    def test_forged_parent_is_forest(self):
        engine = fed_nofn()
        record = next(iter(engine._records.values()))
        record.parent_kappa = 10_000
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "forest"

    def test_expired_parent_low_in_window_is_interval_encoding(self):
        # A child keeps its expired birth parent's label as its interval
        # low, below every admissible stab; one at or above the window
        # start would hide the child from the full-window query.
        engine = NofNSkyline(2, 3)
        for point in [(0.1, 0.1), (0.9, 0.05), (0.5, 0.5), (0.05, 0.9)]:
            engine.append(point)
        record = engine._records[3]
        assert record.parent_kappa == 1 and 1 not in engine._records
        engine.check_invariants()
        record.handle = engine._intervals.replace(record.handle, 2.5, 3.0)
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "interval-encoding"

    def test_cursor_past_retained_element_is_counts(self):
        engine = fed_nofn()
        engine._cursor = next(iter(engine._records)) + 1
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "counts"

    def test_rtree_augmentation_tamper(self):
        # The pointer tree is the reference the engines' dense index is
        # checked against; its own augmentation check stays pinned here.
        tree = RTree(2)
        for kappa, point in enumerate(points_stream(40, seed=10), start=1):
            tree.insert(point, kappa)
        tree._root.max_kappa = -5
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-augmentation"

    def test_dense_index_order_tamper(self):
        # The kappa order is what the dense index's newest-first
        # dominator sweep relies on, as the pointer tree relies on its
        # max-kappa augmentation.
        engine = fed_nofn()
        tree = engine._rtree
        tree._kappas[0] = tree._kappas[len(tree._rows) - 1] + 1
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "dense-order"

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


def _slot(engine, kappa):
    return (kappa - 1) % engine.capacity


def _forge_a(engine, value_of):
    """Overwrite the ``a`` column of the first window element with an
    in-window critical ancestor."""
    kappa = next(
        e.kappa for e in engine.window_elements() if engine.ancestors(e.kappa)[0]
    )
    engine._a[_slot(engine, kappa)] = value_of(kappa)


def _forge_b(engine, live, value_of):
    """Overwrite the ``b`` column of the oldest window element that is in
    ``R_N`` (``live``) or superseded (not ``live``), where neither the
    element nor its backward ancestor is the newest arrival."""
    kappa = next(
        e.kappa
        for e in engine.window_elements()
        if (engine.ancestors(e.kappa)[1] is None) == live
        and engine.ancestors(e.kappa)[1] != engine.seen_so_far
        and e.kappa < engine.seen_so_far
    )
    engine._b[_slot(engine, kappa)] = value_of(kappa)


def _empty_slot(engine):
    engine._ring[_slot(engine, engine.seen_so_far - 3)] = None


def _shift_index_column(engine):
    """The dense index's matrix no longer mirrors its entry objects."""
    index = engine._rtree
    index._points[0, next(index.entries()).row] += 0.5


def _drop_last_hit(engine):
    """A defect in the query filter itself: its last hit goes missing."""
    engine._slice_skyline = lambda stab, upper: N1N2Skyline._slice_skyline(
        engine, stab, upper
    )[:-1]


#: (seeded corruption, tamper, invariant ``verify_n1n2`` must name)
N1N2_CORRUPTIONS = [
    ("ring-slot", _empty_slot, "counts"),
    ("live-b-finite", lambda e: _forge_b(e, True, lambda k: k + 1), "counts"),
    ("index-mirror", _shift_index_column, "dense-mirror"),
    ("a-not-older", lambda e: _forge_a(e, lambda k: k), "interval-encoding"),
    ("b-not-younger", lambda e: _forge_b(e, False, lambda k: k),
     "interval-encoding"),
    ("a-forged", lambda e: _forge_a(e, lambda k: 0), "cbc-ancestor"),
    ("b-forged", lambda e: _forge_b(
        e, False, lambda k: e.ancestors(k)[1] + 1), "cbc-ancestor"),
    ("filter-defect", _drop_last_hit, "stabbing-bruteforce"),
]


class TestN1N2Corruption:
    def fed(self, sanitize="off"):
        engine = N1N2Skyline(2, 15, sanitize=sanitize)
        for point in points_stream(60, seed=13):
            engine.append(point)
        return engine

    def test_ancestor_tamper_is_cbc(self):
        # Forge a recorded ancestor to 0 — still a valid encoding, so
        # the *semantic* brute-force check (Equation 1), not the
        # encoding check, is what must catch it.
        engine = self.fed()
        _forge_a(engine, lambda kappa: 0)
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "cbc-ancestor"

    def test_b_tamper(self):
        # A superseded element's backward ancestor moved one arrival
        # later: still a younger in-window kappa, so only Equation 2
        # can tell.
        engine = self.fed()
        _forge_b(engine, False, lambda kappa: engine.ancestors(kappa)[1] + 1)
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "cbc-ancestor"

    @pytest.mark.parametrize(
        "tamper, invariant",
        [(tamper, invariant) for _, tamper, invariant in N1N2_CORRUPTIONS],
        ids=[name for name, _, _ in N1N2_CORRUPTIONS],
    )
    def test_full_sanitizer_names_each_seeded_corruption(self, tamper, invariant):
        engine = self.fed(sanitize="full")
        tamper(engine)
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.sanitizer.verify(engine)
        assert invariant_of(excinfo) == invariant


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

    def test_rows_disagree_with_rn(self):
        manager, handle = self.fed()
        manager._kappa = manager._kappa[1:]
        manager._parent = manager._parent[1:]
        manager._elements = manager._elements[1:]
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.check_invariants()
        assert invariant_of(excinfo) == "continuous-rows"

    def test_birth_parent_younger_than_its_row(self):
        manager, handle = self.fed()
        manager._parent[0] = manager._kappa[-1]
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.check_invariants()
        assert invariant_of(excinfo) == "continuous-rows"

    def test_result_out_of_sync(self):
        # Consistent rows, a wrong memoised answer: only the comparison
        # with a fresh stab can notice.
        manager, handle = self.fed()
        manager._memo[handle.n] = handle.result()[1:]
        with pytest.raises(StructureCorruptionError) as excinfo:
            manager.check_invariants()
        assert invariant_of(excinfo) == "result-sync"


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
