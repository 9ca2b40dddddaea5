"""The batch helper against per-point :class:`StreamElement` construction.

Every engine's ``append_many`` validates its batch with
:func:`repro.core.element.batch_elements`: one bulk shape and NaN test
over the batch's ``(B, d)`` matrix, and the per-point constructor only
when that test fails, so that the first bad point raises its own error.
These tests feed the same points through ``append_many`` and through
the per-point constructor and require:

* equal element tuples of Python floats, bit for bit (``-0.0`` stays
  negative, ints and bools become floats) for mixed inputs: floats,
  ints, bools, NumPy scalars, NumPy rows and whole NumPy matrices;
* for a batch holding one bad point (NaN, wrong length, no coordinates,
  non-numeric), the same exception type and message as the per-point
  constructor, and an engine left exactly as it was.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    KSkybandEngine,
    LinearScanNofNSkyline,
    N1N2Skyline,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.core.element import StreamElement, batch_elements, checked_element
from repro.core.persistence import snapshot

ENGINES = ("nofn", "timewindow", "n1n2", "skyband")


def build(kind, dim):
    if kind == "nofn":
        return NofNSkyline(dim, capacity=8)
    if kind == "timewindow":
        return TimeWindowSkyline(dim, horizon=6.0)
    if kind == "n1n2":
        return N1N2Skyline(dim, capacity=8)
    return KSkybandEngine(dim, capacity=8, k=2)


def feed(engine, points):
    """``append_many`` on any engine; returns the new elements."""
    if isinstance(engine, TimeWindowSkyline):
        start = engine.now
        stamps = [start + 1.0 + i for i in range(len(points))]
        return [o.element for o in engine.append_many(points, stamps)]
    if isinstance(engine, NofNSkyline):
        return [o.element for o in engine.append_many(points)]
    return list(engine.append_many(points))


#: Wall-clock counters, the one part of a snapshot two runs differ in.
TIMINGS = ("batch_seconds_total", "batch_seconds_max")


def untimed(node):
    if isinstance(node, dict):
        return {k: untimed(v) for k, v in node.items() if k not in TIMINGS}
    if isinstance(node, list):
        return [untimed(v) for v in node]
    return node


def state(engine):
    """Everything about an engine but wall-clock timings: its snapshot,
    or for the k-skyband engine (no snapshot support) its counters and
    retained records, read without running a query."""
    if isinstance(engine, KSkybandEngine):
        return (
            engine.seen_so_far,
            engine.structure_version,
            untimed(engine.stats.snapshot_raw()),
            [
                (kappa, r.element.values, r.younger, r.older_doms)
                for kappa, r in sorted(engine._records.items())
            ],
        )
    return json.dumps(untimed(snapshot(engine)), sort_keys=True)


def bits(values):
    """A tuple's exact float bits; fails on anything but Python floats."""
    return tuple(float.hex(v) for v in values)


# -- mixed inputs ------------------------------------------------------

plain = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.inf, -math.inf])
scalar = st.one_of(
    plain,
    st.integers(-3, 3),
    st.booleans(),
    plain.map(np.float64),
    plain.map(np.float32),
    st.integers(-3, 3).map(np.int64),
)


@st.composite
def mixed_batches(draw):
    """``(dim, points)``: points as tuples, lists or NumPy rows of
    mixed scalar types; sometimes the whole batch is one matrix."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(0, 12))
    points = []
    for _ in range(count):
        coords = [draw(scalar) for _ in range(dim)]
        shape = draw(st.sampled_from(["tuple", "list", "row"]))
        if shape == "row":
            points.append(np.array([float(v) for v in coords]))
        else:
            points.append(tuple(coords) if shape == "tuple" else coords)
    if count and draw(st.booleans()):
        return dim, np.array([[float(v) for v in p] for p in points])
    return dim, points


class TestMixedInput:
    @settings(max_examples=60, deadline=None)
    @given(mixed_batches(), st.sampled_from(ENGINES))
    def test_elements_equal_per_point_construction(self, case, kind):
        dim, points = case
        expect = [
            bits(StreamElement(p, kappa).values)
            for kappa, p in enumerate(points, 1)
        ]
        got = feed(build(kind, dim), points)
        assert [bits(e.values) for e in got] == expect
        assert [e.kappa for e in got] == list(range(1, len(expect) + 1))

    @settings(max_examples=60, deadline=None)
    @given(mixed_batches(), st.sampled_from(ENGINES))
    def test_engine_state_equals_clean_float_input(self, case, kind):
        dim, points = case
        clean = [StreamElement(p, 1).values for p in points]
        mixed_engine, clean_engine = build(kind, dim), build(kind, dim)
        feed(mixed_engine, points)
        feed(clean_engine, clean)
        assert state(mixed_engine) == state(clean_engine)

    def test_matrix_is_the_caller_points_as_float64(self):
        points = [(1, 0.5), (True, -0.0)]
        elements, matrix = batch_elements(points, 1, 2)
        assert matrix.dtype == np.float64 and matrix.shape == (2, 2)
        assert matrix.tolist() == [list(e.values) for e in elements]

    def test_tuples_share_the_caller_floats(self):
        point = (0.125, 0.375)
        (element,), _ = batch_elements([point], 1, 2)
        assert all(a is b for a, b in zip(element.values, point))


# -- one bad point -----------------------------------------------------

BAD = {
    "nan": lambda dim: (math.nan,) * dim,
    "nan-row": lambda dim: np.array([0.5] * (dim - 1) + [np.nan]),
    "too-long": lambda dim: (0.5,) * (dim + 1),
    "too-short": lambda dim: (0.5,) * (dim - 1),
    "empty": lambda dim: (),
    "text": lambda dim: ("x",) + (0.5,) * (dim - 1),
    "none": lambda dim: (None,) + (0.5,) * (dim - 1),
}


def per_point_error(points, dim):
    """The exception the per-point path raises for ``points``."""
    try:
        for kappa, values in enumerate(points, 1):
            checked_element(values, kappa, dim)
    except Exception as exc:  # noqa: BLE001 - compared below
        return type(exc), str(exc)
    raise AssertionError("the per-point path accepted every point")


class TestOneBadPoint:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ENGINES),
        st.integers(2, 3),
        st.sampled_from(sorted(BAD)),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    def test_same_error_and_engine_unchanged(
        self, kind, dim, bad, before, position
    ):
        engine = build(kind, dim)
        feed(engine, [(0.1 * (i + 1),) * dim for i in range(before)])
        snapshot = state(engine)
        batch = [(0.9 - 0.1 * i, 0.1 * i) + (0.5,) * (dim - 2) for i in range(6)]
        batch.insert(position, BAD[bad](dim))
        want_type, want_text = per_point_error(batch, dim)
        with pytest.raises(Exception) as caught:
            feed(engine, batch)
        assert (type(caught.value), str(caught.value)) == (want_type, want_text)
        assert state(engine) == snapshot

    def test_first_bad_point_wins(self):
        engine = NofNSkyline(2, capacity=4)
        batch = [(0.5, 0.5), (0.5, 0.5, 0.5), (math.nan, 0.5)]
        with pytest.raises(Exception) as caught:
            engine.append_many(batch)
        assert (type(caught.value), str(caught.value)) == per_point_error(batch, 2)
        assert engine.seen_so_far == 0


# -- NumPy points ------------------------------------------------------


def outcome_key(outcome):
    return (
        outcome.element.kappa,
        outcome.element.values,
        outcome.parent_kappa,
        frozenset(e.kappa for e in outcome.dominated_removed),
        frozenset(e.kappa for e in outcome.expired),
    )


class TestNumPyPoints:
    """A ``(B, d)`` array, a list of NumPy rows and a per-element NumPy
    point give the outcomes and snapshots of the same points as tuples
    (before the fix, ``StreamElement`` took a NumPy point's truth value
    and raised for every ``d >= 2``)."""

    POINTS = np.array(
        [[0.4, 0.6, 0.5], [0.3, 0.7, 0.2], [0.3, 0.7, 0.2], [0.9, 0.1, 0.4],
         [0.2, 0.2, 0.9], [0.5, 0.5, 0.5], [0.1, 0.8, 0.3], [0.6, 0.3, 0.1]]
    )

    def tuples(self):
        return [tuple(row) for row in self.POINTS.tolist()]

    @pytest.mark.parametrize("form", ["matrix", "rows"])
    def test_append_many(self, form):
        points = self.POINTS if form == "matrix" else list(self.POINTS)
        twin, engine = NofNSkyline(3, capacity=5), NofNSkyline(3, capacity=5)
        expect = twin.append_many(self.tuples()).outcomes
        got = engine.append_many(points).outcomes
        assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
        assert state(engine) == state(twin)

    def test_append(self):
        twin, engine = NofNSkyline(3, capacity=5), NofNSkyline(3, capacity=5)
        expect = [twin.append(p) for p in self.tuples()]
        got = [engine.append(row) for row in self.POINTS]
        assert [outcome_key(o) for o in got] == [outcome_key(o) for o in expect]
        assert state(engine) == state(twin)

    @pytest.mark.parametrize(
        "build_engine",
        [
            lambda: N1N2Skyline(3, capacity=5),
            lambda: KSkybandEngine(3, capacity=5, k=2),
            lambda: LinearScanNofNSkyline(3, capacity=5),
        ],
    )
    def test_other_engines(self, build_engine):
        for ingest in ("append", "append_many"):
            twin, engine = build_engine(), build_engine()
            if ingest == "append":
                for p, row in zip(self.tuples(), self.POINTS):
                    twin.append(p)
                    engine.append(row)
            else:
                twin.append_many(self.tuples())
                engine.append_many(self.POINTS)
            assert state(engine) == state(twin)

    def test_time_window(self):
        stamps = [1.0 + i for i in range(len(self.POINTS))]
        twin, engine = (TimeWindowSkyline(3, horizon=4.0) for _ in range(2))
        twin.append_many(self.tuples(), stamps)
        engine.append_many(self.POINTS, stamps)
        assert state(engine) == state(twin)
