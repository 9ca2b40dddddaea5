"""Snapshot bytes pinned from seeded streams.

Each ``tests/fixtures/snapshots/pinned_*.json`` file holds a stream, the
engine it was fed to, how it was split into calls, and the ``dumps()``
text that engine wrote.  The files were written before expiry stopped
re-rooting the n-of-N engines: a parent that has left ``R_N`` now stays
on its children as their birth parent, and snapshots report it as 0,
as they reported a re-rooted parent.  So:

* the same feed must write the same bytes;
* a restored fixture and a freshly fed engine, fed the same further
  batches, must answer every query alike.

The streams cover the cases re-rooting used to touch: a count window
where an expired parent's child stays in ``R_N``; a time window where
one arrival after a quiet spell expires several elements; a k-skyband
with ``k = 2``; and a continuous-query manager over the first engine.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

from repro import (
    ContinuousQueryManager,
    KSkybandEngine,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.core.persistence import dumps, loads

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "snapshots"
NAMES = sorted(path.name for path in FIXTURES.glob("pinned_*.json"))


def load(name):
    return json.loads((FIXTURES / name).read_text())


def build(doc):
    """A fresh engine (or manager) with the fixture's parameters; a
    manager registers its windows."""
    spec = doc["engine"]
    kind = doc["kind"]
    if kind == "timewindow":
        return TimeWindowSkyline(spec["dim"], spec["horizon"])
    if kind == "skyband":
        return KSkybandEngine(spec["dim"], spec["capacity"], spec["k"])
    engine = NofNSkyline(spec["dim"], spec["capacity"])
    if kind == "nofn":
        return engine
    manager = ContinuousQueryManager(engine)
    for n in doc["register"]:
        manager.register(n)
    return manager


def feed(target, doc, points, stamps, batches, log=None):
    """Feed ``points`` in ``batches``: a batch of one through
    ``append``, a larger one through ``append_many``.  Outcomes of the
    n-of-N engines are appended to ``log``."""
    time_window = isinstance(target, TimeWindowSkyline)
    start = 0
    for number, size in enumerate(batches):
        if number == doc.get("unregister_after"):
            target.unregister(
                next(h for h in target if h.query_id == doc["unregister_id"])
            )
        chunk = points[start:start + size]
        if size == 1:
            args = (chunk[0], stamps[start]) if time_window else (chunk[0],)
            outcomes = [target.append(*args)]
        else:
            args = (chunk, stamps[start:start + size]) if time_window else (chunk,)
            outcomes = list(target.append_many(*args))
        if log is not None:
            log.extend(outcomes)
        start += size
    assert start == len(points)


def fed(doc, log=None):
    """The fixture's engine fed its stream, with the batch clock held
    at zero so that the recorded batch seconds, and the bytes, repeat."""
    target = build(doc)
    with mock.patch("repro.core.engine.perf_counter", lambda: 0.0):
        feed(
            target, doc, doc["stream"], doc.get("timestamps"), doc["batches"], log
        )
    return target


def answers(target):
    """Every answer the engine gives: ``query(n)`` for each ``n`` (and
    each handle's result and count for a manager); ``query_last`` on
    and between the stamps' quarter-unit grid for a time window."""
    if isinstance(target, TimeWindowSkyline):
        steps = int(target.horizon * 8)
        return [
            [e.kappa for e in target.query_last(step / 8)]
            for step in range(1, steps + 1)
        ]
    if isinstance(target, ContinuousQueryManager):
        handles = [
            (h.query_id, h.n, h.changes, h.result_kappas())
            for h in sorted(target, key=lambda h: h.query_id)
        ]
        return handles, answers(target.engine)
    return [
        [e.kappa for e in target.query(n)]
        for n in range(1, target.capacity + 1)
    ]


@pytest.mark.parametrize("name", NAMES)
def test_same_feed_writes_the_pinned_bytes(name):
    doc = load(name)
    assert dumps(fed(doc)) == doc["dumps"]


@pytest.mark.parametrize("name", NAMES)
def test_restored_fixture_answers_like_a_fed_engine(name):
    doc = load(name)
    restored, fresh = loads(doc["dumps"]), fed(doc)
    assert answers(restored) == answers(fresh)
    start = 0
    for size in doc["more_batches"]:
        for target in (restored, fresh):
            stamps = doc.get("more_timestamps")
            feed(
                target,
                {},
                doc["more"][start:start + size],
                None if stamps is None else stamps[start:start + size],
                [size],
            )
        start += size
        assert answers(restored) == answers(fresh), f"after {start} more"
    restored.check_invariants()
    fresh.check_invariants()


def test_fixtures_cover_every_engine_kind():
    assert sorted(load(name)["kind"] for name in NAMES) == [
        "continuous", "nofn", "skyband", "timewindow",
    ]


@pytest.mark.parametrize("name", NAMES)
def test_stream_exercises_its_case(name):
    """The count windows keep a child whose birth parent expired; the
    time window expires several elements in one arrival."""
    doc = load(name)
    if doc["kind"] == "skyband":
        assert fed(doc).stats.expiries > 0
        return
    log = []
    target = fed(doc, log)
    engine = target.engine if doc["kind"] == "continuous" else target
    if doc["kind"] == "timewindow":
        assert max(len(outcome.expired) for outcome in log) >= 3
    birth = {outcome.element.kappa: outcome.parent_kappa for outcome in log}
    live = {e.kappa for e in engine.non_redundant()}
    orphans = [k for k in live if birth[k] and birth[k] not in live]
    assert orphans, "no retained element outlived its birth parent"
