"""Continuous-manager snapshots written while the manager still had a
``query_index`` knob restore and evolve correctly.

The fixtures in ``tests/fixtures/snapshots/continuous_*.json`` were
written by that manager, with ``query_index`` set to ``"on"`` and to
``"off"``, duplicate windows, a gap in the query ids left by an
unregister, tied points and a stream shorter than the window.
``continuous_expected.json`` holds each handle's id, ``n``, ``changes``
and ``result_kappas()`` as that manager reported them after restore.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import ContinuousQueryManager
from repro.core.persistence import restore, snapshot
from tests.continuous_oracle import Algorithm2Oracle

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "snapshots"
EXPECTED = json.loads((FIXTURES / "continuous_expected.json").read_text())
NAMES = sorted(EXPECTED)


def load(name):
    return json.loads((FIXTURES / name).read_text())


def restored(name):
    manager = restore(load(name))
    assert isinstance(manager, ContinuousQueryManager)
    return manager


def more_points(name, dim, count=50):
    rng = random.Random(name)
    return [tuple(rng.randrange(4) / 3 for _ in range(dim))
            for _ in range(count)]


def test_fixtures_cover_both_retired_modes():
    modes = {load(name)["query_index"] for name in NAMES}
    assert modes == {"on", "off"}


@pytest.mark.parametrize("name", NAMES)
def test_restores_with_the_same_handles(name):
    manager = restored(name)
    got = [
        {"id": h.query_id, "n": h.n, "changes": h.changes,
         "result_kappas": h.result_kappas()}
        for h in sorted(manager, key=lambda h: h.query_id)
    ]
    assert got == EXPECTED[name]
    ids = [h["id"] for h in EXPECTED[name]]
    assert ids != list(range(1, len(ids) + 1))  # an unregister left a gap
    assert len({h["n"] for h in EXPECTED[name]}) < len(ids)  # shared n
    assert manager.register(1).query_id == load(name)["next_id"]
    manager.check_invariants()


@pytest.mark.parametrize("name", NAMES)
def test_new_snapshot_omits_the_retired_key(name):
    snap = snapshot(restored(name))
    assert "query_index" not in snap
    assert restore(snap).engine.seen_so_far == load(name)["engine"][
        "seen_so_far"
    ]


@pytest.mark.parametrize("batch", [None, 1, 7, 50])
@pytest.mark.parametrize("name", NAMES)
def test_evolves_like_algorithm_2(name, batch):
    manager = restored(name)
    engine = manager.engine
    oracle = Algorithm2Oracle(engine)
    pairs = [(h, oracle.register(h.n, h.changes)) for h in manager]
    points = more_points(name, engine.dim)
    step = batch or 1
    for start in range(0, len(points), step):
        if batch is None:
            oracle.process(manager.append(points[start]))
        else:
            oracle.process_batch(
                manager.append_many(points[start:start + step])
            )
        for handle, query in pairs:
            assert handle.result_kappas() == query.result_kappas()
            assert handle.changes == query.changes
            assert handle.result_kappas() == [
                e.kappa for e in engine.query(handle.n)
            ]
    manager.check_invariants()
