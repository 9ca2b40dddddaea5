"""The paper's running examples, reproduced exactly.

Two hand-constructed 2-d streams realise the dominance patterns of the
paper's figures:

* ``FIGURE2_STREAM`` — section 2.3's stream (Figure 2): skylines
  ``S_6 = {a, c}`` and ``S_4 = {c, g}``, becoming ``{c, h}`` and
  ``{e, h}`` once ``h`` arrives.
* ``FIGURE5_STREAM`` — Example 2/3's stream (Figure 5): after all of
  ``a..h`` arrive with ``N = 7``, the non-redundant set is
  ``{c, e, f, g, h}`` and the dominance graph encodes to the intervals
  ``(0,3], (0,4], (3,7], (4,5], (4,6]``; Example 4 then runs the
  continuous query of Algorithm 2 over the same stream with ``N = 5``,
  ``n = 4``.
"""

from __future__ import annotations

import pytest

from repro import ContinuousQueryManager, NofNSkyline

# Arrival order a, b, c, e, f, g (, h); kappas 1..7.
FIGURE2_STREAM = {
    "a": (1.0, 9.0),
    "b": (6.0, 3.0),
    "c": (5.0, 2.0),
    "e": (6.0, 4.0),
    "f": (3.0, 11.0),
    "g": (2.0, 10.0),
    "h": (2.0, 8.0),
}

FIGURE5_STREAM = {
    "a": (6.0, 6.0),
    "b": (5.0, 5.0),
    "c": (2.0, 2.0),
    "e": (1.0, 4.0),
    "f": (3.0, 4.5),
    "g": (2.0, 5.0),
    "h": (4.0, 3.0),
}

NAMES = ["a", "b", "c", "e", "f", "g", "h"]
KAPPA = {name: i + 1 for i, name in enumerate(NAMES)}


def names_of(elements):
    by_kappa = {v: k for k, v in KAPPA.items()}
    return [by_kappa[e.kappa] for e in elements]


class TestFigure2Walkthrough:
    """Section 2.3: S_n is not a subset of S_N, and both evolve."""

    def test_skylines_before_h(self):
        engine = NofNSkyline(dim=2, capacity=6)
        for name in NAMES[:6]:
            engine.append(FIGURE2_STREAM[name])
        assert names_of(engine.query(6)) == ["a", "c"]
        assert names_of(engine.query(4)) == ["c", "g"]

    def test_skylines_after_h(self):
        engine = NofNSkyline(dim=2, capacity=6)
        for name in NAMES:
            engine.append(FIGURE2_STREAM[name])
        assert names_of(engine.query(6)) == ["c", "h"]
        assert names_of(engine.query(4)) == ["e", "h"]

    def test_s_n_is_not_subset_of_s_big_n(self):
        """The paper's key observation motivating n-of-N machinery."""
        engine = NofNSkyline(dim=2, capacity=6)
        for name in NAMES[:6]:
            engine.append(FIGURE2_STREAM[name])
        s6 = set(names_of(engine.query(6)))
        s4 = set(names_of(engine.query(4)))
        assert not s4 <= s6  # g is in S_4 but not in S_6


class TestFigure5DominanceGraph:
    """Examples 2 and 3: R_N, the critical edges, and the encoding."""

    @pytest.fixture
    def engine(self):
        engine = NofNSkyline(dim=2, capacity=7)
        for name in NAMES:
            engine.append(FIGURE5_STREAM[name])
        return engine

    def test_redundant_elements_pruned(self, engine):
        # a and b are dominated by the younger c: gone from R_N.
        assert names_of(engine.non_redundant()) == ["c", "e", "f", "g", "h"]
        assert engine.rn_size == 5

    def test_critical_dominance_edges(self, engine):
        # Figure 5(b): c and e are roots; e -> f, e -> g, c -> h.
        assert engine.critical_parent(KAPPA["c"]) is None
        assert engine.critical_parent(KAPPA["e"]) is None
        assert engine.critical_parent(KAPPA["f"]).kappa == KAPPA["e"]
        assert engine.critical_parent(KAPPA["g"]).kappa == KAPPA["e"]
        assert engine.critical_parent(KAPPA["h"]).kappa == KAPPA["c"]

    def test_children_links(self, engine):
        edges = engine.dominance_graph_edges()

        def children(name):
            return [c for p, c in edges if p == KAPPA[name]]

        assert children("e") == [KAPPA["f"], KAPPA["g"]]
        assert children("c") == [KAPPA["h"]]
        assert children("h") == []

    def test_interval_encoding(self, engine):
        """Example 3's interval list: (0,3], (0,4], (3,7], (4,5], (4,6]."""
        edges = engine.dominance_graph_edges()
        assert edges == [
            (0, 3), (0, 4), (3, 7), (4, 5), (4, 6),
        ]

    def test_example3_query(self, engine):
        # n = 6 -> stab point M - n + 1 = 2 -> skyline {c, e}.
        assert names_of(engine.query(6)) == ["c", "e"]

    def test_full_window_skyline(self, engine):
        # n = 7 includes a's and b's slots but both are redundant;
        # roots c and e are the skyline.
        assert names_of(engine.query(7)) == ["c", "e"]


class TestExample4Continuous:
    """Algorithm 2's walkthrough: N = 5, n = 4 over the Figure 5 stream."""

    def test_trigger_based_evolution(self):
        engine = NofNSkyline(dim=2, capacity=5)
        manager = ContinuousQueryManager(engine)
        handle = manager.register(4)

        for name in NAMES[:5]:  # a, b, c, e, f
            manager.append(FIGURE5_STREAM[name])
        assert names_of(handle.result()) == ["c", "e"]

        manager.append(FIGURE5_STREAM["g"])
        assert names_of(handle.result()) == ["c", "e"]  # unchanged

        manager.append(FIGURE5_STREAM["h"])
        # kappa(c) = 3 < 7 - 4 + 1: c expires from the n-window and h
        # joins -> {e, h}, exactly as the paper narrates.
        assert names_of(handle.result()) == ["e", "h"]

    def test_oldest_rn_element_need_not_expire(self):
        """Section 3.3's remark: the oldest element of R_N (c here, for
        N = 6) is *not* expired when the next element arrives."""
        engine = NofNSkyline(dim=2, capacity=6)
        for name in NAMES:  # 7 arrivals, window of 6
            engine.append(FIGURE5_STREAM[name])
        # a (kappa 1) left the window; c (kappa 3) is still in R_N.
        assert KAPPA["c"] in [e.kappa for e in engine.non_redundant()]
