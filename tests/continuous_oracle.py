"""Algorithm 2 as the paper states it: the tests' reference oracle.

:class:`Algorithm2Oracle` keeps one trigger list per registered query
and its own mirror of the critical dominance forest, and replays every
:class:`~repro.core.events.ArrivalOutcome` arrival by arrival:

* lines 3-5 drop result elements the newcomer dominates;
* lines 6-8 let the newcomer in unless its critical dominator is still
  inside the n-window;
* lines 9-14 fire the trigger (the oldest result kappa) while it is
  outside the window, promoting the expired element's children.

It is the per-handle loop the library ran before continuous queries
were answered in closed form, kept here so the closed form is checked
against the paper's own algorithm rather than against itself.
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.core.nofn import NofNSkyline


class OracleQuery:
    """One registered query: its result members, their kappas in one
    ascending list (the trigger list) and its ``changes`` counter."""

    def __init__(self, n: int, changes: int = 0) -> None:
        self.n = n
        self.changes = changes
        self.members: Dict[int, StreamElement] = {}
        self.kappas: List[int] = []

    def add(self, element: StreamElement) -> None:
        self.changes += 1
        bisect.insort(self.kappas, element.kappa)
        self.members[element.kappa] = element

    def remove(self, kappa: int) -> None:
        self.changes += 1
        del self.kappas[bisect.bisect_left(self.kappas, kappa)]
        del self.members[kappa]

    def result(self) -> List[StreamElement]:
        return [self.members[kappa] for kappa in self.kappas]

    def result_kappas(self) -> List[int]:
        return list(self.kappas)


class Algorithm2Oracle:
    """Trigger-based maintenance of any number of continuous queries.

    Build it over the engine the manager under test wraps, before the
    manager sees its first outcome, and hand it the same outcomes.
    Unregistered queries stay readable and stop changing.
    """

    def __init__(self, engine: NofNSkyline) -> None:
        self.engine = engine
        self.queries: List[OracleQuery] = []
        self.elements: Dict[int, StreamElement] = {}
        self.parent: Dict[int, int] = {}
        self.children: Dict[int, Set[int]] = {}
        for element in engine.non_redundant():
            self.elements[element.kappa] = element
            self.children[element.kappa] = set()
        for parent_kappa, child_kappa in engine.dominance_graph_edges():
            self.parent[child_kappa] = parent_kappa
            if parent_kappa:
                self.children[parent_kappa].add(child_kappa)

    def register(self, n: int, changes: int = 0) -> OracleQuery:
        """Seed a query from one stabbing query on the engine."""
        query = OracleQuery(n, changes)
        for element in self.engine.query(n):
            query.members[element.kappa] = element
            query.kappas.append(element.kappa)
        self.queries.append(query)
        return query

    def unregister(self, query: OracleQuery) -> None:
        self.queries.remove(query)

    def process_batch(self, batch: BatchOutcome) -> None:
        for outcome in batch.outcomes:
            self.process(outcome)

    def process(self, outcome: ArrivalOutcome) -> None:
        removed = outcome.removed_kappas
        # Each expired element's children at expiry, from the mirror
        # (the engine no longer re-roots, nor reports them).
        expired_children = {
            e.kappa: tuple(
                self.elements[c] for c in sorted(self.children.get(e.kappa, ()))
            )
            for e in outcome.expired
        }
        self._advance_graph(outcome)
        for query in self.queries:
            self._process_query(query, outcome, removed, expired_children)

    def _advance_graph(self, outcome: ArrivalOutcome) -> None:
        """Algorithm 1's maintenance on the mirror: expire, eject,
        install."""
        for expired in outcome.expired:
            kappa = expired.kappa
            for child in self.children.get(kappa, ()):
                self.parent[child] = 0
            self.elements.pop(kappa, None)
            self.parent.pop(kappa, None)
            self.children.pop(kappa, None)
        for element in outcome.dominated_removed:
            kappa = element.kappa
            parent_kappa = self.parent.pop(kappa, 0)
            siblings = self.children.get(parent_kappa)
            if siblings is not None:
                siblings.discard(kappa)
            self.elements.pop(kappa, None)
            self.children.pop(kappa, None)
        newcomer = outcome.element
        self.elements[newcomer.kappa] = newcomer
        self.parent[newcomer.kappa] = outcome.parent_kappa
        self.children[newcomer.kappa] = set()
        if outcome.parent_kappa:
            self.children[outcome.parent_kappa].add(newcomer.kappa)

    def _process_query(
        self,
        query: OracleQuery,
        outcome: ArrivalOutcome,
        removed: FrozenSet[int],
        expired_children: Dict[int, Tuple[StreamElement, ...]],
    ) -> None:
        window_start = outcome.seen_so_far - query.n + 1
        # Lines 3-5: drop result elements the newcomer dominates.
        for element in outcome.dominated_removed:
            if element.kappa in query.members:
                query.remove(element.kappa)
        # Lines 6-8: a root always joins (even while the window is not
        # full and ``window_start`` is not positive).
        if outcome.parent_kappa == 0 or outcome.parent_kappa < window_start:
            query.add(outcome.element)
        # Lines 9-14: fire the trigger while the oldest member has left
        # the window, promoting its children (cascading).
        kappas = query.kappas
        while kappas and kappas[0] < window_start:
            top = kappas[0]
            query.remove(top)
            if top in expired_children:
                children = list(expired_children[top])
            else:
                children = [
                    self.elements[c]
                    for c in sorted(self.children.get(top, ()))
                ]
            for child in children:
                if child.kappa in removed or child.kappa in query.members:
                    continue
                query.add(child)
