"""Arrival outcome records.

Every call to :meth:`repro.core.nofn.NofNSkyline.append` performs the
maintenance of Algorithm 1 and reports *what changed* as an
:class:`ArrivalOutcome`; :meth:`~repro.core.nofn.NofNSkyline.append_many`
reports a whole batch as one :class:`BatchOutcome` of flat columns.
The continuous-query manager (section 3.4) consumes these outcomes
instead of re-deriving the changes — that is exactly the "linking an
element to the continuous queries which are using it" coupling the
paper describes in section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.element import StreamElement


@dataclass(frozen=True)
class ArrivalOutcome:
    """Everything Algorithm 1 did for one new element.

    Attributes
    ----------
    element:
        The newcomer ``e_new`` (its ``kappa`` equals the stream position
        ``M`` after this arrival).
    seen_so_far:
        ``M`` — total elements seen, including this one.
    dominated_removed:
        ``D_{e_new}``: elements ejected from ``R_N`` because the
        newcomer weakly dominates them, oldest first.
    parent_kappa:
        Label of the newcomer's critical dominator, or ``0`` when the
        newcomer is a root of the dominance graph.
    expired:
        Elements of ``R_N`` that fell out of the window this arrival,
        oldest first (at most one for the count-based n-of-N window;
        possibly several for time-based windows).
    """

    element: StreamElement
    seen_so_far: int
    dominated_removed: Tuple[StreamElement, ...] = ()
    parent_kappa: int = 0
    expired: Tuple[StreamElement, ...] = ()

    @property
    def removed_kappas(self) -> frozenset:
        """Labels of every element that left ``R_N`` this arrival."""
        return frozenset(
            [e.kappa for e in self.dominated_removed]
            + [e.kappa for e in self.expired]
        )


def _grouped(
    items: List[StreamElement], offsets: List[int], count: int
) -> List[Tuple[StreamElement, ...]]:
    """``items`` as one tuple per batch offset ``0 .. count - 1``;
    ``offsets`` (one per item) ascend, so each offset's items are one
    run."""
    groups: List[Tuple[StreamElement, ...]] = [()] * count
    lo = 0
    size = len(offsets)
    for hi in range(1, size + 1):
        if hi == size or offsets[hi] != offsets[lo]:
            groups[offsets[lo]] = tuple(items[lo:hi])
            lo = hi
    return groups


class BatchOutcome:
    """Everything one ``append_many`` call did, as flat columns.

    The batched ingestion path performs identical maintenance to
    element-by-element :meth:`~repro.core.nofn.NofNSkyline.append`
    (property-tested), so :attr:`outcomes` holds exactly the
    :class:`ArrivalOutcome` sequence those individual calls would have
    returned — feed them, in order, to
    :meth:`~repro.core.continuous.ContinuousQueryManager.process` (or
    hand the whole object to ``process_batch``, which reads the
    columns) and every continuous query reaches the result and
    ``changes`` it would have reached per element.

    The engine's chunk core appends to the columns as it runs and
    builds no per-arrival object; :attr:`outcomes` is derived from the
    columns on first read and cached.  The columns are the outcome's
    one representation: read them, never write them.
    ``BatchOutcome(outcomes)`` builds the columns of a given outcome
    sequence.

    Attributes
    ----------
    elements:
        The batch's arrivals, in arrival order (consecutive kappas).
    parents:
        Each arrival's birth parent: the label of its critical
        dominator, ``0`` for a root.
    dominated, dominated_at:
        Every element a batch member ejected from ``R_N`` by dominance,
        and the offset in the batch of the arrival that ejected it;
        grouped by arrival in arrival order, oldest first within one.
    expired, expired_at:
        Every element that fell out of the window during the batch,
        and the offset of the arrival at which it did; oldest first.
    prefilter_dropped:
        Batch members the vectorised intra-batch prefilter proved
        dominated by a younger same-batch member; their outcomes are in
        the columns like everyone else's, but they never touched the
        dominance index or its interval columns — the batch path's
        saving.
    """

    __slots__ = (
        "elements",
        "parents",
        "dominated",
        "dominated_at",
        "expired",
        "expired_at",
        "prefilter_dropped",
        "_outcomes",
    )

    def __init__(
        self, outcomes: Iterable[ArrivalOutcome] = (), prefilter_dropped: int = 0
    ) -> None:
        self.elements: List[StreamElement] = []
        self.parents: List[int] = []
        self.dominated: List[StreamElement] = []
        self.dominated_at: List[int] = []
        self.expired: List[StreamElement] = []
        self.expired_at: List[int] = []
        self.prefilter_dropped = prefilter_dropped
        self._outcomes: Optional[Tuple[ArrivalOutcome, ...]] = None
        for offset, outcome in enumerate(outcomes):
            self.elements.append(outcome.element)
            self.parents.append(outcome.parent_kappa)
            self.dominated.extend(outcome.dominated_removed)
            self.dominated_at.extend([offset] * len(outcome.dominated_removed))
            self.expired.extend(outcome.expired)
            self.expired_at.extend([offset] * len(outcome.expired))

    @property
    def outcomes(self) -> Tuple[ArrivalOutcome, ...]:
        """One :class:`ArrivalOutcome` per batch member, in arrival
        order, built from the columns on first read."""
        if self._outcomes is None:
            count = len(self.elements)
            dominated = _grouped(self.dominated, self.dominated_at, count)
            expired = _grouped(self.expired, self.expired_at, count)
            self._outcomes = tuple(
                ArrivalOutcome(element, element.kappa, killed, parent, gone)
                for element, parent, killed, gone in zip(
                    self.elements, self.parents, dominated, expired
                )
            )
        return self._outcomes

    @property
    def batch_size(self) -> int:
        """Number of elements ingested by this batch."""
        return len(self.elements)

    @property
    def seen_so_far(self) -> int:
        """``M`` after the batch (0 for an empty batch on a fresh
        engine)."""
        return self.elements[-1].kappa if self.elements else 0

    @property
    def expired_total(self) -> int:
        """Window expiries across the whole batch."""
        return len(self.expired)

    @property
    def dominated_total(self) -> int:
        """Dominance ejections across the whole batch."""
        return len(self.dominated)

    def _columns(self) -> tuple:
        return (
            self.elements,
            self.parents,
            self.dominated,
            self.dominated_at,
            self.expired,
            self.expired_at,
            self.prefilter_dropped,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchOutcome):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:
        return (
            f"BatchOutcome(batch_size={self.batch_size}, "
            f"seen_so_far={self.seen_so_far}, "
            f"dominated_total={self.dominated_total}, "
            f"expired_total={self.expired_total}, "
            f"prefilter_dropped={self.prefilter_dropped})"
        )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[ArrivalOutcome]:
        return iter(self.outcomes)
