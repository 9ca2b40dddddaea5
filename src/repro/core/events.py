"""Arrival outcome records.

Every call to :meth:`repro.core.nofn.NofNSkyline.append` performs the
maintenance of Algorithm 1 and reports *what changed* as an
:class:`ArrivalOutcome`.  The continuous-query manager (section 3.4)
consumes these outcomes instead of re-deriving the changes — that is
exactly the "linking an element to the continuous queries which are
using it" coupling the paper describes in section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

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
        newcomer weakly dominates them (youngest first is *not*
        guaranteed; order follows the R-tree traversal).
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


@dataclass(frozen=True)
class BatchOutcome:
    """Everything one ``append_many`` call did, element by element.

    The batched ingestion path performs identical maintenance to
    element-by-element :meth:`~repro.core.nofn.NofNSkyline.append`
    (property-tested), so ``outcomes`` holds exactly the
    :class:`ArrivalOutcome` sequence those individual calls would have
    returned — feed them, in order, to
    :meth:`~repro.core.continuous.ContinuousQueryManager.process` (or
    hand the whole object to ``process_batch``) and every continuous
    query reaches the result and ``changes`` it would have reached per
    element.

    Attributes
    ----------
    outcomes:
        One :class:`ArrivalOutcome` per batch member, in arrival order.
    prefilter_dropped:
        Batch members the vectorised intra-batch prefilter proved
        dominated by a younger same-batch member; their outcomes are in
        ``outcomes`` like everyone else's, but they never touched the
        dominance index or its interval columns — the batch path's
        saving.
    """

    outcomes: Tuple[ArrivalOutcome, ...]
    prefilter_dropped: int = 0

    @property
    def batch_size(self) -> int:
        """Number of elements ingested by this batch."""
        return len(self.outcomes)

    @property
    def seen_so_far(self) -> int:
        """``M`` after the batch (0 for an empty batch on a fresh
        engine)."""
        if not self.outcomes:
            return 0
        return self.outcomes[-1].seen_so_far

    @property
    def expired_total(self) -> int:
        """Window expiries across the whole batch."""
        return sum(len(o.expired) for o in self.outcomes)

    @property
    def dominated_total(self) -> int:
        """Dominance ejections across the whole batch."""
        return sum(len(o.dominated_removed) for o in self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[ArrivalOutcome]:
        return iter(self.outcomes)
