"""Approximate n-of-N skylines (the paper's stated future work).

Section 6 closes with: "We will also investigate the problem of
approximate skyline computation over data streams."  This module
implements the natural, *provably safe* construction: quantise every
coordinate to a grid of cell size ``epsilon`` and run the exact n-of-N
machinery on the quantised points.

Guarantee (additive epsilon-coverage)
-------------------------------------
For every query ``n`` and every element ``p`` of the most recent ``n``
elements, the reported set contains an element ``q`` (also within the
most recent ``n``) with ::

    q_i  <=  p_i + epsilon        for every dimension i.

*Proof sketch.*  Let ``g(x) = floor(x / epsilon) * epsilon``.  The
engine reports the exact skyline of the quantised window, so some
reported ``q`` has ``g(q) <= g(p)`` coordinate-wise; then
``q_i < g(q_i) + epsilon <= g(p_i) + epsilon <= p_i + epsilon``.
Because quantisation is applied once per element, errors do **not**
accumulate along dominance chains — the pitfall of pruning with
epsilon-relaxed dominance directly.

What is gained: quantisation collapses near-duplicates and manufactures
extra dominance, so the retained set ``|R_N|`` (and hence maintenance
and query cost) shrinks as ``epsilon`` grows —
``benchmarks/bench_approx.py`` quantifies the trade-off.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome
from repro.core.nofn import NofNSkyline
from repro.core.stats import EngineStats

if TYPE_CHECKING:
    from repro.accel.stab_cache import StabCache


class ApproxNofNSkyline:
    """Epsilon-approximate n-of-N skylines over a sliding window.

    A thin wrapper around :class:`NofNSkyline`: elements are quantised
    on ingestion, queries run exactly on the quantised state, and
    results are mapped back to the *original* vectors.

    Parameters
    ----------
    dim, capacity:
        As for :class:`NofNSkyline`.
    epsilon:
        Grid cell size(s) (> 0): a single float applied to every axis,
        or one value per dimension for mixed-unit data (e.g. dollars on
        one axis, hours on another).  The coverage guarantee above is
        additive per axis in that axis's epsilon.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        epsilon: "float | Sequence[float]",
    ) -> None:
        if isinstance(epsilon, (int, float)):
            cells = (float(epsilon),) * dim
        else:
            cells = tuple(float(v) for v in epsilon)
            if len(cells) != dim:
                raise ValueError(
                    f"epsilon needs one value per dimension: got "
                    f"{len(cells)} for dim={dim}"
                )
        if any(cell <= 0 for cell in cells):
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = cells
        self._inner = NofNSkyline(dim, capacity)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> ArrivalOutcome:
        """Ingest one element (quantised internally)."""
        original = tuple(float(v) for v in values)
        quantised = tuple(
            math.floor(v / cell) * cell
            for v, cell in zip(original, self.epsilon)
        )
        return self._inner.append(quantised, payload=(original, payload))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, n: int) -> List[StreamElement]:
        """Approximate skyline of the most recent ``n`` elements.

        Every element of the window is epsilon-dominated by some
        element of the result; results carry the original (unquantised)
        vectors and payloads.
        """
        return [self._unwrap(e) for e in self._inner.query(n)]

    def skyline(self) -> List[StreamElement]:
        """Approximate skyline of the whole window."""
        return self.query(self._inner.capacity)

    @staticmethod
    def _unwrap(element: StreamElement) -> StreamElement:
        original, payload = element.payload
        return StreamElement(original, element.kappa, payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the stream."""
        return self._inner.dim

    @property
    def capacity(self) -> int:
        """The window size ``N``."""
        return self._inner.capacity

    @property
    def seen_so_far(self) -> int:
        """``M`` — number of elements ingested."""
        return self._inner.seen_so_far

    @property
    def rn_size(self) -> int:
        """Retained-set size — the quantity ``epsilon`` shrinks."""
        return self._inner.rn_size

    @property
    def stats(self) -> EngineStats:
        """The wrapped engine's counters."""
        return self._inner.stats

    @property
    def structure_version(self) -> int:
        """Monotonic version of the wrapped engine's interval encoding."""
        return self._inner.structure_version

    @property
    def stab_cache(self) -> "Optional[StabCache[Any]]":
        """The wrapped engine's query cache (``None`` when disabled)."""
        return self._inner.stab_cache

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss/rebuild counters of the wrapped engine's query
        cache (``None`` when caching is disabled)."""
        return self._inner.cache_stats()

    def check_invariants(self) -> None:
        """Delegate structural validation to the exact engine."""
        self._inner.check_invariants()
