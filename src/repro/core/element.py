"""Stream elements and their arrival labels.

The paper positions every element in the stream by the integer
``kappa(e)``: ``e`` is the ``kappa(e)``-th arrival (1-based).  A
:class:`StreamElement` bundles the d-dimensional value vector with that
label and an optional opaque payload (the application record — e.g. the
full deal object in the stock-market example of section 1).

Elements compare, hash and print by ``kappa``: within one stream the
label is unique, and the engines use it as the identity throughout
(label set, interval endpoints, index keys, trigger lists).
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Tuple


class StreamElement:
    """One stream arrival: a point, its position and an optional payload.

    Parameters
    ----------
    values:
        The d-dimensional coordinate vector.  Smaller is better on every
        axis (min-skyline), as in the paper.
    kappa:
        1-based arrival position in the stream.
    payload:
        Optional application data carried along verbatim.
    """

    __slots__ = ("values", "kappa", "payload")

    def __init__(
        self,
        values: Sequence[float],
        kappa: int,
        payload: Any = None,
    ) -> None:
        if kappa < 1:
            raise ValueError(f"kappa is a 1-based position, got {kappa}")
        if not values:
            raise ValueError("an element needs at least one coordinate")
        frozen = tuple(float(v) for v in values)
        for axis, value in enumerate(frozen):
            # NaN compares false against everything, which would poison
            # every dominance test and structure invariant downstream;
            # reject it at the boundary.
            if math.isnan(value):
                raise ValueError(
                    f"coordinate {axis} is NaN; dominance is undefined"
                )
        self.values: Tuple[float, ...] = frozen
        self.kappa = kappa
        self.payload = payload

    @property
    def dim(self) -> int:
        """Dimensionality of the value vector."""
        return len(self.values)

    def age(self, seen_so_far: int) -> int:
        """Recency rank: 1 for the newest element when ``M`` elements
        have been seen (``M - kappa + 1``)."""
        return seen_so_far - self.kappa + 1

    def is_expired(self, seen_so_far: int, window: int) -> bool:
        """Whether this element has left the most recent ``window``
        elements, given ``seen_so_far`` total arrivals."""
        return self.kappa < seen_so_far - window + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamElement):
            return NotImplemented
        return self.kappa == other.kappa and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.kappa, self.values))

    def __repr__(self) -> str:
        return f"StreamElement(kappa={self.kappa}, values={self.values})"
