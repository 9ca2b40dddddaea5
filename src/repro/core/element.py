"""Stream elements and their arrival labels.

The paper positions every element in the stream by the integer
``kappa(e)``: ``e`` is the ``kappa(e)``-th arrival (1-based).  A
:class:`StreamElement` bundles the d-dimensional value vector with that
label and an optional opaque payload (the application record — e.g. the
full deal object in the stock-market example of section 1).

Elements compare, hash and print by ``kappa``: within one stream the
label is unique, and the engines use it as the identity throughout
(record keys, interval endpoints, index keys, continuous-query rows).

:func:`checked_element` validates one point for an engine of a given
dimensionality; :func:`batch_elements` validates a whole batch with
bulk NumPy tests and also returns it as the ``(B, d)`` float64 matrix
the batched pipelines search with.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple

import numpy as _np

from repro.exceptions import DimensionMismatchError


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
        # ``len``, not truthiness: a NumPy row has no truth value.
        if len(values) == 0:
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


def checked_element(
    values: Sequence[float], kappa: int, dim: int, payload: Any = None
) -> StreamElement:
    """One point as an element of a ``dim``-dimensional stream: the
    per-point validation every engine's ``append`` runs.

    Raises
    ------
    ValueError
        From the :class:`StreamElement` constructor (no coordinates, a
        non-numeric or NaN coordinate).
    DimensionMismatchError
        If the point does not have ``dim`` coordinates.
    """
    element = StreamElement(values, kappa, payload)
    if len(element.values) != dim:
        raise DimensionMismatchError(dim, len(element.values))
    return element


def batch_elements(
    points: Sequence[Sequence[float]],
    first_kappa: int,
    dim: int,
    payloads: Optional[Sequence[Any]] = None,
) -> Tuple[List[StreamElement], Any]:
    """Validate a batch and build its elements, labelled from
    ``first_kappa`` on, and its ``(B, dim)`` float64 matrix.

    ``points`` may be any sequence of points (tuples, lists, NumPy
    rows) or a ``(B, dim)`` array.  The shape and NaN tests run once
    over the whole matrix; only a batch that fails them is re-run
    through :func:`checked_element` point by point, so that the first
    bad point raises its own error.  Each element's tuple is built with
    ``tuple(map(float, point))``: a tuple of Python floats keeps the
    caller's float objects.  No engine state is touched, so an engine
    that validates first is left as it was by a batch that raises.

    Raises
    ------
    ValueError
        If ``payloads`` and ``points`` differ in length, or as
        :func:`checked_element` does for the first bad point.
    DimensionMismatchError
        As :func:`checked_element` does for the first bad point.
    """
    is_matrix = isinstance(points, _np.ndarray)
    pts = points if is_matrix else list(points)
    count = len(pts)
    if payloads is None:
        payloads = [None] * count
    elif len(payloads) != count:
        raise ValueError(f"got {count} points but {len(payloads)} payloads")
    try:
        matrix = _np.asarray(pts, dtype=_np.float64)
        valid = matrix.shape == (count, dim) and not _np.isnan(matrix).any()
    except Exception:
        # Ragged or non-numeric: whatever NumPy raised, the per-point
        # path below raises the first bad point's own error.
        valid = False
    if not valid:
        elements = [
            checked_element(values, first_kappa + offset, dim, payload)
            for offset, (values, payload) in enumerate(zip(pts, payloads))
        ]
        return elements, values_matrix(elements, dim)
    rows = matrix.tolist() if is_matrix else pts
    new = StreamElement.__new__
    elements = []
    for kappa, (row, payload) in enumerate(zip(rows, payloads), first_kappa):
        element = new(StreamElement)
        element.values = tuple(map(float, row))
        element.kappa = kappa
        element.payload = payload
        elements.append(element)
    return elements, matrix


def values_matrix(elements: Sequence[StreamElement], dim: int) -> Any:
    """The ``(B, dim)`` float64 matrix of validated elements' values."""
    return _np.array([e.values for e in elements], dtype=_np.float64).reshape(
        len(elements), dim
    )
