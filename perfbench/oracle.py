"""Brute-force check of skyline answers against the generated stream.

The reference skyline of a stream slice is every point of the slice that
no other point of the slice strictly dominates, found by comparing
points pairwise in NumPy blocks.  It shares no code with the library.
Comparing all pairs of a 50 000-point window is 2.5 billion tests, so
the slice is first reduced to the points no member of the claimed
answer strictly dominates.  The reduction never changes the reference:
every claimed kappa must lie inside the slice, a point strictly
dominated by a slice member is never a skyline member, and whatever a
removed point dominated is also dominated by a skyline member that
stays.  A wrong claim is therefore caught either way: a non-skyline
claim stays dominated by a skyline point that survives the reduction,
and a missing skyline point survives it and shows up in the reference.

``repro.accel.numpy_skyline.pareto_mask`` computes the same set, but on
a 2-core Xeon it took 12.6 s for one 50 000 x 5 anti-correlated window
and 0.9 s for that window's 2 665 skyline points alone, because it
rebuilds its kept-point matrix per skyline member; this check takes
about 0.3 s for the whole window.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

#: Booleans per temporary matrix (dominators x points per NumPy pass),
#: so the check's memory stays small next to the library's.
CELLS = 1 << 20


def dominated_by(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask over ``points``: strictly dominated by some row of ``rows``
    (no larger on every axis, smaller on at least one; min-skyline).

    Rows go in ascending coordinate sum, the likeliest dominators first,
    and each block is compared only against the points still undecided.
    """
    out = np.zeros(len(points), dtype=bool)
    open_ = np.arange(len(points))
    rows = rows[np.argsort(rows.sum(axis=1), kind="stable")]
    lo = 0
    while lo < len(rows) and len(open_):
        step = max(1, CELLS // len(open_))
        block = rows[lo:lo + step]
        lo += step
        rest = points[open_]
        weak = block[:, None, 0] <= rest[None, :, 0]
        strict = block[:, None, 0] < rest[None, :, 0]
        for axis in range(1, points.shape[1]):
            weak &= block[:, None, axis] <= rest[None, :, axis]
            strict |= block[:, None, axis] < rest[None, :, axis]
        hit = (weak & strict).any(axis=0)
        out[open_[hit]] = True
        open_ = open_[~hit]
    return out


def reference_kappas(
    points: np.ndarray, first_kappa: int, claimed: Iterable[int]
) -> List[int]:
    """The skyline kappas of ``points`` (kappas ``first_kappa`` on),
    reduced by the ``claimed`` answer as the module docstring explains."""
    last_kappa = first_kappa + len(points) - 1
    inside = sorted(k for k in set(claimed) if first_kappa <= k <= last_kappa)
    candidates = np.arange(len(points))
    if inside:
        reducers = points[np.asarray(inside) - first_kappa]
        candidates = candidates[~dominated_by(reducers, points)]
    rest = points[candidates]
    skyline = candidates[~dominated_by(rest, rest)]
    return (skyline + first_kappa).tolist()


def answer_matches(
    points: np.ndarray, first_kappa: int, claimed: List[int]
) -> bool:
    """Whether ``claimed`` is exactly the skyline of the slice."""
    return sorted(claimed) == reference_kappas(points, first_kappa, claimed)
