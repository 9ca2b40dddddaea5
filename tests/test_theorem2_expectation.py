"""Theorem 2 against its exact expectation on independent streams.

On a stream of i.i.d. points with continuous coordinates, the element
of age ``j`` (1 = newest) is in ``R_N`` iff no younger window element
dominates it, i.e. iff it is a maximum among the ``j`` youngest points.
By symmetry that happens with probability ``A(j, d) / j``, where
``A(n, d)`` is the expected number of maxima among ``n`` i.i.d. points
(Bentley et al.): ``A(n, 1) = 1`` and
``A(n, d) = sum_{i <= n} A(i, d - 1) / i``.  Summing over ages gives

* ``E|R_N| = A(N, d + 1)`` once the window is full (Theorem 2's
  mapping: ``R_N`` is a skyline in ``d + 1`` dimensions), and
* ``E|S_n| = A(n, d)`` for the answer to ``query(n)``.

Each check feeds fixed-seed streams of length ``2N`` and requires the
sample mean to lie within four standard errors of the expectation.
"""

from __future__ import annotations

import math
import statistics
from typing import List

import pytest

from repro import NofNSkyline
from repro.bench import expected_maxima
from repro.streams import materialize

SEEDS = range(1000, 1060)
N = 500
Z_BOUND = 4.0


def z_score(samples: List[int], expected: float) -> float:
    error = statistics.stdev(samples) / math.sqrt(len(samples))
    return (statistics.fmean(samples) - expected) / error


class TestExpectedMaxima:
    def test_small_values(self):
        assert expected_maxima(1, 3) == 1.0
        assert expected_maxima(5, 1) == 1.0
        # A(n, 2) is the n-th harmonic number.
        assert expected_maxima(4, 2) == pytest.approx(1 + 1 / 2 + 1 / 3 + 1 / 4)
        assert expected_maxima(2, 3) == pytest.approx(1 + (1 + 1 / 2) / 2)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_rn_and_answer_sizes_match_theorem_2(dim):
    n = N // 2
    rn_sizes: List[int] = []
    answer_sizes: List[int] = []
    for seed in SEEDS:
        engine = NofNSkyline(dim=dim, capacity=N)
        engine.append_many(materialize("independent", dim, 2 * N, seed))
        rn_sizes.append(engine.rn_size)
        answer_sizes.append(len(engine.query(n)))
    rn_z = z_score(rn_sizes, expected_maxima(N, dim + 1))
    answer_z = z_score(answer_sizes, expected_maxima(n, dim))
    assert abs(rn_z) <= Z_BOUND, f"E|R_N| off by {rn_z:.2f} standard errors"
    assert abs(answer_z) <= Z_BOUND, (
        f"E|S_n| off by {answer_z:.2f} standard errors"
    )
