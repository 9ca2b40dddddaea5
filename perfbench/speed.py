"""Machine-speed probe for the end-to-end timings.

On a shared 2-core machine the CPU's speed drifts: the same run of the
same seed measured 20-40% slower or faster from one run to the next,
with the whole process slowed together (library calls and set-up alike),
and in bursts lasting seconds.  Averaging inside a run cannot remove a
drift that covers the whole run.  So after each round the client runs
a fixed probe, outside every timed region, and scales the round's
timings by how slow the probe ran:

    speed  = mean probe time around the round / REFERENCE_S
    scaled = measured time / speed

A round with few probes (short rounds get one or two) also takes the
probes of the rounds on either side, until it has ``MIN_PROBES``: one
probe is noisy, and its noise, divided into the round's timings, spread
the query tails of short-round workloads more than the machine did.

``REFERENCE_S`` is about the probe's fastest time on a 2-core Xeon, so
the scaled figures read roughly as that machine's when undisturbed; the
unscaled figures stay in the ``report`` line.  The probe mixes what the
library does (dict and tuple work in the interpreter, small NumPy
calls) and runs with the garbage collector paused, so the library's
garbage is not collected on its clock.  It uses only the standard
library and NumPy: no change to the library can make it faster or
slower.
"""

from __future__ import annotations

import gc
from statistics import fmean
from time import perf_counter
from typing import List

import numpy as np

#: About the probe's fastest time on a 2-core Xeon (95-130 us measured).
REFERENCE_S = 100e-6

#: Share of library time spent probing between rounds.
DUTY = 0.02

#: Fewest probes a round's speed is taken from.
MIN_PROBES = 8

#: Probing before each set-up and after the last; ``setup_s`` is scaled
#: by all of these probes together.
SETUP_PROBE_S = 0.05

_AXIS = np.arange(256, dtype=np.float64)


def probe() -> float:
    """Time one fixed unit of interpreter and NumPy work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        table = {}
        acc = 0
        for i in range(200):
            table[i] = (i, i * 0.5)
            acc += table[i][0] % 7
        for _ in range(10):
            cut = int(np.searchsorted(_AXIS, 100.5))
            acc += int(np.flatnonzero(_AXIS[:cut] >= 50.0).size)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probe_for(seconds: float) -> List[float]:
    """Probe repeatedly for at least ``seconds`` (at least once)."""
    samples = [probe()]
    while sum(samples) < seconds:
        samples.append(probe())
    return samples


def speed(samples: List[float]) -> float:
    """How much slower than the reference machine the probes ran."""
    return fmean(samples) / REFERENCE_S


def round_speeds(rounds: List[List[float]]) -> List[float]:
    """Each round's speed, from its own probes and, while they number
    fewer than ``MIN_PROBES``, those of one more round on each side."""
    out = []
    for i, own in enumerate(rounds):
        samples = list(own)
        lo, hi = i, i + 1
        while len(samples) < MIN_PROBES and (lo > 0 or hi < len(rounds)):
            if lo > 0:
                lo -= 1
                samples.extend(rounds[lo])
            if hi < len(rounds):
                samples.extend(rounds[hi])
                hi += 1
        out.append(speed(samples))
    return out
