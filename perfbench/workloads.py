"""Workload definitions and the closed-loop client that drives them.

Every workload is one single-threaded client calling the library
synchronously: it hands over a batch (or one element), waits for the
call to return, then issues its ad-hoc queries, and only then takes the
next batch.  Inputs come from :func:`repro.streams.make_stream` with a
seed derived from the run's ``--seed``; the library sees only the
generated points.  Engines and managers are built with default
arguments so that removing a tuning knob never needs a benchmark edit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import ContinuousQueryManager, N1N2Skyline, NofNSkyline
from repro.core.query_index import mixed_query_plan
from repro.streams.generators import make_stream

Point = Tuple[float, ...]
#: An ad-hoc query: ``n`` for n-of-N, ``(n1, n2)`` for (n1,n2)-of-N.
QuerySpec = Any

#: Points generated per stream block.  Blocks are seeded independently
#: from the run seed, so the stream is unbounded yet reproducible.
BLOCK = 10_000


@dataclass(frozen=True)
class Workload:
    """One input mix; :meth:`params` renders it for the report line."""

    name: str
    why: str
    kind: str  # "continuous" | "nofn" | "n1n2"
    distribution: str
    dim: int
    capacity: int
    batch: int  # 1 means per-element ``append``
    queries_per_round: int
    query_mix: str
    continuous_queries: int = 0
    #: Rounds after which deterministic counters are compared, and the
    #: fixed amount of work each pass of a traced run measures.
    checkpoint_rounds: int = 100
    #: Tail percentiles, fixed per workload so that every commit reports
    #: the same statistic: the highest of 90/95/99/99.9 that leaves at
    #: least ten samples beyond it at the sample count this workload
    #: reaches in a 20-second run on a 2-core Xeon.
    update_tail_pct: float = 95.0
    query_tail_pct: float = 95.0
    #: Ad-hoc answers checked against the oracle: the queries numbered
    #: 0 and ``oracle_base ** k`` (k >= 0) within a pass.
    oracle_base: int = 8
    dashboard_windows: Tuple[int, ...] = field(default=())

    def params(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "engine": {
                "continuous": "ContinuousQueryManager(NofNSkyline)",
                "nofn": "NofNSkyline",
                "n1n2": "N1N2Skyline",
            }[self.kind],
            "distribution": self.distribution,
            "d": self.dim,
            "N": self.capacity,
            "batch": self.batch,
            "ingest_call": "append" if self.batch == 1 else "append_many",
            "Q": self.continuous_queries,
            "queries_per_round": self.queries_per_round,
            "query_mix": self.query_mix,
            "checkpoint_rounds": self.checkpoint_rounds,
            "update_tail_pct": self.update_tail_pct,
            "query_tail_pct": self.query_tail_pct,
        }
        if self.dashboard_windows:
            out["dashboard_windows"] = list(self.dashboard_windows)
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cq-monitor-d2",
            why=(
                "the only workload where continuous dispatch does any work, "
                "and it does most of it; d=2 independent keeps |R_N| small "
                "so ingest stays cheap"
            ),
            kind="continuous",
            distribution="independent",
            dim=2,
            capacity=20_000,
            batch=100,
            queries_per_round=1,
            query_mix="1 query(n) per batch, n uniform in [1, N]",
            continuous_queries=1000,
            checkpoint_rounds=300,
            update_tail_pct=99.0,
            query_tail_pct=99.0,
        ),
        Workload(
            name="burst-ingest-d5",
            why=(
                "the paper's hardest case (|R_N| about 6000): maintenance "
                "is nearly all the time; the stab cache rebuilds once per "
                "batch and otherwise idles"
            ),
            kind="nofn",
            distribution="anticorrelated",
            dim=5,
            capacity=50_000,
            batch=500,
            queries_per_round=1,
            query_mix="1 query(n) per batch, n uniform in [1, N]",
            checkpoint_rounds=40,
            update_tail_pct=95.0,
            query_tail_pct=95.0,
            oracle_base=16,
        ),
        Workload(
            name="dashboard-d5",
            why=(
                "read-heavy use of the same engine: the stab cache and its "
                "snapshot dominate, every write invalidates it, and it is "
                "the only workload on the per-element append path"
            ),
            kind="nofn",
            distribution="anticorrelated",
            dim=5,
            capacity=20_000,
            batch=1,
            queries_per_round=20,
            query_mix=(
                "20 query(n) per append: even slots cycle the dashboard "
                "windows, odd slots draw n uniform in [1, N]"
            ),
            dashboard_windows=(100, 250, 500, 1000, 2500, 5000, 10_000, 20_000),
            checkpoint_rounds=300,
            update_tail_pct=99.0,
            query_tail_pct=99.9,
            oracle_base=16,
        ),
        Workload(
            name="history-n1n2-d3",
            why=(
                "the paper's second query class (section 4): without it "
                "core.n1n2, its demotion to I_RN- and its two-tree stab go "
                "unmeasured"
            ),
            kind="n1n2",
            distribution="anticorrelated",
            dim=3,
            capacity=20_000,
            batch=100,
            queries_per_round=10,
            query_mix=(
                "10 query(n1, n2) per batch: n2 uniform in [1, N], "
                "n1 uniform in [1, n2]"
            ),
            checkpoint_rounds=150,
            update_tail_pct=95.0,
            query_tail_pct=99.0,
        ),
    )
}


class Feed:
    """The workload's stream, generated block by block from the seed.

    Only the most recent ``keep`` handed-out points (plus the unhanded
    remainder of the current block) stay in memory, so a long or fast
    run does not grow the process's footprint.  Point ``kappa``
    (1-based, as the engines number arrivals) is row ``kappa - 1 -
    base`` of the buffer.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self._workload = workload
        self._seed = seed
        self._blocks = 0
        self._buf = np.empty((0, workload.dim), dtype=np.float64)
        self._base = 0
        self._keep = workload.capacity
        #: Points handed to the library so far (``M``).
        self.m = 0

    def _grow(self) -> None:
        w = self._workload
        block_seed = self._seed * 1_000_003 + self._blocks
        block = np.array(
            list(make_stream(w.distribution, w.dim, BLOCK, seed=block_seed)),
            dtype=np.float64,
        )
        self._blocks += 1
        drop = max(0, self.m - self._keep - self._base)
        self._buf = np.concatenate([self._buf[drop:], block])
        self._base += drop

    def take(self, count: int) -> List[Point]:
        """The next ``count`` points, as the tuples the generator yields."""
        while self._base + len(self._buf) < self.m + count:
            self._grow()
        lo = self.m - self._base
        rows = self._buf[lo:lo + count].tolist()
        self.m += count
        return [tuple(row) for row in rows]

    def slice(self, first: int, last: int) -> np.ndarray:
        """Points with ``first <= kappa <= last`` (both handed out)."""
        if not (self._base < first <= last <= self.m):
            raise IndexError(
                f"kappas [{first}, {last}] are outside the retained stream "
                f"({self._base + 1}..{self.m})"
            )
        return self._buf[first - 1 - self._base:last - self._base]


class Session:
    """The library objects of one workload, driven through public calls."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.engine: Any = None
        self.manager: Optional[ContinuousQueryManager] = None
        self.handles: List[Any] = []

    def build(self, prefill: List[Point]) -> None:
        """Build the engine, fill a whole window and register queries."""
        w = self.workload
        if w.kind == "n1n2":
            self.engine = N1N2Skyline(w.dim, w.capacity)
        else:
            self.engine = NofNSkyline(w.dim, w.capacity)
        self.engine.append_many(prefill)
        if w.continuous_queries:
            self.manager = ContinuousQueryManager(self.engine)
            self.handles = [
                self.manager.register(n)
                for n in mixed_query_plan(w.continuous_queries, w.capacity)
            ]

    def update_call(self) -> Callable[[List[Point]], Any]:
        """The call a batch is handed to; it returns with every
        registered continuous query already updated."""
        if self.manager is not None:
            return self.manager.append_many
        if self.workload.batch == 1:
            append = self.engine.append
            return lambda points: append(points[0])
        return self.engine.append_many

    def query_call(self) -> Callable[[QuerySpec], List[Any]]:
        if self.workload.kind == "n1n2":
            query = self.engine.query
            return lambda spec: query(*spec)
        return self.engine.query


def query_specs(workload: Workload, rng: random.Random) -> Iterator[QuerySpec]:
    """Endless, seed-determined stream of ad-hoc query parameters."""
    n_max = workload.capacity
    slot = 0
    while True:
        if workload.kind == "n1n2":
            n2 = rng.randint(1, n_max)
            yield (rng.randint(1, n2), n2)
        elif workload.dashboard_windows and slot % 2 == 0:
            windows = workload.dashboard_windows
            yield windows[(slot // 2) % len(windows)]
        else:
            yield rng.randint(1, n_max)
        slot += 1


def oracle_slice(workload: Workload, m: int, spec: QuerySpec) -> Tuple[int, int]:
    """Inclusive kappa range an ad-hoc answer ranges over at length ``m``:
    the last ``n`` elements, or ``[M - n2 + 1, M - n1 + 1]``."""
    if workload.kind == "n1n2":
        n1, n2 = spec
        return max(1, m - n2 + 1), m - n1 + 1
    return max(1, m - spec + 1), m
