"""Per-shard engines over round-robin sub-streams (Theorem 1 applied).

A sharded router splits the stream round-robin: element ``kappa`` goes
to shard ``(kappa - 1) % S``.  Theorem 1 says non-redundancy transfers
to sub-streams — an element that is non-redundant in the full stream is
non-redundant in every sub-stream containing it — so each shard can run
the ordinary single-stream machinery over its sub-stream and the union
of the shards' answers is guaranteed to contain the global answer
(:mod:`repro.parallel.merge` prunes the rest exactly).

The trick that makes the stock engines reusable verbatim is the same
one :class:`~repro.core.timewindow.TimeWindowSkyline` plays with
timestamps: a shard engine labels its intervals with **global** kappas
instead of local positions.  Setting ``self._m`` to the arriving
element's global kappa before running the inherited maintenance makes
the inherited window-start arithmetic (``self._m - capacity + 1``)
compute the *global* window start, so expiry is exact at every shard
arrival; only the batched path's once-per-chunk threshold needs an
override, because the base class assumes the next ``count`` labels are
consecutive while a shard's labels advance in strides of ``S``.

Between two arrivals a shard lags the global clock, so it may retain
elements that have already left the global window ("stale" elements).
That is harmless by construction: every admissible global stab point
``t`` satisfies ``t >= M - N + 1 >`` stale kappa, and an interval's
high endpoint is its element's kappa — stale elements are never stabbed
and expire exactly on the shard's next arrival.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.core.nofn import NofNSkyline, _record_kappa
from repro.core.skyband import KSkybandEngine, _band_record_kappa
from repro.exceptions import DimensionMismatchError, ReproError
from repro.sanitize.sanitizer import SanitizeArg

_ROUTER_ONLY = (
    "shard engines consume router-labelled elements; "
    "use ingest()/ingest_many() instead of append()/append_many()"
)


class ShardNofNEngine(NofNSkyline):
    """One shard's n-of-N engine, labelled with global kappas.

    ``capacity`` is the *global* window size ``N`` and ``stride`` the
    shard count ``S``; elements arrive via :meth:`ingest` /
    :meth:`ingest_many` with their global kappas pre-assigned by the
    router.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        stride: int,
        rtree_max_entries: int = 12,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        super().__init__(
            dim,
            capacity,
            rtree_max_entries=rtree_max_entries,
            sanitize=sanitize,
            query_cache=query_cache,
            batch_chunk=batch_chunk,
        )
        self._stride = stride

    # -- router-fed ingestion ------------------------------------------

    def ingest(self, element: StreamElement) -> ArrivalOutcome:
        """Run one arrival for a router-labelled element (global kappa,
        strictly increasing per shard)."""
        if element.kappa <= self._m:
            raise ValueError(
                f"shard kappas must increase: {element.kappa} <= {self._m}"
            )
        if len(element.values) != self.dim:
            raise DimensionMismatchError(self.dim, len(element.values))
        self._m = element.kappa
        return self._arrive(element, self._assign_label(element))

    def ingest_many(self, elements: Sequence[StreamElement]) -> BatchOutcome:
        """Batched :meth:`ingest` through the inherited fast path."""
        elems = self._validate_sub_batch(elements)
        if not elems:
            return BatchOutcome(())
        return self._ingest_batch(elems, [self._assign_label(e) for e in elems])

    def _validate_sub_batch(
        self, elements: Sequence[StreamElement]
    ) -> List[StreamElement]:
        elems = list(elements)
        previous = self._m
        for element in elems:
            if element.kappa <= previous:
                raise ValueError(
                    f"shard kappas must increase: "
                    f"{element.kappa} <= {previous}"
                )
            if len(element.values) != self.dim:
                raise DimensionMismatchError(self.dim, len(element.values))
            previous = element.kappa
        return elems

    # -- label hooks ----------------------------------------------------

    def _final_threshold(self, last_label: float, count: int) -> float:
        """Window start at the chunk's last arrival.  The base class
        adds ``count`` to ``self._m`` (consecutive labels); a shard's
        labels stride by ``S``, but the last label is known exactly."""
        return last_label - self.capacity + 1

    # -- misuse guards --------------------------------------------------

    def append(
        self, values: Sequence[float], payload: Any = None
    ) -> ArrivalOutcome:
        raise ReproError(_ROUTER_ONLY)

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> BatchOutcome:
        raise ReproError(_ROUTER_ONLY)

    # -- fan-out query surface ------------------------------------------

    def stab_elements(self, stab: float) -> List[StreamElement]:
        """This shard's answer to a global stab point, kappa-ascending:
        the skyline of the shard's sub-stream suffix ``kappa >= stab``
        (Theorem 3 on the sub-stream)."""
        if self._m == 0:
            self.stats.record_query(0)
            return []
        if self._stab_cache is not None:
            records = self._stab_cache.stab(stab)  # pre-sorted by kappa
        else:
            records = self._intervals.stab(stab)
            records.sort(key=_record_kappa)
        self.stats.record_query(len(records))
        return [r.element for r in records]

    def retained_suffix(self, stab: float) -> List[StreamElement]:
        """Retained elements with ``kappa >= stab``, kappa-ascending
        (the shard's in-window witnesses for merge verification)."""
        return [
            record.element
            for _, record in self._labels.items()
            if record.element.kappa >= stab
        ]


class ShardKSkybandEngine(KSkybandEngine):
    """One shard's k-skyband engine, labelled with global kappas.

    Same construction as :class:`ShardNofNEngine`; the skyband interval
    encoding already uses raw kappas, so only the batch chunk size needs
    the stride: the skyband chunk loop has no pending-expiry path, and a
    chunk spanning fewer than ``capacity`` kappas guarantees no chunk
    member can expire before its in-chunk ``k``-th dominator arrives.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        k: int,
        stride: int,
        rtree_max_entries: int = 12,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        super().__init__(
            dim,
            capacity,
            k,
            rtree_max_entries=rtree_max_entries,
            sanitize=sanitize,
            query_cache=query_cache,
            batch_chunk=batch_chunk,
        )
        self._stride = stride

    # -- router-fed ingestion ------------------------------------------

    def ingest(self, element: StreamElement) -> None:
        """Run one arrival for a router-labelled element."""
        if element.kappa <= self._m:
            raise ValueError(
                f"shard kappas must increase: {element.kappa} <= {self._m}"
            )
        if len(element.values) != self.dim:
            raise DimensionMismatchError(self.dim, len(element.values))
        self._m = element.kappa
        self._arrive(element)

    def ingest_many(self, elements: Sequence[StreamElement]) -> None:
        """Batched :meth:`ingest` through the inherited fast path.

        Consecutive kappas must not gap by more than ``stride`` (the
        router's round-robin guarantees exactly ``stride``); the chunk
        bound below relies on it.
        """
        elems = list(elements)
        previous = self._m
        for element in elems:
            if element.kappa <= previous:
                raise ValueError(
                    f"shard kappas must increase: "
                    f"{element.kappa} <= {previous}"
                )
            if previous and element.kappa - previous > self._stride:
                raise ValueError(
                    f"shard kappa gap {element.kappa - previous} exceeds "
                    f"stride {self._stride}"
                )
            if len(element.values) != self.dim:
                raise DimensionMismatchError(self.dim, len(element.values))
            previous = element.kappa
        if elems:
            self._ingest_elements(elems)

    def _batch_chunk_size(self) -> int:
        """Largest chunk spanning at most ``capacity - 1`` kappas under
        stride-``S`` labels: ``(c - 1) * S <= capacity - 1``."""
        return max(
            1, min(self._batch_chunk, (self.capacity - 1) // self._stride + 1)
        )

    # -- misuse guards --------------------------------------------------

    def append(
        self, values: Sequence[float], payload: Any = None
    ) -> StreamElement:
        raise ReproError(_ROUTER_ONLY)

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[StreamElement]:
        raise ReproError(_ROUTER_ONLY)

    # -- fan-out query surface ------------------------------------------

    def stab_elements(self, stab: float) -> List[StreamElement]:
        """This shard's k-skyband answer to a global stab point
        (generalised Theorem 3 on the sub-stream), kappa-ascending."""
        if self._m == 0:
            self.stats.record_query(0)
            return []
        if self._stab_cache is not None:
            records = self._stab_cache.stab(stab)  # pre-sorted by kappa
        else:
            records = self._intervals.stab(stab)
            records.sort(key=_band_record_kappa)
        self.stats.record_query(len(records))
        return [r.element for r in records]

    def retained_suffix(self, stab: float) -> List[StreamElement]:
        """Retained elements with ``kappa >= stab``, kappa-ascending.

        These are the merge's dominance witnesses: within a shard, the
        ``k`` youngest in-window dominators of any element are always
        retained (pruning one would require ``k`` even younger in-shard
        dominators, a contradiction), so counting a candidate's
        dominators over the union of all shards' suffixes decides band
        membership exactly.
        """
        return [
            record.element
            for _, record in self._labels.items()
            if record.element.kappa >= stab
        ]


ShardEngine = Union[ShardNofNEngine, ShardKSkybandEngine]


def build_shard_engine(spec: Mapping[str, Any]) -> ShardEngine:
    """Construct a shard engine from a picklable spec dict.

    The spec travels over a process boundary for the ``process``
    backend, so it holds only plain values — the same dict drives the
    serial backend for exact behavioural parity.
    """
    kind = spec["kind"]
    common: Dict[str, Any] = {
        "rtree_max_entries": spec["rtree_max_entries"],
        "sanitize": spec["sanitize"],
        "query_cache": spec["query_cache"],
        # Older specs lack the key; ``None`` resolves to the default.
        "batch_chunk": spec.get("batch_chunk"),
    }
    if kind == "skyband":
        return ShardKSkybandEngine(
            spec["dim"], spec["capacity"], spec["k"], spec["stride"], **common
        )
    if kind == "nofn":
        return ShardNofNEngine(
            spec["dim"], spec["capacity"], spec["stride"], **common
        )
    raise ValueError(f"unknown shard engine kind: {kind!r}")


def shard_introspection(engine: ShardEngine) -> Dict[str, Any]:
    """One shard's introspection bundle (uniform across engine kinds)."""
    return {
        "retained": len(engine),
        "seen": engine.seen_so_far,
        "structure_version": engine.structure_version,
        "cache": engine.cache_stats(),
        "stats": engine.stats.snapshot(),
    }


def shard_records(engine: ShardEngine) -> List[Dict[str, Any]]:
    """One shard's retained elements as snapshot rows, kappa-ascending.

    Restore replays these through :meth:`ingest`, re-deriving all graph
    annotations — which is what makes snapshots portable across shard
    counts.
    """
    return [
        {
            "kappa": record.element.kappa,
            "values": list(record.element.values),
            "payload": record.element.payload,
        }
        for _, record in engine._labels.items()
    ]
