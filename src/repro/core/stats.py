"""Lightweight engine telemetry.

The performance study (section 5) reports per-element maintenance cost,
``|R_N|`` sizes (Figure 4) and query workload mixes.  The engines keep
these counters so the benchmark harness — and downstream users sizing a
deployment — can read them without instrumenting the hot path
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineStats:
    """Counters accumulated by a window-skyline engine."""

    arrivals: int = 0
    expiries: int = 0
    dominated_removed: int = 0
    queries: int = 0
    query_results: int = 0
    rn_size_peak: int = 0
    rn_size_sum: int = 0
    # -- batched-ingestion counters (``append_many``) ------------------
    batches: int = 0
    batch_elements: int = 0
    prefilter_dropped: int = 0
    batch_size_peak: int = 0
    batch_seconds_total: float = 0.0
    batch_seconds_max: float = 0.0

    def record_arrivals(
        self,
        count: int,
        expired: int,
        dominated: int,
        rn_size_sum: int,
        rn_size_peak: int,
    ) -> None:
        """Account one chunk of ``count`` maintenance steps (one for
        ``append``): the expiries and dominance removals they made, and
        the sum and the largest of the ``|R_N|`` after each step."""
        self.arrivals += count
        self.expiries += expired
        self.dominated_removed += dominated
        if rn_size_peak > self.rn_size_peak:
            self.rn_size_peak = rn_size_peak
        self.rn_size_sum += rn_size_sum

    def record_batch(self, size: int, dropped: int, seconds: float) -> None:
        """Account one ``append_many`` call.

        The batch's arrivals are *also* accounted through
        :meth:`record_arrivals`, as ``append``'s are (counter parity
        with per-element ingestion); these counters describe only the
        batching itself.  ``seconds`` runs from the end of the batch's
        validation to the end of its last chunk, so a batch that fails
        validation records nothing.
        """
        self.batches += 1
        self.batch_elements += size
        self.prefilter_dropped += dropped
        if size > self.batch_size_peak:
            self.batch_size_peak = size
        self.batch_seconds_total += seconds
        if seconds > self.batch_seconds_max:
            self.batch_seconds_max = seconds

    def record_query(self, result_size: int) -> None:
        """Account one ad-hoc query."""
        self.queries += 1
        self.query_results += result_size

    @property
    def rn_size_mean(self) -> float:
        """Mean ``|R_N|`` observed after each arrival (0 when idle)."""
        if self.arrivals == 0:
            return 0.0
        return self.rn_size_sum / self.arrivals

    @property
    def mean_result_size(self) -> float:
        """Mean skyline size per query (0 when no queries ran)."""
        if self.queries == 0:
            return 0.0
        return self.query_results / self.queries

    @property
    def batch_size_mean(self) -> float:
        """Mean ``append_many`` batch size (0 when none ran)."""
        if self.batches == 0:
            return 0.0
        return self.batch_elements / self.batches

    @property
    def prefilter_kill_rate(self) -> float:
        """Fraction of batched elements the intra-batch prefilter kept
        out of the index entirely (0 when no batches ran)."""
        if self.batch_elements == 0:
            return 0.0
        return self.prefilter_dropped / self.batch_elements

    @property
    def batch_seconds_mean(self) -> float:
        """Mean wall-clock latency per ``append_many`` call."""
        if self.batches == 0:
            return 0.0
        return self.batch_seconds_total / self.batches

    @property
    def batch_throughput(self) -> float:
        """Sustained elements/second across all batched ingestion."""
        if self.batch_seconds_total == 0.0:
            return 0.0
        return self.batch_elements / self.batch_seconds_total

    def snapshot_raw(self) -> dict:
        """The raw counters, for persistence round-trips."""
        return {
            "arrivals": self.arrivals,
            "expiries": self.expiries,
            "dominated_removed": self.dominated_removed,
            "queries": self.queries,
            "query_results": self.query_results,
            "rn_size_peak": self.rn_size_peak,
            "rn_size_sum": self.rn_size_sum,
            "batches": self.batches,
            "batch_elements": self.batch_elements,
            "prefilter_dropped": self.prefilter_dropped,
            "batch_size_peak": self.batch_size_peak,
            "batch_seconds_total": self.batch_seconds_total,
            "batch_seconds_max": self.batch_seconds_max,
        }

    def snapshot(self) -> dict:
        """A plain-dict copy for reporting."""
        return {
            "arrivals": self.arrivals,
            "expiries": self.expiries,
            "dominated_removed": self.dominated_removed,
            "queries": self.queries,
            "rn_size_peak": self.rn_size_peak,
            "rn_size_mean": self.rn_size_mean,
            "mean_result_size": self.mean_result_size,
            "batches": self.batches,
            "batch_size_mean": self.batch_size_mean,
            "prefilter_kill_rate": self.prefilter_kill_rate,
            "batch_seconds_mean": self.batch_seconds_mean,
            "batch_seconds_max": self.batch_seconds_max,
        }
