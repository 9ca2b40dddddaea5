"""Time-based sliding-window skylines (paper section 6 remark).

    "Note that if we replace the element position labels by element
    arriving time then our techniques can be immediately applied to the
    most recent elements specified by a time period."

:class:`TimeWindowSkyline` does exactly that substitution: it reuses
the whole n-of-N machinery of :class:`~repro.core.nofn.NofNSkyline`
with **timestamps** as interval labels.  The window is the trailing
``horizon`` time units; :meth:`query_last` answers "skyline of the
last ``tau`` time units" for any ``tau <= horizon`` as a stabbing query
with stab point ``now - tau``.

Timestamps must be strictly increasing and positive (the encoding
reserves label ``0`` for dominance-graph roots).  Unlike the count
window, several elements can expire on a single arrival (a quiet spell
followed by a burst); the expiry loop handles that naturally.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.core.nofn import NofNSkyline
from repro.exceptions import InvalidWindowError
from repro.sanitize.sanitizer import SanitizeArg


class TimeWindowSkyline(NofNSkyline):
    """Skyline over the most recent ``horizon`` time units of a stream.

    Parameters
    ----------
    dim:
        Dimensionality of the stream's value vectors.
    horizon:
        Window length in time units; elements older than
        ``now - horizon`` are expired.  Queries may use any trailing
        period ``tau <= horizon``.
    rtree_max_entries:
        Fan-out of the internal R-tree, forwarded verbatim to
        :class:`~repro.core.nofn.NofNSkyline`.
    sanitize:
        Runtime invariant checking, forwarded verbatim (see
        :mod:`repro.sanitize`).
    query_cache / batch_chunk:
        Query and batched-ingest knobs, forwarded verbatim (see
        :class:`~repro.core.nofn.NofNSkyline`); :meth:`query_last`
        answers through the versioned stab cache when enabled.
    """

    def __init__(
        self,
        dim: int,
        horizon: float,
        rtree_max_entries: int = 12,
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if horizon <= 0:
            raise InvalidWindowError(f"horizon must be positive, got {horizon}")
        # The count capacity is irrelevant here; expiry is time-driven.
        super().__init__(
            dim,
            capacity=1,
            rtree_max_entries=rtree_max_entries,
            sanitize=sanitize,
            query_cache=query_cache,
            batch_chunk=batch_chunk,
        )
        self.horizon = float(horizon)
        self._now = 0.0

    # ------------------------------------------------------------------
    # Label hooks: timestamps instead of positions
    # ------------------------------------------------------------------

    def append(  # type: ignore[override]
        self,
        values: Sequence[float],
        timestamp: float,
        payload: Any = None,
    ) -> ArrivalOutcome:
        """Ingest one element stamped ``timestamp``.

        Raises
        ------
        ValueError
            If ``timestamp`` is not positive and strictly greater than
            the previous arrival's timestamp.
        """
        timestamp = float(timestamp)
        if timestamp <= 0:
            raise ValueError(f"timestamps must be positive, got {timestamp}")
        if timestamp <= self._now:
            raise ValueError(
                f"timestamps must be strictly increasing: "
                f"{timestamp} <= {self._now}"
            )
        self._now = timestamp
        self._m += 1
        element = StreamElement(values, self._m, payload)
        return self._arrive(element, timestamp)

    def append_many(  # type: ignore[override]
        self,
        points: Sequence[Sequence[float]],
        timestamps: Sequence[float],
        payloads: Optional[Sequence[Any]] = None,
    ) -> BatchOutcome:
        """Ingest a batch of elements stamped ``timestamps``.

        Semantically identical to calling :meth:`append` per element
        (see :meth:`NofNSkyline.append_many` for the fast path's
        mechanics); validation is all-or-nothing, so a bad point or
        timestamp anywhere in the batch leaves the engine untouched.

        Raises
        ------
        ValueError
            If ``timestamps`` disagrees with ``points`` in length, or is
            not positive and strictly increasing (starting strictly
            after the previous arrival).
        """
        pts = list(points)
        stamps = [float(t) for t in timestamps]
        if len(stamps) != len(pts):
            raise ValueError(
                f"got {len(pts)} points but {len(stamps)} timestamps"
            )
        previous = self._now
        for timestamp in stamps:
            if timestamp <= 0:
                raise ValueError(
                    f"timestamps must be positive, got {timestamp}"
                )
            if timestamp <= previous:
                raise ValueError(
                    f"timestamps must be strictly increasing: "
                    f"{timestamp} <= {previous}"
                )
            previous = timestamp
        elements = self._batch_elements(pts, payloads)
        return self._ingest_batch(elements, stamps)

    def _note_arrival(self, label: float) -> None:
        """Advance the clock: the batched path's equivalent of
        :meth:`append` setting ``now`` before maintenance."""
        self._now = label

    def _window_start(self, new_label: float) -> float:
        """Elements stamped before ``now - horizon`` have expired."""
        return self._now - self.horizon

    def _final_threshold(self, last_label: float, count: int) -> float:
        """Window start as of the chunk's last (latest-stamped) arrival."""
        return last_label - self.horizon

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query_last(self, duration: float) -> List[StreamElement]:
        """Skyline of the elements from the last ``duration`` time units
        (the closed window ``[now - duration, now]``), oldest first.

        Raises
        ------
        InvalidWindowError
            Unless ``0 < duration <= horizon``.
        """
        if not 0 < duration <= self.horizon:
            raise InvalidWindowError(
                f"duration must be in (0, {self.horizon}], got {duration}"
            )
        if not self._labels:
            self.stats.record_query(0)
            return []
        stab = self._now - duration
        if stab <= 0:
            # The period covers the whole retained history: any stab
            # point at or below the oldest live label reports exactly
            # the dominance-graph roots.
            stab = self._labels.oldest()[0]
        if self._stab_cache is not None:
            records = self._stab_cache.stab(stab)  # pre-sorted by kappa
        else:
            records = self._intervals.stab(stab)
            records.sort(key=lambda r: r.element.kappa)
        self.stats.record_query(len(records))
        return [r.element for r in records]

    def skyline(self) -> List[StreamElement]:
        """Skyline of the whole horizon."""
        return self.query_last(self.horizon)

    def query(self, n: int) -> List[StreamElement]:  # type: ignore[override]
        """Count-based queries do not apply to a time window."""
        raise InvalidWindowError(
            "TimeWindowSkyline answers time-period queries; "
            "use query_last(duration) instead of query(n)"
        )

    def query_scan(self, n: int) -> List[StreamElement]:
        """Count-based queries do not apply to a time window.

        Overridden alongside :meth:`query`: the inherited scan would
        treat ``n`` as a count against *timestamp* labels and silently
        return wrong results.
        """
        raise InvalidWindowError(
            "TimeWindowSkyline answers time-period queries; "
            "use query_last(duration) instead of query_scan(n)"
        )

    @property
    def now(self) -> float:
        """Timestamp of the most recent arrival (0.0 before any)."""
        return self._now

    def check_invariants(self) -> None:
        """Verify the engine against time-based brute force.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_timewindow

        verify_timewindow(self)
