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

from repro.core.element import StreamElement, batch_elements, checked_element
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.core.nofn import NofNSkyline
from repro.exceptions import InvalidWindowError
from repro.sanitize.sanitizer import SanitizeArg

#: The least positive float: at or below every (positive) label.
_FIRST_STAB = 5e-324


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
        sanitize: SanitizeArg = "off",
        query_cache: bool = True,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if not horizon > 0:  # also rejects NaN
            raise InvalidWindowError(f"horizon must be positive, got {horizon}")
        # The count capacity is irrelevant here; expiry is time-driven.
        super().__init__(
            dim,
            capacity=1,
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

        A timestamp or point the engine rejects raises before any state
        changes.

        Raises
        ------
        ValueError
            If ``timestamp`` is not positive and strictly greater than
            the previous arrival's timestamp.
        """
        timestamp = float(timestamp)
        self._check_stamps([timestamp])
        element = checked_element(values, self._m + 1, self.dim, payload)
        return self._append_one(element, timestamp)

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
        stamps = [float(t) for t in timestamps]
        self._check_stamps(stamps)
        elements, matrix = batch_elements(points, self._m + 1, self.dim, payloads)
        if len(stamps) != len(elements):
            raise ValueError(
                f"got {len(elements)} points but {len(stamps)} timestamps"
            )
        return self._ingest_batch(elements, stamps, matrix)

    def _check_stamps(self, stamps: List[float]) -> None:
        """Reject a timestamp that is not positive and strictly after
        its predecessor.  Both comparisons are written so that NaN,
        which compares false with everything, fails them."""
        previous = self._now
        for timestamp in stamps:
            if not timestamp > 0:
                raise ValueError(
                    f"timestamps must be positive, got {timestamp}"
                )
            if not timestamp > previous:
                raise ValueError(
                    f"timestamps must be strictly increasing: "
                    f"{timestamp} <= {previous}"
                )
            previous = timestamp

    def _note_arrival(self, label: float) -> None:
        """Advance the clock to the arriving element's stamp."""
        self._now = label

    def _window_start(self) -> float:
        """Elements stamped before ``now - horizon`` have expired."""
        return self._now - self.horizon

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
        if not self._records:
            self.stats.record_query(0)
            return []
        # A period reaching back past 0 covers the whole history, none
        # of which has expired: any stab point in (0, oldest label]
        # reports exactly the dominance-graph roots.
        answer = self._stab(max(self._now - duration, _FIRST_STAB))
        self.stats.record_query(len(answer))
        return answer

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
