"""What every sliding-window engine shares: one ingest path.

Algorithm 1 (and Algorithm 4, and the k-skyband generalisation) is one
per-arrival step, but the engines run it a chunk at a time: each
subclass supplies one chunk core, ``_arrive_chunk``, that answers a
chunk's searches against the dominance index frozen at chunk start and
flushes the chunk's mutations in bulk.  ``append`` hands it a chunk of
one; ``append_many`` hands it the batch in slices of ``batch_chunk``
through :meth:`WindowEngine._ingest`.  Both run the sanitizer after
every chunk, so there is a single maintenance path to test and trust.

:class:`WindowEngine` also holds the rest of what every engine shares:
the ``dim``/``capacity`` checks, ``batch_chunk`` resolution, the stats
and sanitizer, and the introspection built on them.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional, Sequence

import numpy as _np

from repro.accel.batch_prefilter import iter_chunks, resolve_batch_chunk
from repro.core.stats import EngineStats
from repro.exceptions import InvalidWindowError
from repro.sanitize.sanitizer import InvariantSanitizer, SanitizeArg


def row_block(values: Sequence[float]) -> Any:
    """One validated point as the ``(1, d)`` block of a chunk of one."""
    return _np.array((values,), dtype=_np.float64)


class WindowEngine:
    """Base of the sliding-window engines.

    Parameters
    ----------
    dim:
        Dimensionality of the stream's value vectors.
    capacity:
        ``N`` — the window size.
    sanitize:
        Runtime invariant checking: ``"off"`` (default), ``"sampled"``,
        ``"full"``, or a ready-made
        :class:`~repro.sanitize.InvariantSanitizer` to share between
        engines.  See :mod:`repro.sanitize`.
    batch_chunk:
        Slice size of the :meth:`append_many` pipeline (``None`` — the
        default — means :data:`repro.accel.batch_prefilter.CHUNK`).
        Chunks are also the granularity of sanitizer verification
        during a batch.  Must be ``>= 1``.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        sanitize: SanitizeArg = "off",
        batch_chunk: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise InvalidWindowError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.capacity = capacity
        self._batch_chunk = resolve_batch_chunk(batch_chunk)
        self._sanitizer = InvariantSanitizer.coerce(sanitize)
        self._m = 0
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # The chunk loop
    # ------------------------------------------------------------------

    def _chunk_limit(self) -> int:
        """The largest chunk :meth:`_ingest` hands the core:
        ``batch_chunk`` clamped to the window, so that no chunk member
        can expire before an in-chunk dominator arrives."""
        return min(self._batch_chunk, self.capacity)

    def _ingest(self, count: int, arrive: Callable[[int, int], int]) -> int:
        """Run ``arrive(lo, hi)`` — the chunk core over one slice of a
        validated batch of ``count`` elements — slice by slice, with the
        sanitizer after each; record the batch and return the members
        the prefilter dropped.

        The batch's clock starts here, after validation.
        """
        started = perf_counter()
        dropped = 0
        for lo, hi in iter_chunks(count, self._chunk_limit()):
            dropped += arrive(lo, hi)
            self._chunk_done()
        self.stats.record_batch(
            size=count, dropped=dropped, seconds=perf_counter() - started
        )
        return dropped

    def _chunk_done(self) -> None:
        """The sanitizer hook, run after every chunk (a chunk of one
        for :meth:`append`)."""
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def seen_so_far(self) -> int:
        """``M`` — number of elements ingested."""
        return self._m

    @property
    def sanitizer(self) -> Optional[InvariantSanitizer]:
        """The attached sanitizer, or ``None`` when checking is off."""
        return self._sanitizer

    @property
    def sanitize_mode(self) -> str:
        """The active sanitize mode (``"off"`` when none is attached)."""
        return "off" if self._sanitizer is None else self._sanitizer.mode

    @property
    def batch_chunk(self) -> int:
        """Effective :meth:`append_many` chunk size (the ``batch_chunk``
        knob, with ``None`` resolved to the module default)."""
        return self._batch_chunk
