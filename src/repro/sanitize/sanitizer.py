"""The attachable invariant sanitizer.

:class:`InvariantSanitizer` wraps the verifiers of
:mod:`repro.sanitize.checks` behind a mode dial:

``off``
    No checking at all.  Engines represent this as ``sanitizer is
    None`` so the per-arrival cost is a single identity test.
``sampled``
    Full verification every ``sample_every``-th maintenance event
    (arrival, batch chunk, or processed outcome).  Cheap enough to
    leave on during long soak runs while still bounding how far a
    corruption can propagate before detection.
``full``
    Full verification after every maintenance event.  The brute-force
    cross-checks are ``O(r^2)`` in the retained-set size, so this is a
    debugging tool, not a production setting.

Engines accept the mode (or a ready-made sanitizer, so several engines
can share one sampling clock) via their ``sanitize=`` constructor
parameter; :func:`InvariantSanitizer.coerce` normalises either form.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.sanitize.checks import (
    verify_continuous,
    verify_n1n2,
    verify_nofn,
    verify_skyband,
    verify_timewindow,
)

#: Recognised sanitizer modes, in increasing order of cost.
MODES: Tuple[str, ...] = ("off", "sampled", "full")

#: What engine constructors accept for their ``sanitize=`` parameter.
SanitizeArg = Union[str, "InvariantSanitizer", None]


class InvariantSanitizer:
    """Verifies paper invariants of an attached engine after updates.

    Parameters
    ----------
    mode:
        ``"sampled"`` or ``"full"`` (``"off"`` is representable but
        engines normalise it to *no sanitizer* via :meth:`coerce`).
    sample_every:
        In ``sampled`` mode, verify every this-many maintenance events.
    """

    __slots__ = ("mode", "sample_every", "_events")

    def __init__(self, mode: str = "full", sample_every: int = 64) -> None:
        if mode not in MODES:
            raise ValueError(
                f"sanitize mode must be one of {MODES}, got {mode!r}"
            )
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.mode = mode
        self.sample_every = sample_every
        self._events = 0

    @classmethod
    def coerce(cls, value: SanitizeArg) -> Optional["InvariantSanitizer"]:
        """Normalise a constructor argument to a sanitizer or ``None``.

        ``None`` / ``"off"`` (and a sanitizer whose mode is ``"off"``)
        become ``None`` — the engines' fast path; a mode string becomes
        a fresh sanitizer; an :class:`InvariantSanitizer` instance
        passes through, letting engines share one sampling clock.
        """
        if value is None:
            return None
        if isinstance(value, InvariantSanitizer):
            return None if value.mode == "off" else value
        if isinstance(value, str):
            if value not in MODES:
                raise ValueError(
                    f"sanitize mode must be one of {MODES}, got {value!r}"
                )
            return None if value == "off" else cls(mode=value)
        raise TypeError(
            f"sanitize must be a mode string, an InvariantSanitizer or "
            f"None, got {type(value).__name__}"
        )

    @property
    def events_seen(self) -> int:
        """Maintenance events observed (verified or sampled past)."""
        return self._events

    def maybe_verify(self, target: object) -> None:
        """Count one maintenance event; verify if the mode says so."""
        if self.mode == "off":  # pragma: no cover - engines skip "off"
            return
        self._events += 1
        if self.mode == "sampled" and self._events % self.sample_every:
            return
        self.verify(target)

    def verify(self, target: object) -> None:
        """Verify ``target`` now, regardless of mode and sampling.

        Raises
        ------
        StructureCorruptionError
            Carrying a :class:`~repro.exceptions.SanitizerReport`, on
            the first violated invariant.
        TypeError
            If ``target`` is not a known engine and has no
            ``check_invariants`` method.
        """
        # Engine imports stay lazy: the engines import this module for
        # their ``sanitize=`` parameter, so importing them here at
        # module level would be circular.
        from repro.core.continuous import ContinuousQueryManager
        from repro.core.n1n2 import N1N2Skyline
        from repro.core.nofn import NofNSkyline
        from repro.core.skyband import KSkybandEngine
        from repro.core.timewindow import TimeWindowSkyline

        if isinstance(target, TimeWindowSkyline):
            verify_timewindow(target)
        elif isinstance(target, NofNSkyline):
            verify_nofn(target)
        elif isinstance(target, N1N2Skyline):
            verify_n1n2(target)
        elif isinstance(target, KSkybandEngine):
            verify_skyband(target)
        elif isinstance(target, ContinuousQueryManager):
            verify_continuous(target)
        else:
            check = getattr(target, "check_invariants", None)
            if check is None:
                raise TypeError(
                    f"cannot sanitize {type(target).__name__}: not an "
                    f"engine and no check_invariants method"
                )
            check()

    def __repr__(self) -> str:
        return (
            f"InvariantSanitizer(mode={self.mode!r}, "
            f"sample_every={self.sample_every})"
        )
