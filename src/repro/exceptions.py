"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` et al.) propagate.

This module also hosts :class:`SanitizerReport`, the structured payload
attached to every :class:`StructureCorruptionError`.  It lives here —
rather than in :mod:`repro.sanitize` — because the data-structure
substrates raise corruption errors themselves and must not import the
sanitizer subsystem (which imports the engines, which import the
structures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatchError(ReproError):
    """A point's dimensionality does not match the structure it is used with."""

    def __init__(self, expected: int, actual: int) -> None:
        super().__init__(
            f"dimension mismatch: structure is {expected}-dimensional, "
            f"got a {actual}-dimensional point"
        )
        self.expected = expected
        self.actual = actual


class InvalidWindowError(ReproError):
    """A window size or query range is outside its legal domain."""


class InvalidIntervalError(ReproError):
    """An interval ``(low, label]`` is empty or NaN (a dense-index row
    requires ``low < label``)."""


class DuplicateKeyError(ReproError):
    """A key that must be unique was inserted twice."""


class KeyNotFoundError(ReproError):
    """A key expected to be present in a structure is missing."""


class EmptyStructureError(ReproError):
    """An operation that needs a non-empty structure was called on an empty one."""


class QueryNotRegisteredError(ReproError):
    """A continuous query handle does not belong to this manager."""


class StreamExhaustedError(ReproError):
    """A finite stream was asked for more elements than it contains."""


@dataclass(frozen=True)
class SanitizerReport:
    """Structured description of one broken invariant.

    Attached to every :class:`StructureCorruptionError` raised by the
    invariant checks so that operators (and the mutation-style test
    suite) can tell *which* structure broke *which* invariant without
    parsing the message.

    Attributes
    ----------
    structure:
        The structure at fault (``"rtree"``, ``"dense_index"``,
        ``"engine"`` …).
    invariant:
        Machine-readable invariant name from the catalogue in
        ``docs/DEVELOPING.md`` (``"non-redundancy"``, ``"forest"``,
        ``"interval-encoding"``, ``"stabbing-bruteforce"``,
        ``"rtree-augmentation"``, ``"continuous-rows"`` …).
    message:
        Human-readable details.
    kappas:
        Arrival labels of the offending elements, when known.
    engine:
        Class name of the engine/manager under verification (empty for
        standalone structure checks).
    """

    structure: str
    invariant: str
    message: str
    kappas: Tuple[int, ...] = field(default=())
    engine: str = ""

    def describe(self) -> str:
        """One-line rendering used as the exception message."""
        where = f"{self.engine}." if self.engine else ""
        suffix = f" (kappas={list(self.kappas)})" if self.kappas else ""
        return (
            f"[{where}{self.structure}] invariant "
            f"'{self.invariant}' violated: {self.message}{suffix}"
        )


class StructureCorruptionError(ReproError):
    """An engine's cross-structure invariants are broken.

    Raised from the maintenance hot path when a safety check fails
    (e.g. the oldest element of ``R_N`` is not a dominance-graph root
    at expiry time).  A real exception — not an ``assert`` — so the
    check survives ``python -O`` production deployments.

    The optional ``report`` carries a :class:`SanitizerReport` pinning
    the broken invariant; checks raised from the invariant-sanitizer
    subsystem always attach one.
    """

    def __init__(
        self, message: str, report: Optional[SanitizerReport] = None
    ) -> None:
        super().__init__(message)
        self.report = report


def corruption(
    structure: str,
    invariant: str,
    message: str,
    kappas: Tuple[int, ...] = (),
    engine: str = "",
) -> StructureCorruptionError:
    """Build a :class:`StructureCorruptionError` with an attached report."""
    report = SanitizerReport(
        structure=structure,
        invariant=invariant,
        message=message,
        kappas=kappas,
        engine=engine,
    )
    return StructureCorruptionError(report.describe(), report)
