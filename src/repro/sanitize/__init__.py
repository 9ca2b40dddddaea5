"""Paper-invariant sanitizer subsystem.

Attachable runtime verification for every engine in the library: the
:class:`InvariantSanitizer` re-derives the properties the paper proves
(Theorem 1 non-redundancy, the Theorem 3 interval encoding and its
stabbing answers, Theorem 4's CBC ancestors, the dominance index's
kappa order, continuous-query rows, ...) directly from engine
state, and raises :class:`~repro.exceptions.StructureCorruptionError`
with a structured :class:`~repro.exceptions.SanitizerReport` instead of
erasable ``assert`` statements — every check survives ``python -O``.

Attach it at construction time::

    engine = NofNSkyline(dim=2, capacity=1000, sanitize="sampled")

or drive it directly::

    InvariantSanitizer(mode="full").verify(engine)

See ``docs/DEVELOPING.md`` for the mode/cost trade-offs and the full
invariant catalogue.
"""

from __future__ import annotations

from repro.exceptions import (
    SanitizerReport,
    StructureCorruptionError,
    corruption,
)
from repro.sanitize.checks import (
    verify_continuous,
    verify_n1n2,
    verify_nofn,
    verify_skyband,
    verify_timewindow,
)
from repro.sanitize.sanitizer import MODES, InvariantSanitizer, SanitizeArg

__all__ = [
    "MODES",
    "InvariantSanitizer",
    "SanitizeArg",
    "SanitizerReport",
    "StructureCorruptionError",
    "corruption",
    "verify_continuous",
    "verify_n1n2",
    "verify_nofn",
    "verify_skyband",
    "verify_timewindow",
]
