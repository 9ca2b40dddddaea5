"""Structured corruption reports.

:class:`~repro.exceptions.SanitizerReport` and the
:func:`~repro.exceptions.corruption` factory physically live in
:mod:`repro.exceptions` so that the low-level structures (interval
tree, R-tree, dense index) can raise structured corruption errors
without importing this package — the sanitizer reaches *down* into the
engines and structures, so nothing below it may import *up*.  This
module re-exports them under the name users expect
(``repro.sanitize.report``).
"""

from __future__ import annotations

from repro.exceptions import (
    SanitizerReport,
    StructureCorruptionError,
    corruption,
)

__all__ = ["SanitizerReport", "StructureCorruptionError", "corruption"]
