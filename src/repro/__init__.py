"""Stabbing the Sky — sliding-window skyline computation.

A production-grade reproduction of Lin, Yuan, Wang & Lu,
*"Stabbing the Sky: Efficient Skyline Computation over Sliding
Windows"* (ICDE 2005).

Quick start::

    from repro import NofNSkyline

    engine = NofNSkyline(dim=2, capacity=1_000)   # N = 1000
    for price, volume_rank in deals:
        engine.append((price, volume_rank))
    top_recent = engine.query(100)   # skyline of the last 100 deals
    top_window = engine.skyline()    # skyline of the whole window

See :mod:`repro.core` for the engines, :mod:`repro.baselines` for the
classic skyline algorithms (KLP, BNL, SFS), :mod:`repro.streams` for
the benchmark data generators and :mod:`repro.structures` for the
data-structure substrates (interval tree, R-tree, dense index).
"""

from repro.core import (
    ApproxNofNSkyline,
    ArrivalOutcome,
    BatchOutcome,
    ContinuousN1N2Query,
    ContinuousQueryHandle,
    ContinuousQueryManager,
    EngineStats,
    KSkybandEngine,
    LinearScanNofNSkyline,
    N1N2Skyline,
    NofNSkyline,
    StreamElement,
    TimeWindowSkyline,
    dominates,
    incomparable,
    weakly_dominates,
)
from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    EmptyStructureError,
    InvalidIntervalError,
    InvalidWindowError,
    KeyNotFoundError,
    QueryNotRegisteredError,
    ReproError,
    SanitizerReport,
    StreamExhaustedError,
    StructureCorruptionError,
)
from repro.sanitize import InvariantSanitizer

__version__ = "1.0.0"

__all__ = [
    "ApproxNofNSkyline",
    "ArrivalOutcome",
    "BatchOutcome",
    "ContinuousN1N2Query",
    "ContinuousQueryHandle",
    "ContinuousQueryManager",
    "DimensionMismatchError",
    "DuplicateKeyError",
    "EmptyStructureError",
    "EngineStats",
    "InvalidIntervalError",
    "InvalidWindowError",
    "InvariantSanitizer",
    "KSkybandEngine",
    "KeyNotFoundError",
    "LinearScanNofNSkyline",
    "N1N2Skyline",
    "NofNSkyline",
    "QueryNotRegisteredError",
    "ReproError",
    "SanitizerReport",
    "StreamElement",
    "StreamExhaustedError",
    "StructureCorruptionError",
    "TimeWindowSkyline",
    "__version__",
    "dominates",
    "incomparable",
    "weakly_dominates",
]
