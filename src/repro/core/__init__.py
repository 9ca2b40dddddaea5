"""The paper's primary contribution: sliding-window skyline engines.

* :class:`~repro.core.nofn.NofNSkyline` — n-of-N queries over the most
  recent ``N`` elements (sections 3.1-3.3);
* :class:`~repro.core.continuous.ContinuousQueryManager` — continuous
  n-of-N queries (section 3.4, Proposition 1 in closed form);
* :class:`~repro.core.n1n2.N1N2Skyline` — arbitrary-window
  (n1,n2)-of-N queries (section 4);
* :class:`~repro.core.timewindow.TimeWindowSkyline` — time-period
  windows (section 6 remark);
* :class:`~repro.core.approx.ApproxNofNSkyline` — epsilon-approximate
  n-of-N (section 6 future work);
* :class:`~repro.core.skyband.KSkybandEngine` — windowed k-skybands
  (the standard skyline generalisation, built on the same machinery);
* :class:`~repro.core.nofn_linear.LinearScanNofNSkyline` — the engine
  with pure-Python scans instead of the dense NumPy index (the
  reference for ablations and tests);
* :mod:`~repro.core.persistence` — engine snapshot / restore.
"""

from repro.core.approx import ApproxNofNSkyline
from repro.core.continuous import ContinuousQueryHandle, ContinuousQueryManager
from repro.core.dominance import dominates, incomparable, weakly_dominates
from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome
from repro.core.n1n2 import ContinuousN1N2Query, N1N2Skyline
from repro.core.nofn import NofNSkyline
from repro.core.nofn_linear import LinearScanNofNSkyline
from repro.core.skyband import KSkybandEngine
from repro.core.stats import EngineStats
from repro.core.timewindow import TimeWindowSkyline

__all__ = [
    "ApproxNofNSkyline",
    "ArrivalOutcome",
    "BatchOutcome",
    "ContinuousN1N2Query",
    "ContinuousQueryHandle",
    "ContinuousQueryManager",
    "EngineStats",
    "KSkybandEngine",
    "LinearScanNofNSkyline",
    "N1N2Skyline",
    "NofNSkyline",
    "StreamElement",
    "TimeWindowSkyline",
    "dominates",
    "incomparable",
    "weakly_dominates",
]
