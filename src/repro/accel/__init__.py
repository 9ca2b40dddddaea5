"""Vectorised (NumPy) helpers.

Hosts the vectorised static skyline for users who batch-process large
static point sets (e.g. seeding a window from history), the intra-batch
dominance prefilter behind the engines' ``append_many`` fast path, and
the query fast path: the versioned stab cache
(:mod:`repro.accel.stab_cache`) that memoizes the dense index's
stabbing queries between writes.
"""

from repro.accel.batch_prefilter import BatchPrefilter, intra_batch_survivors
from repro.accel.numpy_skyline import numpy_skyline, pareto_mask
from repro.accel.stab_cache import DEFAULT_MAX_MEMO, StabCache

__all__ = [
    "BatchPrefilter",
    "intra_batch_survivors",
    "numpy_skyline",
    "pareto_mask",
    "DEFAULT_MAX_MEMO",
    "StabCache",
]
