"""The registered-query plan shared by the CLI, the benches and the
smoke scripts."""

from __future__ import annotations

from typing import List

__all__ = ["mixed_query_plan"]


def mixed_query_plan(count: int, capacity: int) -> List[int]:
    """A deterministic mixed distinct/duplicate window-size plan.

    Used by the CLI, benchmarks and smoke scripts so they all register
    the same query population for a given ``(count, capacity)``: a pool
    of ``ceil(count / 2)`` window sizes spread over ``[1, capacity]``
    by a multiplicative hash, cycled — so roughly half the
    registrations share a window with another handle and exercise the
    shared-counter path.
    """
    if count <= 0:
        return []
    pool = max(1, (count + 1) // 2)
    return [((i % pool) * 7919) % capacity + 1 for i in range(count)]
