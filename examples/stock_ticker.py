#!/usr/bin/env python3
"""The paper's motivating example: top buy deals of a stock (section 1).

Each deal is recorded by its *price per share* and its *volume*; deal
``a`` beats deal ``b`` when it is cheaper **and** involves a higher
volume.  The skyline of recent deals is therefore exactly the "top
deals" set — and because "different users may have different favourite
thresholds of N", the n-of-N engine answers the question for every
recency horizon at once.

This example simulates a ticker, registers three user profiles
(day-trader / swing / long view) as **continuous queries** so their
top-deal lists stay current per tick, and prints the per-profile
results plus each profile's count of result changes.

Run: ``python examples/stock_ticker.py``
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import ContinuousQueryManager, NofNSkyline


@dataclass(frozen=True)
class Deal:
    """One executed buy transaction."""

    deal_id: int
    price: float  # dollars per share — lower is better
    volume: int  # shares — higher is better


def deal_vector(deal: Deal) -> tuple:
    """Map a deal onto the min-skyline convention.

    Price is already minimize-me; volume is maximize-me, so it is
    negated (the engine minimizes every coordinate).
    """
    return (deal.price, -float(deal.volume))


def simulate_ticker(count: int, seed: int = 7):
    """A random-walk price around $100 with bursty volumes."""
    rng = random.Random(seed)
    price = 100.0
    for deal_id in range(1, count + 1):
        price = max(1.0, price + rng.gauss(0.0, 0.35))
        volume = int(rng.lognormvariate(6.0, 1.0)) + 1
        yield Deal(deal_id, round(price, 2), volume)


def main() -> None:
    window = 500  # keep the most recent 500 deals
    engine = NofNSkyline(dim=2, capacity=window)
    manager = ContinuousQueryManager(engine)

    profiles = {
        "day-trader (last 50 deals)": manager.register(50),
        "swing view (last 200 deals)": manager.register(200),
        "long view  (last 500 deals)": manager.register(window),
    }

    print(f"Streaming 2000 deals through an N={window} window "
          f"with {len(profiles)} continuous queries...\n")
    for deal in simulate_ticker(2000):
        manager.append(deal_vector(deal), payload=deal)

    for label, handle in profiles.items():
        print(f"Top deals for the {label}:")
        for element in handle.result():
            deal: Deal = element.payload
            print(f"   #{deal.deal_id:>4}  ${deal.price:>7.2f}  "
                  f"{deal.volume:>7,} shares")
        print(f"   ({handle.changes} incremental result changes "
              f"since registration)\n")

    print(f"Engine state: M={engine.seen_so_far} deals seen, "
          f"|R_N|={engine.rn_size} retained "
          f"(vs {window} in the raw window).")

    # Sanity: the continuous results always match fresh stabbing queries.
    for handle in profiles.values():
        assert handle.result_kappas() == [
            e.kappa for e in engine.query(handle.n)
        ]


if __name__ == "__main__":
    main()
