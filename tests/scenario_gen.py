"""Random valid-scenario generator for the property suites.

Walks tick by tick choosing events that are feasible in the live engine
state (threaded under the proposed regime, whose constraints are the
stricter ones), so every generated scenario runs cleanly under both
regimes.  Realizing events (sells and covers) are never placed on a tick
that already carries a short sale, and vice versa, so tick-level
realization-timing assertions stay meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Money,
    PricePath,
    Scenario,
    SellOwned,
    ShortSell,
)
from realize.errors import EngineError
from realize.ledger import Ledger, apply_event
from ledger_views import borrowed_unsold_qty, borrows, owned_qty, sold_uncovered_qty

_KINDS = (
    "buy", "buy", "borrow", "borrow", "short", "short", "sell",
    "cover_p", "cover_p", "cover_o", "cover_o", "death",
)


@dataclass
class GeneratedScenario:
    scenario: Scenario
    short_ticks: set[int]
    total_borrowed: dict[str, int]
    total_shorted: dict[str, int]


def random_scenario(rng: random.Random, name: str = "generated") -> GeneratedScenario:
    n_ticks = rng.randint(2, 6)
    secs = ("AAA", "BBB")[: rng.randint(1, 2)]
    quotes = {
        (sec, t): Money.from_pesos(rng.randint(1, 1000))
        for sec in secs
        for t in range(n_ticks + 1)
    }
    path = PricePath(quotes)

    state = Ledger(reserving=True)
    events = []
    short_ticks: set[int] = set()
    realizing_ticks: set[int] = set()
    total_borrowed = {sec: 0 for sec in secs}
    total_shorted = {sec: 0 for sec in secs}
    died = False

    for t in range(n_ticks + 1):
        for _ in range(rng.randint(0, 3)):
            sec = rng.choice(secs)
            kind = rng.choice(_KINDS)
            ev = None
            if kind == "buy":
                ev = Buy(t, sec, rng.randint(1, 5) * 100)
            elif kind == "borrow":
                ev = Borrow(t, sec, rng.randint(1, 5) * 100)
            elif kind == "short" and t not in realizing_ticks:
                avail = borrowed_unsold_qty(state, sec)
                if avail:
                    ev = ShortSell(t, sec, rng.randint(1, avail))
            elif kind == "sell" and t not in short_ticks:
                avail = owned_qty(state, sec) - sum(state.reserved_by_lot(sec).values())
                if avail:
                    ev = SellOwned(t, sec, rng.randint(1, avail))
            elif kind == "cover_p" and t not in short_ticks:
                avail = sold_uncovered_qty(state, sec)
                if avail:
                    ev = CoverByPurchase(t, sec, rng.randint(1, avail))
            elif kind == "cover_o" and t not in short_ticks:
                avail = min(sold_uncovered_qty(state, sec), owned_qty(state, sec))
                if avail:
                    ev = CoverByOwnedLot(t, sec, rng.randint(1, avail))
            elif kind == "death" and not died and rng.random() < 0.25 and (
                state.lots or borrows(state)
            ):
                ev = Death(t)
            if ev is None:
                continue
            try:
                apply_event(state, ev, path)
            except EngineError:  # leaves the ledger as it was
                continue
            events.append(ev)
            if isinstance(ev, ShortSell):
                short_ticks.add(t)
                total_shorted[sec] += ev.qty
            elif isinstance(ev, (SellOwned, CoverByPurchase, CoverByOwnedLot)):
                realizing_ticks.add(t)
            elif isinstance(ev, Borrow):
                total_borrowed[sec] += ev.qty
            elif isinstance(ev, Death):
                died = True

            # Inventory conservation, checked as the walk goes.
            for s in secs:
                assert owned_qty(state, s) >= 0
                assert borrowed_unsold_qty(state, s) >= 0
                assert sold_uncovered_qty(state, s) >= 0
                assert total_shorted[s] <= total_borrowed[s]

    return GeneratedScenario(
        scenario=Scenario(name, path, tuple(events)),
        short_ticks=short_ticks,
        total_borrowed=total_borrowed,
        total_shorted=total_shorted,
    )
