"""Nets realized gains and losses per period and computes the tax due.

Gains and losses realized in the same netting window are summed signed; tax
is only ever due on a positive net.  Net capital losses are reported but never
carried over to a later window.

Two rate schedules exist.  ``PAPER_FLAT`` applies 10% to the whole net gain,
the convention used throughout the worked examples.  ``STATUTORY`` applies the
Sec 24(C) NIRC tiers for shares not traded on the exchange: 5% on the first
P100,000 of net gain and 10% on the excess.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .market import Money, Rate, Tick, _money, _rated, record
from .realization import RealizationEvent

STATUTORY_TIER_LIMIT = Money.from_pesos(100_000)
FLAT_RATE = Rate.percent(10)
LOWER_TIER_RATE = Rate.percent(5)
UPPER_TIER_RATE = Rate.percent(10)


class RateSchedule(Enum):
    PAPER_FLAT = "paper"
    STATUTORY = "statutory"


class NettingWindow(Enum):
    PER_TICK = "per-tick"
    WHOLE_RUN = "whole-run"


@record
class TaxLine:
    period: Tick
    net_capital_gain: Money  # signed
    tax_due: Money


_FLAT, _WHOLE_RUN = RateSchedule.PAPER_FLAT, NettingWindow.WHOLE_RUN
_TIER_LIMIT = STATUTORY_TIER_LIMIT.centavos


def _nets(events: Sequence[RealizationEvent], window: NettingWindow) -> list[tuple[Tick, int]]:
    """(tick, signed net centavos) per netting window, in tick order, from the events' int fields."""
    totals: dict[Tick, int] = {}
    for e in events:
        at = e.at
        totals[at] = totals.get(at, 0) + (e.amount_realized_per_share.centavos - e.basis_per_share.centavos) * e.qty
    if window is _WHOLE_RUN and totals:
        return [(max(totals), sum(totals.values()))]
    return sorted(totals.items())


def _tax(centavos: int, schedule: RateSchedule) -> int:
    """``tax_due`` on int centavos."""
    if centavos <= 0:
        return 0
    if schedule is _FLAT:
        return _rated(centavos, FLAT_RATE)
    lower = min(centavos, _TIER_LIMIT)
    return _rated(lower, LOWER_TIER_RATE) + _rated(centavos - lower, UPPER_TIER_RATE)


def net_by_period(
    events: Sequence[RealizationEvent], window: NettingWindow = NettingWindow.PER_TICK
) -> list[tuple[Tick, Money]]:
    """Sum signed gains per netting window; windows with no events are omitted.

    Under ``WHOLE_RUN`` everything nets into a single line dated at the last
    realization tick.
    """
    return [(t, _money(net)) for t, net in _nets(events, window)]


def tax_due(net_gain: Money, schedule: RateSchedule = RateSchedule.PAPER_FLAT) -> Money:
    """Tax on one period's net capital gain; zero when the net is not a gain.

    Sub-centavo rounding means a strictly positive net of a few centavos can
    still owe zero; at whole-peso gains the tax is strictly positive.
    """
    return _money(_tax(net_gain.centavos, schedule))


def tax_timeline(
    events: Sequence[RealizationEvent],
    window: NettingWindow = NettingWindow.PER_TICK,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
) -> list[TaxLine]:
    return [TaxLine(t, _money(net), _money(_tax(net, schedule))) for t, net in _nets(events, window)]
