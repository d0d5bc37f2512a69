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

from collections.abc import Iterable, Sequence
from enum import Enum

from .market import Money, Rate, Tick, _money, apply_rate, record
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


def net_by_period(
    events: Sequence[RealizationEvent], window: NettingWindow = NettingWindow.PER_TICK
) -> list[tuple[Tick, Money]]:
    """Sum signed gains per netting window; windows with no events are omitted.

    Under ``WHOLE_RUN`` everything nets into a single line dated at the last
    realization tick.
    """
    totals: dict[Tick, int] = {}
    for e in events:
        totals[e.at] = totals.get(e.at, 0) + e.gain_centavos[1]
    if not totals:
        return []
    if window is NettingWindow.WHOLE_RUN:
        return [(max(totals), _money(sum(totals.values())))]
    return [(t, _money(totals[t])) for t in sorted(totals)]


def tax_due(net_gain: Money, schedule: RateSchedule = RateSchedule.PAPER_FLAT) -> Money:
    """Tax on one period's net capital gain; zero when the net is not a gain.

    Sub-centavo rounding means a strictly positive net of a few centavos can
    still owe zero; at whole-peso gains the tax is strictly positive.
    """
    if net_gain.centavos <= 0:
        return Money.zero()
    if schedule is RateSchedule.PAPER_FLAT:
        return apply_rate(net_gain, FLAT_RATE)
    lower = min(net_gain, STATUTORY_TIER_LIMIT)
    excess = max(net_gain - STATUTORY_TIER_LIMIT, Money.zero())
    return apply_rate(lower, LOWER_TIER_RATE) + apply_rate(excess, UPPER_TIER_RATE)


def tax_timeline(
    events: Sequence[RealizationEvent],
    window: NettingWindow = NettingWindow.PER_TICK,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
) -> list[TaxLine]:
    return [
        TaxLine(t, net, tax_due(net, schedule))
        for t, net in net_by_period(events, window)
    ]


def total_tax(lines: Iterable[TaxLine]) -> Money:
    return _money(sum(line.tax_due.centavos for line in lines))
