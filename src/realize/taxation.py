"""Nets realized gains and losses per period and computes the tax due.

Gains and losses realized in the same netting window are summed signed; tax
is only ever due on a positive net.  Net capital losses are reported but never
carried over to a later window.

Two rate schedules exist.  ``PAPER_FLAT`` applies 10% to the whole net gain,
the convention used throughout the worked examples.  ``STATUTORY`` applies the
Sec 24(C) NIRC tiers for shares not traded on the exchange: 5% on the first
P100,000 of net gain and 10% on the excess.  ``_rated`` alone applies a rate:
a whole percent of int centavos, rounded half-to-even at the centavo.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .market import Money, Tick, _money, record
from .realization import RealizationEvent

STATUTORY_TIER_LIMIT = Money.from_pesos(100_000)
FLAT_RATE, LOWER_TIER_RATE, UPPER_TIER_RATE = 10, 5, 10  # whole percents


class RateSchedule(Enum):
    PAPER_FLAT = "paper"
    STATUTORY = "statutory"


class NettingWindow(Enum):
    PER_TICK = "per-tick"
    WHOLE_RUN = "whole-run"


@record
class TaxLine:
    """One netting window's signed net capital gain and the tax due on it."""

    period: Tick
    net_capital_gain: Money  # signed
    tax_due: Money


_new_line = TaxLine.__new__  # the generated constructor, called directly, past type.__call__
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


def _rated(centavos: int, percent: int) -> int:
    """``percent``% of non-negative int centavos, rounded half-to-even at the centavo."""
    q, r = divmod(centavos * percent, 100)
    twice = 2 * r
    if twice > 100 or (twice == 100 and q % 2 == 1):
        q += 1
    return q


def _tax(centavos: int, schedule: RateSchedule) -> int:
    """Tax in int centavos on a window's net: zero unless a gain, and rounding can zero a gain of a few centavos."""
    if centavos <= 0:
        return 0
    if schedule is _FLAT:
        return _rated(centavos, FLAT_RATE)
    lower = min(centavos, _TIER_LIMIT)
    return _rated(lower, LOWER_TIER_RATE) + _rated(centavos - lower, UPPER_TIER_RATE)


def _misfit(*arguments: tuple[str, object, type]) -> TypeError:
    """The error naming the first (name, value, type) argument whose value's type is not exactly that type.
    An enum's rules each test one member, so any other value would silently select the other rule."""
    name, value, kind = next(a for a in arguments if type(a[1]) is not a[2])
    return TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__} {value!r}")


def tax_timeline(
    events: Sequence[RealizationEvent],
    window: NettingWindow = NettingWindow.PER_TICK,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
) -> list[TaxLine]:
    """A line per netting window with events, in tick order; ``WHOLE_RUN`` nets all at the last event's tick."""
    if type(window) is not NettingWindow or type(schedule) is not RateSchedule:
        raise _misfit(("window", window, NettingWindow), ("schedule", schedule, RateSchedule))
    return [_new_line(TaxLine, t, _money(net), _money(_tax(net, schedule))) for t, net in _nets(events, window)]
