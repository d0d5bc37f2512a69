"""Converts ledger effects into dated realization events under a tax regime.

Two regimes are implemented.

``Regime.CURRENT`` is the existing Philippine treatment: an ordinary sale
realizes at the sale tick; a short sale realizes nothing when the borrowed
shares are sold (receipt of proceeds is not realization) and realizes the
whole short-sale gain or loss at the cover, when the borrow obligation is
discharged by delivery.  Covering with an owned lot produces two realization
events at the cover tick: the disposal of the owned lot (deemed proceeds equal
to the market price of replacing the borrowed shares) and the short cover
itself.

``Regime.PROPOSED`` adds a constructive-sale rule: short-selling while owning
identical shares is deemed a disposition of the owned shares at the short-sale
tick, over as many shares as are owned and not already deemed disposed.  The
deemed-disposed shares are reserved; they can no longer be sold outright, and
delivering them to cover the short later emits only the short-cover event,
the owned-side disposal having already been realized constructively.  Any
shorted excess over the owned quantity follows the current rule.

Basis is never adjusted after a constructive sale: on a path that rises and
then falls the two regimes deliberately tax different totals, which is the
whole point of comparing them.

Events are emitted one per homogeneous slice (one lot, one borrow position,
one price); single-lot scenarios therefore produce exactly one event per rule
application.

The reservations live in the run's ``Ledger``, which decides which owned
shares each sale and cover takes; all the proposed regime adds is a
reserving ledger.  Realization maps effects to events without state, the
same way under both regimes.  A rule is keyed by the ledger step its event
class names in ``_step``; it reads the time, security and quantity from the
effects' event and builds each event straight from the (lot, qty) and
(position, qty) pairs the ledger reports: a lot's basis, a position's
proceeds.  A buy, a borrow and a death emit nothing under either regime:
their steps have no rule, and ``run`` skips ``realize``.
"""

from __future__ import annotations

from enum import Enum

from .errors import InvariantViolation
from .ledger import Ledger, LedgerEffects
from .market import Money, SecurityId, Tick, _money, record


class Regime(Enum):
    CURRENT = "current"
    PROPOSED = "proposed"


class RealizationKind(Enum):
    ORDINARY_SALE = "ordinary_sale"
    SHORT_COVER = "short_cover"
    OWNED_DISPOSAL_AT_COVER = "owned_disposal_at_cover"
    CONSTRUCTIVE_SALE = "constructive_sale"


@record
class RealizationEvent:
    """A dated (amount realized, basis, gain or loss) record."""

    at: Tick
    kind: RealizationKind
    sec: SecurityId
    qty: int
    amount_realized_per_share: Money
    basis_per_share: Money

    @property
    def gain_centavos(self) -> tuple[int, int]:
        """(gain per share, gain total) in centavos, signed: the one gain formula."""
        per_share = self.amount_realized_per_share.centavos - self.basis_per_share.centavos
        return per_share, per_share * self.qty

    @property
    def gain_per_share(self) -> Money:
        return _money(self.gain_centavos[0])

    @property
    def gain_total(self) -> Money:
        return _money(self.gain_centavos[1])


def _price(effects: LedgerEffects) -> Money:
    price = effects.price
    if price is None:  # hand-built effects may lack it
        raise InvariantViolation(f"{type(effects.event).__name__} effects carry no price")
    return price


# One rule per ledger step that can realize, looked up in ``_RULES``.


def _sale(effects: LedgerEffects) -> list[RealizationEvent]:
    price, ev = _price(effects), effects.event
    at, sec = ev.at, ev.sec
    return [
        RealizationEvent(at, RealizationKind.ORDINARY_SALE, sec, qty, price, lot.basis_per_share)
        for lot, qty in effects.lots_consumed
    ]


def _short_sale(effects: LedgerEffects) -> list[RealizationEvent]:
    # The proceeds realize nothing; the shares a reserving ledger set aside are deemed disposed of.
    if not effects.reserved:
        return []
    price, ev = _price(effects), effects.event
    at, sec = ev.at, ev.sec
    return [
        RealizationEvent(at, RealizationKind.CONSTRUCTIVE_SALE, sec, qty, price, lot.basis_per_share)
        for lot, qty in effects.reserved
    ]


def _cover(effects: LedgerEffects) -> list[RealizationEvent]:
    # Delivered reserved shares, reported apart, were disposed of at the
    # short sale; every other delivered share is deemed sold at the price of
    # replacing the borrowed shares.  A cover by purchase delivers none.
    price, ev = _price(effects), effects.event
    at, sec = ev.at, ev.sec
    events = [
        RealizationEvent(at, RealizationKind.OWNED_DISPOSAL_AT_COVER, sec, qty, price, lot.basis_per_share)
        for lot, qty in effects.lots_consumed
    ]
    events += [
        RealizationEvent(at, RealizationKind.SHORT_COVER, sec, qty, pos.short_proceeds_per_share, price)
        for pos, qty in effects.shorts
    ]
    return events


_RULES = {Ledger._sell: _sale, Ledger._short_sell: _short_sale, Ledger._cover: _cover}


def realize(
    effects: LedgerEffects,
    regime: Regime,
    ledger: Ledger,
) -> tuple[list[RealizationEvent], Ledger]:
    """Produce the realization events for one event just applied to ``ledger``.

    Returns the events in deterministic order together with ``ledger``,
    unchanged: the events depend on ``effects`` alone.  Only the benchmark's
    span tags read ``regime`` and ``ledger``, which keep this signature.
    """
    try:
        rule = _RULES.get(type(effects.event)._step)
    except AttributeError:
        raise TypeError(f"unknown transaction event {effects.event!r}") from None
    return (rule(effects) if rule else []), ledger
