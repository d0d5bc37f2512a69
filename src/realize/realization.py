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
shares each sale and cover takes.  The only thing the proposed regime adds
is one call, ``Ledger.reserve``, at a short sale; every other event maps its
effects to events without state, the same way under both regimes.  Each
event class has one rule, found the way the ledger finds its step.
"""

from __future__ import annotations

from enum import Enum

from .errors import InvariantViolation
from .ledger import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Ledger,
    LedgerEffects,
    SellOwned,
    ShortSell,
    _lookup,
)
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


def _priced(effects: LedgerEffects) -> tuple[Money, SecurityId]:
    price, sec = effects.price, effects.sec
    if price is None or sec is None:  # hand-built effects may lack them
        raise InvariantViolation(f"{type(effects.event).__name__} effects carry no price or security")
    return price, sec


# One rule per event shape, looked up in ``_RULES`` by event class.


def _nothing(effects: LedgerEffects, regime: Regime, ledger: Ledger) -> list[RealizationEvent]:
    return []


def _sale(effects: LedgerEffects, regime: Regime, ledger: Ledger) -> list[RealizationEvent]:
    price, sec = _priced(effects)
    at = effects.at
    return [
        RealizationEvent(at, RealizationKind.ORDINARY_SALE, sec, s.qty, price, s.basis_per_share)
        for s in effects.lots_consumed
    ]


def _short_sale(effects: LedgerEffects, regime: Regime, ledger: Ledger) -> list[RealizationEvent]:
    if regime is Regime.CURRENT:
        # Receipt of the proceeds without realization.
        return []
    price, sec = _priced(effects)
    at = effects.at
    return [
        RealizationEvent(at, RealizationKind.CONSTRUCTIVE_SALE, sec, s.qty, price, s.basis_per_share)
        for s in ledger.reserve(effects)
    ]


def _may_reserve(events: tuple) -> bool:
    """Whether a short sale in ``events`` comes after a buy of its security, so that ``_short_sale`` can
    reserve under the proposed regime.  Price-free; a subclass counts as its base, as dispatch does.
    Where this is false nothing is ever reserved, and the two regimes take the same path."""
    bought = set()
    for ev in events:
        if isinstance(ev, ShortSell) and ev.sec in bought:
            return True
        if isinstance(ev, Buy):  # only a buy opens a lot
            bought.add(ev.sec)
    return False


def _cover(effects: LedgerEffects, regime: Regime, ledger: Ledger) -> list[RealizationEvent]:
    # Delivered shares that were reserved were disposed of at the short
    # sale; every other delivered share is deemed sold at the price of
    # replacing the borrowed shares.  A cover by purchase delivers none.
    price, sec = _priced(effects)
    at = effects.at
    events = [
        RealizationEvent(at, RealizationKind.OWNED_DISPOSAL_AT_COVER, sec, s.qty, price, s.basis_per_share)
        for s in effects.lots_consumed[effects.reserved_slices:]
    ]
    events += [
        RealizationEvent(at, RealizationKind.SHORT_COVER, sec, s.qty, s.proceeds_per_share, price)
        for s in effects.shorts_covered
    ]
    return events


_RULES = {
    Buy: _nothing,
    Borrow: _nothing,
    ShortSell: _short_sale,
    SellOwned: _sale,
    CoverByPurchase: _cover,
    CoverByOwnedLot: _cover,
    Death: _nothing,
}


def realize(
    effects: LedgerEffects,
    regime: Regime,
    ledger: Ledger,
) -> tuple[list[RealizationEvent], Ledger]:
    """Produce the realization events for one event just applied to ``ledger``.

    Returns the events in deterministic order together with ``ledger``,
    which only a short sale under the proposed regime changes: it reserves
    the owned shares deemed disposed.
    """
    ev = effects.event
    return (_RULES.get(type(ev)) or _lookup(_RULES, ev))(effects, regime, ledger), ledger
