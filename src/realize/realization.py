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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import InsufficientOwnedShares, InvariantViolation, ReservationMismatch
from .ledger import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Fifo,
    LedgerEffects,
    LotPolicy,
    Plan,
    Portfolio,
    SellOwned,
    ShortSell,
)
from .market import Money, SecurityId, Tick, _money


class Regime(Enum):
    CURRENT = "current"
    PROPOSED = "proposed"


class RealizationKind(Enum):
    ORDINARY_SALE = "ordinary_sale"
    SHORT_COVER = "short_cover"
    OWNED_DISPOSAL_AT_COVER = "owned_disposal_at_cover"
    CONSTRUCTIVE_SALE = "constructive_sale"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True)
class ConstructiveReservation:
    """Shares of one lot deemed disposed by a constructive sale."""

    lot_id: int
    qty: int
    reserved_at: Tick
    sec: SecurityId


@dataclass(frozen=True)
class ReservationBook:
    """Constructive-sale bookkeeping threaded through one scenario run.

    ``entries`` are the reserved lot slices, oldest first.  The two pair
    tuples track, per borrow position, how many of its sold shares were the
    constructive side of a trigger and how many have been covered so far;
    constructive shares of a position are treated as covered before its
    non-constructive shares.
    """

    entries: tuple[ConstructiveReservation, ...] = ()
    constructive: tuple[tuple[int, int], ...] = ()  # (borrow position id, qty)
    covered: tuple[tuple[int, int], ...] = ()  # (borrow position id, qty covered)

    def reserved_by_lot(self, sec: SecurityId) -> dict[int, int]:
        """Reserved share count per lot id, for the lots of ``sec`` only."""
        out: dict[int, int] = {}
        for e in self.entries:
            if e.sec == sec:
                out[e.lot_id] = out.get(e.lot_id, 0) + e.qty
        return out

    def constructive_map(self) -> dict[int, int]:
        return dict(self.constructive)

    def covered_map(self) -> dict[int, int]:
        return dict(self.covered)


def trigger_check(state: Portfolio, book: ReservationBook, sec: SecurityId) -> int:
    """Owned, unreserved share count of ``sec`` usable for constructive matching."""
    reserved = book.reserved_by_lot(sec)
    return sum(max(lot.qty - reserved.get(lot.id, 0), 0) for lot in state.lots_of(sec))


def sell_policy(state: Portfolio, book: ReservationBook, sec: SecurityId) -> LotPolicy:
    """Proposed-regime matching for an outright sale: skip reserved shares.

    Only reserved lots get a cap, so the walk ends at the last of them.
    """
    reserved = book.reserved_by_lot(sec)
    if not reserved:
        return Fifo()
    caps = []
    for lot in state.lots_of(sec):
        if lot.id in reserved:
            caps.append((lot.id, max(lot.qty - reserved.pop(lot.id), 0)))
            if not reserved:
                break
    return Fifo(caps=tuple(caps))


def _constructive_cover_split(
    state: Portfolio, book: ReservationBook, sec: SecurityId, qty: int
) -> int:
    """How many of the next ``qty`` covered shares were constructively sold.

    Mirrors the ledger's first-in first-out cover order over sold positions.
    """
    constructive = book.constructive_map()
    covered = book.covered_map()
    remaining = qty
    total = 0
    for pos in state.borrows_of(sec):
        if pos.qty_sold_uncovered == 0:
            continue
        amount = min(remaining, pos.qty_sold_uncovered)
        v = covered.get(pos.id, 0)
        c = constructive.get(pos.id, 0)
        total += max(0, min(c, v + amount) - v)
        remaining -= amount
        if remaining == 0:
            break
    return total


def cover_policy(
    state: Portfolio, book: ReservationBook, sec: SecurityId, qty: int
) -> LotPolicy:
    """Proposed-regime matching for a cover-by-owned-lot.

    Delivers the reserved (deemed-disposed) shares first, oldest reservation
    first, up to the constructive portion of the shorts being covered; any
    remainder comes from unreserved shares matched first-in first-out.
    """
    constructive_qty = _constructive_cover_split(state, book, sec, qty)
    plan: list[tuple[int, int]] = []
    remaining_reserved = constructive_qty
    for entry in book.entries:
        if remaining_reserved == 0:
            break
        if entry.sec != sec:
            continue
        amount = min(entry.qty, remaining_reserved)
        plan.append((entry.lot_id, amount))
        remaining_reserved -= amount
    if remaining_reserved > 0:
        raise ReservationMismatch(
            f"constructive cover of {constructive_qty} {sec} exceeds reserved shares"
        )

    reserved = book.reserved_by_lot(sec)
    remaining_open = qty - constructive_qty
    for lot in state.lots_of(sec):
        if remaining_open == 0:
            break
        available = max(lot.qty - reserved.get(lot.id, 0), 0)
        amount = min(remaining_open, available)
        if amount > 0:
            plan.append((lot.id, amount))
            remaining_open -= amount
    if remaining_open > 0:
        raise InsufficientOwnedShares(
            f"cover needs {qty} owned shares of {sec}; "
            f"only {qty - remaining_open} deliverable"
        )
    return Plan(tuple(plan))


def _advance_cover_book(
    book: ReservationBook, effects: LedgerEffects
) -> tuple[ReservationBook, int]:
    """Record covered short slices, returning the constructive quantity covered."""
    constructive = book.constructive_map()
    covered = book.covered_map()
    total_constructive = 0
    for s in effects.shorts_covered:
        v = covered.get(s.position_id, 0)
        c = constructive.get(s.position_id, 0)
        total_constructive += max(0, min(c, v + s.qty) - v)
        covered[s.position_id] = v + s.qty
    # Drop exhausted pairs so the book does not grow without bound.
    for pos_id in list(constructive):
        if covered.get(pos_id, 0) >= constructive[pos_id]:
            del constructive[pos_id]
            covered.pop(pos_id, None)
    new_book = replace(
        book,
        constructive=tuple(sorted(constructive.items())),
        covered=tuple(sorted((k, v) for k, v in covered.items() if k in constructive)),
    )
    return new_book, total_constructive


def _release_entries(book: ReservationBook, sec: SecurityId, qty: int) -> ReservationBook:
    """Remove ``qty`` reserved shares of ``sec``, oldest entries first."""
    remaining = qty
    new_entries: list[ConstructiveReservation] = []
    for entry in book.entries:
        if remaining == 0 or entry.sec != sec:
            new_entries.append(entry)
            continue
        take = min(entry.qty, remaining)
        remaining -= take
        if entry.qty - take > 0:
            new_entries.append(replace(entry, qty=entry.qty - take))
    if remaining > 0:
        raise ReservationMismatch(f"attempted to release {qty} reserved shares; book is short")
    return replace(book, entries=tuple(new_entries))


def _priced(effects: LedgerEffects) -> tuple[Money, SecurityId]:
    """The price and security of a sale or cover; hand-built effects may lack them."""
    if effects.price is None or effects.sec is None:
        raise InvariantViolation(
            f"{type(effects.event).__name__} effects carry no price or security"
        )
    return effects.price, effects.sec


def realize(
    effects: LedgerEffects,
    regime: Regime,
    book: ReservationBook,
) -> tuple[list[RealizationEvent], ReservationBook]:
    """Produce the realization events for one applied transaction event.

    Returns the events in deterministic order together with the updated
    constructive-sale book (unchanged under the current regime).
    """
    ev = effects.event

    if isinstance(ev, (Buy, Borrow, Death)):
        return [], book

    if isinstance(ev, SellOwned):
        price, sec = _priced(effects)
        if regime is Regime.PROPOSED:
            reserved = book.reserved_by_lot(sec)
            for s in effects.lots_consumed:
                if s.qty > s.qty_before - reserved.get(s.lot_id, 0):
                    raise InsufficientOwnedShares(
                        f"sale consumes {s.qty} shares of lot {s.lot_id}; "
                        f"{reserved.get(s.lot_id, 0)} of {s.qty_before} are "
                        "reserved by a constructive sale"
                    )
        events = [
            RealizationEvent(
                at=effects.at,
                kind=RealizationKind.ORDINARY_SALE,
                sec=sec,
                qty=s.qty,
                amount_realized_per_share=price,
                basis_per_share=s.basis_per_share,
            )
            for s in effects.lots_consumed
        ]
        return events, book

    if isinstance(ev, ShortSell):
        if regime is Regime.CURRENT:
            # Receipt of the proceeds without realization.
            return [], book
        price, sec = _priced(effects)
        reserved = book.reserved_by_lot(sec)
        remaining = effects.qty
        events = []
        new_entries = list(book.entries)
        constructive = book.constructive_map()
        reserved_total = 0
        for lot in effects.owned_lots:
            if remaining == 0:
                break
            available = max(lot.qty - reserved.get(lot.id, 0), 0)
            amount = min(remaining, available)
            if amount == 0:
                continue
            events.append(
                RealizationEvent(
                    at=effects.at,
                    kind=RealizationKind.CONSTRUCTIVE_SALE,
                    sec=sec,
                    qty=amount,
                    amount_realized_per_share=price,
                    basis_per_share=lot.basis_per_share,
                )
            )
            new_entries.append(ConstructiveReservation(lot.id, amount, effects.at, sec))
            reserved_total += amount
            remaining -= amount
        # Tag the first reserved_total sold shares as the constructive side,
        # walking the sold slices in ledger order.
        to_tag = reserved_total
        for s in effects.shorts_sold:
            if to_tag == 0:
                break
            tag = min(to_tag, s.qty)
            constructive[s.position_id] = constructive.get(s.position_id, 0) + tag
            to_tag -= tag
        new_book = replace(
            book,
            entries=tuple(new_entries),
            constructive=tuple(sorted(constructive.items())),
        )
        return events, new_book

    if isinstance(ev, CoverByPurchase):
        price, sec = _priced(effects)
        events = [
            RealizationEvent(
                at=effects.at,
                kind=RealizationKind.SHORT_COVER,
                sec=sec,
                qty=s.qty,
                amount_realized_per_share=s.proceeds_per_share,
                basis_per_share=price,
            )
            for s in effects.shorts_covered
        ]
        if regime is Regime.PROPOSED:
            # The owned lot stays; release its deemed-disposed status for the
            # constructive portion of the shorts just covered.
            book, constructive_qty = _advance_cover_book(book, effects)
            if constructive_qty > 0:
                book = _release_entries(book, sec, constructive_qty)
        return events, book

    if isinstance(ev, CoverByOwnedLot):
        price, sec = _priced(effects)
        events = [
            RealizationEvent(
                at=effects.at,
                kind=RealizationKind.SHORT_COVER,
                sec=sec,
                qty=s.qty,
                amount_realized_per_share=s.proceeds_per_share,
                basis_per_share=price,
            )
            for s in effects.shorts_covered
        ]
        if regime is Regime.CURRENT:
            # Two realization events: the owned shares are deemed sold at the
            # price it would cost to replace the borrowed shares.
            disposals = [
                RealizationEvent(
                    at=effects.at,
                    kind=RealizationKind.OWNED_DISPOSAL_AT_COVER,
                    sec=sec,
                    qty=s.qty,
                    amount_realized_per_share=price,
                    basis_per_share=s.basis_per_share,
                )
                for s in effects.lots_consumed
            ]
            return disposals + events, book

        book, constructive_qty = _advance_cover_book(book, effects)
        # The first constructive_qty delivered shares must be the reserved
        # ones, oldest reservation first; their disposal already happened at
        # the short-sale tick, so no owned-side event is emitted for them.
        remaining_reserved = constructive_qty
        new_entries: list[ConstructiveReservation] = []
        slice_iter = iter(effects.lots_consumed)
        current = next(slice_iter, None)
        offset = 0
        disposals = []
        for entry in book.entries:
            if remaining_reserved == 0 or entry.sec != sec:
                new_entries.append(entry)
                continue
            need = min(entry.qty, remaining_reserved)
            while need > 0:
                if current is None:
                    raise ReservationMismatch(
                        "cover delivered fewer shares than the constructive portion"
                    )
                chunk = min(need, current.qty - offset)
                if current.lot_id != entry.lot_id:
                    raise ReservationMismatch(
                        f"cover delivered shares of lot {current.lot_id} against a "
                        f"reservation on lot {entry.lot_id}"
                    )
                need -= chunk
                remaining_reserved -= chunk
                entry = replace(entry, qty=entry.qty - chunk)
                offset += chunk
                if offset == current.qty:
                    current = next(slice_iter, None)
                    offset = 0
            if entry.qty > 0:
                new_entries.append(entry)
        if remaining_reserved > 0:
            raise ReservationMismatch(
                f"constructive cover of {constructive_qty} shares exceeds reserved entries"
            )
        # Whatever remains of the delivered slices was never reserved and
        # follows the current rule for the owned side.
        while current is not None:
            qty_left = current.qty - offset
            if qty_left > 0:
                disposals.append(
                    RealizationEvent(
                        at=effects.at,
                        kind=RealizationKind.OWNED_DISPOSAL_AT_COVER,
                        sec=sec,
                        qty=qty_left,
                        amount_realized_per_share=price,
                        basis_per_share=current.basis_per_share,
                    )
                )
            current = next(slice_iter, None)
            offset = 0
        book = replace(book, entries=tuple(new_entries))
        return disposals + events, book

    raise TypeError(f"unknown transaction event {ev!r}")  # pragma: no cover
