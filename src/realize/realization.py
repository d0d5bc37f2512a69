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

The proposed regime's state lives in a ``ReservationBook``: mutable, private
to one run like the ledger, and kept per security, so a short sale or cover
reads and changes only its own security's reservations.  ``realize`` updates
the book in place after all its checks pass; the lot policies
(``sell_policy``, ``cover_policy``) and ``trigger_check`` only read it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain

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
    ShortSlice,
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


@dataclass(frozen=True, slots=True)
class ConstructiveReservation:
    """Shares of one lot deemed disposed by a constructive sale."""

    lot_id: int
    qty: int
    reserved_at: Tick
    sec: SecurityId


class ReservationBook:
    """Constructive-sale bookkeeping of one run: mutable, and private to that run.

    Per security the book keeps a queue of reserved lot slices, oldest first,
    and the reserved share count per lot id; releases and deliveries take
    from the head of the queue.  One map gives, per borrow position, how many
    of its sold shares were the constructive side of a trigger and are not
    yet covered; a position's constructive shares count as covered before
    its other shares.  ``realize`` changes the book in place, and only after
    every check has passed, so a call that raises leaves it as it was.
    """

    __slots__ = ("_queues", "_reserved", "_constructive")

    def __init__(self) -> None:
        self._queues: dict[SecurityId, deque[ConstructiveReservation]] = {}
        self._reserved: dict[SecurityId, dict[int, int]] = {}
        self._constructive: dict[int, int] = {}  # borrow position id -> qty not yet covered

    @property
    def entries(self) -> tuple[ConstructiveReservation, ...]:
        """Every reserved slice, oldest first within a security."""
        return tuple(chain.from_iterable(self._queues.values()))

    def reserved_by_lot(self, sec: SecurityId) -> dict[int, int]:
        """Reserved share count per lot id of ``sec``: the live dict, read it, never change it."""
        return self._reserved.get(sec, {})

    def _of(self, sec: SecurityId) -> tuple[deque[ConstructiveReservation], dict[int, int]]:
        """The reservation queue and per-lot counts of ``sec``, made on first use."""
        queue = self._queues.get(sec)
        if queue is None:
            queue = self._queues[sec] = deque()
            self._reserved[sec] = {}
        return queue, self._reserved[sec]

    def _oldest(self, sec: SecurityId, qty: int) -> tuple[list[tuple[int, int]], int]:
        """(lot id, qty) takes of the oldest ``qty`` reserved shares of ``sec``; the shortfall."""
        takes = []
        for entry in self._queues.get(sec, ()):
            if qty == 0:
                break
            take = entry.qty if entry.qty < qty else qty
            takes.append((entry.lot_id, take))
            qty -= take
        return takes, qty

    def _plan_cover(
        self, sec: SecurityId, shorts: tuple[ShortSlice, ...]
    ) -> tuple[list[tuple[int, int]], int, list[tuple[int, int]], int]:
        """What covering ``shorts`` takes from the book, changing nothing.

        Returns the (position id, qty) constructive shares covered, their
        total, the (lot id, qty) takes of the oldest reserved shares that
        total needs, and the part of it the reservations cannot supply.
        Constructive shares of a position are covered before its others.
        """
        constructive = self._constructive
        covered = []
        total = 0
        for s in shorts:
            c = constructive.get(s.position_id)
            if c:
                qty = c if c < s.qty else s.qty
                covered.append((s.position_id, qty))
                total += qty
        return (covered, total, *self._oldest(sec, total))

    def _settle(
        self, sec: SecurityId, covered: list[tuple[int, int]], takes: list[tuple[int, int]]
    ) -> None:
        """Apply a cover planned by ``_plan_cover``."""
        constructive = self._constructive
        for pos_id, qty in covered:
            left = constructive[pos_id] - qty
            if left:
                constructive[pos_id] = left
            else:
                del constructive[pos_id]
        queue, reserved = self._queues[sec], self._reserved[sec]
        for lot_id, take in takes:
            head = queue[0]
            if take == head.qty:
                queue.popleft()
            else:
                queue[0] = ConstructiveReservation(lot_id, head.qty - take, head.reserved_at, sec)
            left = reserved[lot_id] - take
            if left:
                reserved[lot_id] = left
            else:
                del reserved[lot_id]


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
            caps.append((lot.id, max(lot.qty - reserved[lot.id], 0)))
            if len(caps) == len(reserved):
                break
    return Fifo(caps=tuple(caps))


def _constructive_cover_split(
    state: Portfolio, book: ReservationBook, sec: SecurityId, qty: int
) -> int:
    """How many of the next ``qty`` covered shares were constructively sold.

    Mirrors the ledger's first-in first-out cover order over sold positions.
    """
    constructive = book._constructive
    if not constructive:
        return 0
    remaining = qty
    total = 0
    for pos in state.borrows_of(sec):
        uncovered = pos.qty_sold_uncovered
        if uncovered == 0:
            continue
        amount = min(remaining, uncovered)
        total += min(constructive.get(pos.id, 0), amount)
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
    plan, short = book._oldest(sec, constructive_qty)
    if short:
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


def _priced(effects: LedgerEffects) -> tuple[Money, SecurityId]:
    """The price and security of a sale or cover; hand-built effects may lack them."""
    if effects.price is None or effects.sec is None:
        raise InvariantViolation(
            f"{type(effects.event).__name__} effects carry no price or security"
        )
    return effects.price, effects.sec


def _owned_disposals(
    effects: LedgerEffects, price: Money, sec: SecurityId, takes: list[tuple[int, int]]
) -> list[RealizationEvent]:
    """Owned-side events of a cover-by-owned-lot whose first delivered shares fill ``takes``.

    The reserved shares must be delivered first, oldest reservation first.
    Their disposal already happened at the short-sale tick, so only the rest
    of the delivered slices, never reserved, follows the current rule.
    """
    slices = effects.lots_consumed
    i = offset = 0
    for lot_id, need in takes:
        while need:
            if i == len(slices):
                raise ReservationMismatch(
                    "cover delivered fewer shares than the constructive portion"
                )
            s = slices[i]
            if s.lot_id != lot_id:
                raise ReservationMismatch(
                    f"cover delivered shares of lot {s.lot_id} against a "
                    f"reservation on lot {lot_id}"
                )
            chunk = min(need, s.qty - offset)
            need -= chunk
            offset += chunk
            if offset == s.qty:
                i += 1
                offset = 0
    disposals = []
    for s in slices[i:]:
        disposals.append(RealizationEvent(
            effects.at, RealizationKind.OWNED_DISPOSAL_AT_COVER, sec,
            s.qty - offset, price, s.basis_per_share,
        ))
        offset = 0
    return disposals


def realize(
    effects: LedgerEffects,
    regime: Regime,
    book: ReservationBook,
) -> tuple[list[RealizationEvent], ReservationBook]:
    """Produce the realization events for one applied transaction event.

    Returns the events in deterministic order together with ``book``, which
    a short sale or cover under the proposed regime updates in place.  Every
    check runs before the book changes, so a call that raises leaves it as
    it was.
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
                effects.at, RealizationKind.ORDINARY_SALE, sec, s.qty, price, s.basis_per_share
            )
            for s in effects.lots_consumed
        ]
        return events, book

    if isinstance(ev, ShortSell):
        if regime is Regime.CURRENT:
            # Receipt of the proceeds without realization.
            return [], book
        price, sec = _priced(effects)
        at = effects.at
        queue, reserved = book._of(sec)
        remaining = effects.qty
        events = []
        for lot in effects.owned_lots:
            amount = lot.qty - reserved.get(lot.id, 0)
            if amount > remaining:
                amount = remaining
            if amount > 0:
                events.append(RealizationEvent(
                    at, RealizationKind.CONSTRUCTIVE_SALE, sec, amount, price, lot.basis_per_share
                ))
                queue.append(ConstructiveReservation(lot.id, amount, at, sec))
                reserved[lot.id] = reserved.get(lot.id, 0) + amount
                remaining -= amount
                if remaining == 0:
                    break
        # Tag the first reserved shares sold as the constructive side,
        # walking the sold slices in ledger order.
        to_tag = effects.qty - remaining
        constructive = book._constructive
        for s in effects.shorts_sold:
            if to_tag == 0:
                break
            tag = to_tag if to_tag < s.qty else s.qty
            constructive[s.position_id] = constructive.get(s.position_id, 0) + tag
            to_tag -= tag
        return events, book

    if isinstance(ev, (CoverByPurchase, CoverByOwnedLot)):
        price, sec = _priced(effects)
        covered, constructive_qty, takes, short = (
            book._plan_cover(sec, effects.shorts_covered) if regime is Regime.PROPOSED
            else ([], 0, [], 0)
        )
        if isinstance(ev, CoverByPurchase):
            # The owned lot stays; its deemed-disposed status is released
            # for the constructive portion of the shorts just covered.
            if short:
                raise ReservationMismatch(
                    f"attempted to release {constructive_qty} reserved shares; book is short"
                )
            disposals = []
        else:
            # Under the current rule (no takes) every delivered share is
            # deemed sold at the price of replacing the borrowed shares.
            disposals = _owned_disposals(effects, price, sec, takes)
            if short:
                raise ReservationMismatch(
                    f"constructive cover of {constructive_qty} shares exceeds reserved entries"
                )
        if covered:
            book._settle(sec, covered, takes)
        return disposals + [
            RealizationEvent(
                effects.at, RealizationKind.SHORT_COVER, sec, s.qty, s.proceeds_per_share, price
            )
            for s in effects.shorts_covered
        ], book

    raise TypeError(f"unknown transaction event {ev!r}")  # pragma: no cover
