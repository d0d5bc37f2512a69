"""Event-sourced portfolio: owned lots, borrow positions, cash.

The ledger applies transaction events in scenario order and reports exactly
what moved through a ``LedgerEffects`` record: lots consumed with their bases,
borrow positions opened or covered, market prices used, and the cash delta.
Tax treatment lives entirely downstream; the ledger knows nothing about
realization regimes, which is what makes cash flow regime-invariant by
construction.

A run keeps its portfolio in a ``Ledger``: mutable, private to that run, and
organised per security as a first-in first-out queue of lots and a list of
borrow positions.  An event reads and changes only its own security, and lot
matching stops at the last lot it needs, so the cost of an event does not
grow with the rest of the portfolio.  ``PortfolioState`` is the frozen
snapshot of a ledger; ``apply_event``, ``step_up`` and ``match_lots`` accept
either, and never change a snapshot.

Two inventories are kept deliberately separate.  Owned lots carry purchase or
inheritance basis.  Borrowed shares, although title passes to the borrower the
moment they are lent (SEC securities borrowing rules treat the "loan" as a
transfer of title), are tracked as ``BorrowPosition`` records and are never
matched as owned shares: the downstream constructive-sale trigger must see
only shares the taxpayer owned outright, and the two-realization-event
accounting of a cover-by-owned-lot needs the distinction.

A borrow position is always either fully unsold or fully sold short; a short
sale that partially fills a position splits it so that every sold position
has a single proceeds price.  Covers consume sold positions first-in
first-out and are only permitted against shares actually sold short:
returning borrowed-but-never-sold shares has no defined tax meaning here and
raises ``OverCover``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, ValuesView
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Union

from .errors import (
    InsufficientOwnedShares,
    InvalidQuantity,
    InvariantViolation,
    NoOpenBorrow,
    OverCover,
    UnknownLotId,
)
from .market import _ZERO, Money, PricePath, SecurityId, Tick, record


class AcquisitionMethod(Enum):
    PURCHASE = "purchase"
    INHERITANCE = "inheritance"


@record
class Lot:
    """An owned parcel of identical shares with a single per-share basis."""

    id: int
    sec: SecurityId
    qty: int
    basis_per_share: Money
    acquired_at: Tick
    method: AcquisitionMethod = AcquisitionMethod.PURCHASE


@record
class BorrowPosition:
    """An open securities-borrowing obligation.

    ``qty_outstanding`` is what is still owed to the lender.  Once sold short
    the position records the proceeds price; realization of the short-sale
    gain or loss is deferred to the cover under the existing rule.
    """

    id: int
    sec: SecurityId
    qty_borrowed: int
    borrowed_at: Tick
    qty_sold_short: int = 0
    short_proceeds_per_share: Money | None = None
    sold_at: Tick | None = None
    qty_covered: int = 0

    @property
    def qty_outstanding(self) -> int:
        return self.qty_borrowed - self.qty_covered

    @property
    def qty_unsold(self) -> int:
        return self.qty_borrowed - self.qty_sold_short

    @property
    def qty_sold_uncovered(self) -> int:
        return self.qty_sold_short - self.qty_covered


@record
class _Trade:
    """A dated trade of ``qty`` shares of one security; the quantity must be positive."""

    at: Tick
    sec: SecurityId
    qty: int

    def __post_init__(self) -> None:
        if self.qty <= 0:
            raise InvalidQuantity(f"quantity must be positive, got {self.qty}")


class Buy(_Trade):
    __slots__ = ()


class Borrow(_Trade):
    __slots__ = ()


class ShortSell(_Trade):
    __slots__ = ()


class SellOwned(_Trade):
    __slots__ = ()


class CoverByPurchase(_Trade):
    __slots__ = ()


class CoverByOwnedLot(_Trade):
    __slots__ = ()


@dataclass(frozen=True)
class Death:
    """Transmission of the whole portfolio to a single heir, with basis step-up."""

    at: Tick
    heir: str | None = None


TransactionEvent = Union[Buy, Borrow, ShortSell, SellOwned, CoverByPurchase, CoverByOwnedLot, Death]


@dataclass(frozen=True)
class Fifo:
    """Match lots first-in first-out, optionally capping the take per lot."""

    caps: tuple[tuple[int, int], ...] | None = None  # (lot id, max take)


@dataclass(frozen=True)
class SpecificId:
    """Match the named lots, in the given order, filling each before the next."""

    ids: tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """Match an explicit (lot id, qty) schedule.  Internal plumbing for the runner."""

    slices: tuple[tuple[int, int], ...]


LotPolicy = Union[Fifo, SpecificId, Plan]

_FIFO = Fifo()  # frozen, so one instance serves every plain first-in first-out match


@record
class LotSlice:
    """A quantity taken from one lot, with the basis it carried."""

    lot_id: int
    qty: int
    basis_per_share: Money
    acquired_at: Tick
    method: AcquisitionMethod
    qty_before: int


@record
class ShortSlice:
    """A quantity of one borrow position sold short or covered."""

    position_id: int
    qty: int
    proceeds_per_share: Money
    sold_at: Tick


@record
class LedgerEffects:
    """What one applied event moved.  The realization module consumes this."""

    event: TransactionEvent
    at: Tick
    sec: SecurityId | None
    qty: int
    price: Money | None
    cash_delta: Money
    lot_created: Lot | None = None
    borrow_opened: BorrowPosition | None = None
    lots_consumed: tuple[LotSlice, ...] = ()
    shorts_sold: tuple[ShortSlice, ...] = ()
    shorts_covered: tuple[ShortSlice, ...] = ()
    owned_lots: tuple[Lot, ...] = ()  # snapshot at a short sale, for the trigger check


class _Holdings:
    """Per-security share counts, read through ``lots_of`` and ``borrows_of``."""

    def owned_qty(self, sec: SecurityId) -> int:
        return sum(lot.qty for lot in self.lots_of(sec))

    def borrowed_unsold_qty(self, sec: SecurityId) -> int:
        return sum(p.qty_unsold for p in self.borrows_of(sec))

    def sold_uncovered_qty(self, sec: SecurityId) -> int:
        return sum(p.qty_sold_uncovered for p in self.borrows_of(sec))

    def outstanding_qty(self, sec: SecurityId) -> int:
        return sum(p.qty_outstanding for p in self.borrows_of(sec))


@dataclass(frozen=True)
class PortfolioState(_Holdings):
    """Frozen portfolio snapshot: lots in lot-id order, borrows grouped by security."""

    lots: tuple[Lot, ...] = ()
    borrows: tuple[BorrowPosition, ...] = ()
    cash: Money = field(default_factory=Money.zero)
    owner_generation: int = 0
    next_lot_id: int = 0
    next_borrow_id: int = 0

    def lots_of(self, sec: SecurityId) -> tuple[Lot, ...]:
        return tuple(lot for lot in self.lots if lot.sec == sec)

    def borrows_of(self, sec: SecurityId) -> tuple[BorrowPosition, ...]:
        return tuple(p for p in self.borrows if p.sec == sec)


def _slice(lot: Lot, qty: int, qty_before: int) -> LotSlice:
    return LotSlice(lot.id, qty, lot.basis_per_share, lot.acquired_at, lot.method, qty_before)


def _fill(
    positions: list[BorrowPosition], qty: int, available: Callable[[BorrowPosition], int]
) -> tuple[list[tuple[int, int]], int]:
    """(index, amount) pairs taking up to ``qty`` from the first positions, and the total."""
    plan = []
    remaining = qty
    for i, pos in enumerate(positions):
        amount = min(remaining, available(pos))
        if amount > 0:
            plan.append((i, amount))
            remaining -= amount
            if remaining == 0:
                break
    return plan, qty - remaining


class Ledger(_Holdings):
    """The mutable portfolio of one run, kept per security.

    Each security has a first-in first-out queue of lots and a list of borrow
    positions in cover order, so an event touches only its own security.  An
    index of every open lot by id, in lot-id order, serves ``lots`` and
    lot-id matching.  ``lots_of`` and ``borrows_of`` return the live
    containers: read them, never change them.
    """

    def __init__(self, state: PortfolioState | None = None) -> None:
        state = state or PortfolioState()
        self._by_id: dict[int, Lot] = {}
        self._lots: dict[SecurityId, deque[Lot]] = {}
        self._borrows: dict[SecurityId, list[BorrowPosition]] = {}
        for lot in state.lots:
            self._add_lot(lot)
        for pos in state.borrows:
            self._borrows.setdefault(pos.sec, []).append(pos)
        self.cash = state.cash
        self.owner_generation = state.owner_generation
        self.next_lot_id = state.next_lot_id
        self.next_borrow_id = state.next_borrow_id

    @property
    def lots(self) -> ValuesView[Lot]:
        """Every open lot in lot-id order; its length costs nothing."""
        return self._by_id.values()

    @property
    def borrows(self) -> tuple[BorrowPosition, ...]:
        return tuple(chain.from_iterable(self._borrows.values()))

    def lots_of(self, sec: SecurityId) -> deque[Lot] | tuple[()]:
        return self._lots.get(sec, ())

    def borrows_of(self, sec: SecurityId) -> list[BorrowPosition] | tuple[()]:
        return self._borrows.get(sec, ())

    def securities(self) -> set[SecurityId]:
        return self._lots.keys() | self._borrows.keys()

    def snapshot(self) -> PortfolioState:
        return PortfolioState(
            tuple(self._by_id.values()), self.borrows, self.cash,
            self.owner_generation, self.next_lot_id, self.next_borrow_id,
        )

    def _add_lot(self, lot: Lot) -> None:
        self._by_id[lot.id] = lot
        self._lots.setdefault(lot.sec, deque()).append(lot)

    def _owned(self, lot_id: int, sec: SecurityId) -> Lot:
        lot = self._by_id.get(lot_id)
        if lot is None or lot.sec != sec:
            raise UnknownLotId(f"no owned lot {lot_id} of {sec}")
        return lot

    def match(self, sec: SecurityId, qty: int, policy: LotPolicy = _FIFO) -> list[LotSlice]:
        """Owned-lot slices totalling ``qty``; walks no further than it takes."""
        if qty <= 0:
            raise InvalidQuantity(f"quantity must be positive, got {qty}")
        slices: list[LotSlice] = []
        remaining = qty
        if isinstance(policy, Fifo):
            caps = policy.caps and dict(policy.caps)
            for lot in self.lots_of(sec):
                amount = lot.qty if lot.qty < remaining else remaining
                if caps:
                    amount = min(amount, caps.get(lot.id, amount))
                if amount > 0:
                    slices.append(_slice(lot, amount, lot.qty))
                    remaining -= amount
                    if remaining == 0:
                        break
        elif isinstance(policy, SpecificId):
            for lot_id in policy.ids:
                lot = self._owned(lot_id, sec)
                amount = min(remaining, lot.qty)
                if amount > 0:
                    slices.append(_slice(lot, amount, lot.qty))
                    remaining -= amount
        elif isinstance(policy, Plan):
            taken: dict[int, int] = {}
            for lot_id, amount in policy.slices:
                if amount <= 0:
                    raise InvalidQuantity(f"plan slice quantity must be positive, got {amount}")
                lot = self._owned(lot_id, sec)
                already = taken.get(lot_id, 0)
                if already + amount > lot.qty:
                    raise InsufficientOwnedShares(
                        f"plan takes {already + amount} shares from lot {lot_id} holding {lot.qty}"
                    )
                slices.append(_slice(lot, amount, lot.qty - already))
                taken[lot_id] = already + amount
                remaining -= amount
            if remaining != 0:
                raise InvalidQuantity(
                    f"plan covers {qty - remaining} shares but {qty} were requested"
                )
        else:  # pragma: no cover - exhaustive over LotPolicy
            raise TypeError(f"unknown lot policy {policy!r}")

        if remaining > 0:
            raise InsufficientOwnedShares(
                f"need {qty} shares of {sec}, only {qty - remaining} available"
            )
        return slices

    def _consume(self, sec: SecurityId, slices: list[LotSlice]) -> None:
        """Take matched shares, popping lots only up to the last one touched."""
        taken: dict[int, int] = {}
        for s in slices:
            taken[s.lot_id] = taken.get(s.lot_id, 0) + s.qty
        queue = self._lots[sec]
        kept: list[Lot] = []
        while taken:
            lot = queue.popleft()
            left = lot.qty - taken.pop(lot.id, 0)
            if left == lot.qty:
                kept.append(lot)
            elif left > 0:
                lot = Lot(lot.id, lot.sec, left, lot.basis_per_share, lot.acquired_at, lot.method)
                kept.append(lot)
                self._by_id[lot.id] = lot
            else:
                del self._by_id[lot.id]
        queue.extendleft(reversed(kept))

    def step_up(self, at: Tick, path: PricePath) -> None:
        lots = [
            Lot(lot.id, lot.sec, lot.qty, path.price_at(lot.sec, at), at, AcquisitionMethod.INHERITANCE)
            for lot in self._by_id.values()
        ]
        self._by_id, self._lots = {}, {}
        for lot in lots:
            self._add_lot(lot)
        self.owner_generation += 1

    def apply(
        self, ev: TransactionEvent, path: PricePath, lot_policy: LotPolicy | None = None
    ) -> LedgerEffects:
        """Apply one event in place.  Every check runs before anything changes."""
        if isinstance(ev, Buy):
            price = path.price_at(ev.sec, ev.at)
            lot = Lot(self.next_lot_id, ev.sec, ev.qty, price, ev.at)
            self.next_lot_id += 1
            self._add_lot(lot)
            cash_delta = -(price * ev.qty)
            self.cash += cash_delta
            return LedgerEffects(
                event=ev, at=ev.at, sec=ev.sec, qty=ev.qty, price=price,
                cash_delta=cash_delta, lot_created=lot,
            )

        if isinstance(ev, Borrow):
            pos = BorrowPosition(self.next_borrow_id, ev.sec, ev.qty, ev.at)
            self.next_borrow_id += 1
            self._borrows.setdefault(ev.sec, []).append(pos)
            return LedgerEffects(
                event=ev, at=ev.at, sec=ev.sec, qty=ev.qty, price=None,
                cash_delta=_ZERO, borrow_opened=pos,
            )

        if isinstance(ev, ShortSell):
            price = path.price_at(ev.sec, ev.at)
            positions = self._borrows.get(ev.sec, [])
            plan, unsold = _fill(positions, ev.qty, attrgetter("qty_unsold"))
            if unsold < ev.qty:
                raise NoOpenBorrow(
                    f"short sale of {ev.qty} {ev.sec} exceeds borrowed-unsold {unsold}"
                )
            slices: list[ShortSlice] = []
            shift = 0
            for i, amount in plan:
                pos = positions[i + shift]
                positions[i + shift] = BorrowPosition(
                    pos.id, pos.sec, amount, pos.borrowed_at, amount, price, ev.at, pos.qty_covered
                )
                if amount < pos.qty_borrowed:
                    # Split so every sold position carries exactly one proceeds price.
                    shift += 1
                    positions.insert(i + shift, BorrowPosition(
                        self.next_borrow_id, pos.sec, pos.qty_borrowed - amount, pos.borrowed_at
                    ))
                    self.next_borrow_id += 1
                slices.append(ShortSlice(pos.id, amount, price, ev.at))
            cash_delta = price * ev.qty
            self.cash += cash_delta
            return LedgerEffects(
                event=ev, at=ev.at, sec=ev.sec, qty=ev.qty, price=price,
                cash_delta=cash_delta, shorts_sold=tuple(slices),
                owned_lots=tuple(self.lots_of(ev.sec)),
            )

        if isinstance(ev, SellOwned):
            price = path.price_at(ev.sec, ev.at)
            slices = self.match(ev.sec, ev.qty, lot_policy or _FIFO)
            self._consume(ev.sec, slices)
            cash_delta = price * ev.qty
            self.cash += cash_delta
            return LedgerEffects(
                event=ev, at=ev.at, sec=ev.sec, qty=ev.qty, price=price,
                cash_delta=cash_delta, lots_consumed=tuple(slices),
            )

        if isinstance(ev, (CoverByPurchase, CoverByOwnedLot)):
            price = path.price_at(ev.sec, ev.at)
            positions = self._borrows.get(ev.sec, [])
            plan, coverable = _fill(positions, ev.qty, attrgetter("qty_sold_uncovered"))
            if coverable < ev.qty:
                raise OverCover(
                    f"cover of {ev.qty} {ev.sec} exceeds open sold-short quantity {coverable}"
                )
            covered: list[ShortSlice] = []
            for i, amount in plan:
                pos = positions[i]
                if pos.short_proceeds_per_share is None or pos.sold_at is None:
                    raise InvariantViolation(f"borrow position {pos.id} is sold short without a price")
                covered.append(ShortSlice(pos.id, amount, pos.short_proceeds_per_share, pos.sold_at))
            by_purchase = isinstance(ev, CoverByPurchase)
            slices = [] if by_purchase else self.match(ev.sec, ev.qty, lot_policy or _FIFO)
            for i, amount in reversed(plan):  # back to front keeps the earlier indices valid
                pos = positions[i]
                if amount < pos.qty_outstanding:
                    positions[i] = BorrowPosition(
                        pos.id, pos.sec, pos.qty_borrowed, pos.borrowed_at, pos.qty_sold_short,
                        pos.short_proceeds_per_share, pos.sold_at, pos.qty_covered + amount,
                    )
                else:
                    del positions[i]
            if by_purchase:
                cash_delta = -(price * ev.qty)
                self.cash += cash_delta
                return LedgerEffects(
                    event=ev, at=ev.at, sec=ev.sec, qty=ev.qty, price=price,
                    cash_delta=cash_delta, shorts_covered=tuple(covered),
                )
            self._consume(ev.sec, slices)
            return LedgerEffects(
                event=ev, at=ev.at, sec=ev.sec, qty=ev.qty, price=price,
                cash_delta=_ZERO,
                lots_consumed=tuple(slices), shorts_covered=tuple(covered),
            )

        if isinstance(ev, Death):
            self.step_up(ev.at, path)
            return LedgerEffects(
                event=ev, at=ev.at, sec=None, qty=0, price=None, cash_delta=_ZERO,
            )

        raise TypeError(f"unknown transaction event {ev!r}")  # pragma: no cover


Portfolio = Union[PortfolioState, Ledger]


def _private(state: Portfolio) -> Ledger:
    return state if isinstance(state, Ledger) else Ledger(state)


def match_lots(
    state: Portfolio,
    sec: SecurityId,
    qty: int,
    policy: LotPolicy = _FIFO,
) -> list[LotSlice]:
    """Select owned-lot slices totalling ``qty`` under the matching policy.

    Pure query: the returned slices describe what a disposal would consume;
    ``apply_event`` performs the actual consumption.
    """
    return _private(state).match(sec, qty, policy)


def step_up(state: Portfolio, at: Tick, path: PricePath) -> Portfolio:
    """Transmit the portfolio to the heir with basis stepped up to the death-date price.

    Every owned lot is re-based to fair market value at the death tick and is
    thereafter an inherited holding; open borrow positions transmit unchanged,
    since the heir inherits the contractual obligation to return the shares.
    """
    ledger = _private(state)
    ledger.step_up(at, path)
    return ledger if ledger is state else ledger.snapshot()


def apply_event(
    state: Portfolio,
    ev: TransactionEvent,
    path: PricePath,
    lot_policy: LotPolicy | None = None,
) -> tuple[Portfolio, LedgerEffects]:
    """Apply one transaction event, returning the portfolio after it and its effects.

    A run's own ``Ledger`` changes in place and comes back; a
    ``PortfolioState`` is never changed, even when the event raises, and a new
    snapshot comes back.
    """
    ledger = _private(state)
    effects = ledger.apply(ev, path, lot_policy)
    return (ledger if ledger is state else ledger.snapshot()), effects
