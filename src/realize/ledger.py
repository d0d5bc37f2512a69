"""Event-sourced portfolio: owned lots, borrow positions, reservations, cash.

The ledger applies transaction events in scenario order and reports exactly
what moved through a ``LedgerEffects`` record: lots consumed with their bases,
borrow positions opened or covered, market prices used, and the cash delta.
Tax treatment lives entirely downstream; the ledger knows nothing about
realization regimes, which is what makes cash flow regime-invariant by
construction wherever both regimes accept a scenario.  An outright sale that
needs shares reserved against a short fails only under the proposed regime,
and one input can fail with different messages under the two.

A run keeps its portfolio in a ``Ledger``: mutable, private to that run, and
organised per security as a first-in first-out queue of lots and a list of
borrow positions.  An event reads and changes only its own security, and lot
matching stops at the last lot it needs, so the cost of an event does not
grow with the rest of the portfolio.  ``PortfolioState`` is the frozen
snapshot of a ledger, and can seed a new one; a ledger seeded from nothing
starts empty without building one.  Each event class has one step method,
found in one table keyed by class: a subclass of an event class resolves
through its MRO, as ``isinstance`` would, and anything else is refused with
``TypeError``.

The ledger also holds reservations: owned shares set aside against a short
sale by ``Ledger.reserve``, which the proposed regime's constructive-sale
rule calls.  Nothing else creates them, and only a short sale after a buy
of its security finds shares to reserve.  Without them every event takes
the same path under both regimes, so ``compare`` runs the proposed regime
only where such a sale occurs.  Each event decides which
owned shares it takes in the walk that applies it: an outright sale takes
the oldest unreserved shares; a cover first settles the reservations made
against the positions it covers, oldest reservation first (a cover with
owned shares delivers them, a cover by purchase frees them), and delivers
any further owned shares from the oldest unreserved ones.

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
from enum import Enum
from itertools import chain
from operator import attrgetter

from .errors import (
    InsufficientOwnedShares,
    InvalidQuantity,
    InvariantViolation,
    NoOpenBorrow,
    OverCover,
)
from .market import _ZERO, Money, PricePath, SecurityId, Tick, _money, record


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
    """A dated trade of ``qty`` shares of one security; the quantity must be a positive ``int``, not a ``bool``."""

    at: Tick
    sec: SecurityId
    qty: int

    def __post_init__(self) -> None:
        if type(self.qty) is not int and (not isinstance(self.qty, int) or isinstance(self.qty, bool)):
            raise InvalidQuantity(f"quantity must be an int, got {type(self.qty).__name__}")
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


@record
class Death:
    """Transmission of the whole portfolio to a single heir, with basis step-up."""

    at: Tick
    heir: str | None = None


TransactionEvent = Buy | Borrow | ShortSell | SellOwned | CoverByPurchase | CoverByOwnedLot | Death


@record
class LotSlice:
    """A quantity taken from one lot, with the basis it carried."""

    lot_id: int
    qty: int
    basis_per_share: Money
    acquired_at: Tick
    method: AcquisitionMethod


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
    reserved_slices: int = 0  # leading lots_consumed slices that a short sale had reserved


class _Holdings:
    """Per-security share counts, read through ``lots_of`` and ``borrows_of``."""

    __slots__ = ()

    def owned_qty(self, sec: SecurityId) -> int:
        return sum(lot.qty for lot in self.lots_of(sec))

    def borrowed_unsold_qty(self, sec: SecurityId) -> int:
        return sum(p.qty_unsold for p in self.borrows_of(sec))

    def sold_uncovered_qty(self, sec: SecurityId) -> int:
        return sum(p.qty_sold_uncovered for p in self.borrows_of(sec))

    def outstanding_qty(self, sec: SecurityId) -> int:
        return sum(p.qty_outstanding for p in self.borrows_of(sec))


@record
class PortfolioState(_Holdings):
    """Frozen portfolio snapshot: lots in lot-id order, borrows grouped by security.

    It carries no reservations: a ledger seeded from it has none.
    """

    lots: tuple[Lot, ...] = ()
    borrows: tuple[BorrowPosition, ...] = ()
    cash: Money = _ZERO
    owner_generation: int = 0
    next_lot_id: int = 0
    next_borrow_id: int = 0

    def lots_of(self, sec: SecurityId) -> tuple[Lot, ...]:
        return tuple(lot for lot in self.lots if lot.sec == sec)

    def borrows_of(self, sec: SecurityId) -> tuple[BorrowPosition, ...]:
        return tuple(p for p in self.borrows if p.sec == sec)


def _slice(lot: Lot, qty: int) -> LotSlice:
    return LotSlice(lot.id, qty, lot.basis_per_share, lot.acquired_at, lot.method)


_UNSOLD = attrgetter("qty_unsold")
_SOLD_UNCOVERED = attrgetter("qty_sold_uncovered")


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


def _shortage(sec: SecurityId, need: int, available: int) -> InsufficientOwnedShares:
    return InsufficientOwnedShares(f"need {need} shares of {sec}, only {available} available")


class Ledger(_Holdings):
    """The mutable portfolio of one run, kept per security.

    Each security has a first-in first-out queue of lots, a list of borrow
    positions in cover order and a queue of reserved (lot id, qty) slices,
    oldest first, with the reserved count per lot; an event touches only its
    own security.  Each borrow position sold short by a reserving sale
    counts how many of its uncovered shares were sold against reserved ones,
    and those count as covered before its others.  An index of every open
    lot by id, in lot-id order, serves ``lots``.  ``lots_of``, ``borrows_of``
    and ``reserved_by_lot`` return the live containers: read them, never
    change them.
    """

    def __init__(self, state: PortfolioState | None = None) -> None:
        self._by_id: dict[int, Lot] = {}
        self._lots: dict[SecurityId, deque[Lot]] = {}
        self._borrows: dict[SecurityId, list[BorrowPosition]] = {}
        self._reservations: dict[SecurityId, deque[tuple[int, int]]] = {}
        self._reserved: dict[SecurityId, dict[int, int]] = {}
        # Borrow position id -> its shares sold against reserved ones, not yet covered.
        self._constructive: dict[int, int] = {}
        if state is None:  # an empty portfolio, without building one to copy
            self._cash, self.owner_generation, self.next_lot_id, self.next_borrow_id = 0, 0, 0, 0
            return
        for lot in state.lots:
            self._add_lot(lot)
        for pos in state.borrows:
            self._borrows.setdefault(pos.sec, []).append(pos)
        self._cash = state.cash.centavos
        self.owner_generation = state.owner_generation
        self.next_lot_id = state.next_lot_id
        self.next_borrow_id = state.next_borrow_id

    @property
    def cash(self) -> Money:
        """Net cash moved so far: the sum of the applied events' ``cash_delta``."""
        return _money(self._cash)

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

    def reserved_by_lot(self, sec: SecurityId) -> dict[int, int]:
        """Reserved share count per lot id of ``sec``."""
        return self._reserved.get(sec, {})

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

    def _unreserved(self, sec: SecurityId, qty: int) -> tuple[list[LotSlice], int]:
        """Slices of the oldest unreserved shares of ``sec``, at most ``qty``; and their total.

        The walk passes over fully reserved lots and stops at the last lot it
        takes from.
        """
        if qty == 0:
            return [], 0
        reserved = self._reserved.get(sec)
        slices: list[LotSlice] = []
        remaining = qty
        for lot in self.lots_of(sec):
            free = lot.qty - reserved.get(lot.id, 0) if reserved else lot.qty
            amount = free if free < remaining else remaining
            if amount > 0:
                slices.append(_slice(lot, amount))
                remaining -= amount
                if remaining == 0:
                    break
        return slices, qty - remaining

    def _oldest_reserved(self, sec: SecurityId, qty: int) -> list[tuple[int, int]]:
        """(lot id, qty) takes of the oldest ``qty`` reserved shares of ``sec``."""
        takes = []
        for lot_id, reserved in self._reservations.get(sec, ()):
            if qty == 0:
                break
            take = reserved if reserved < qty else qty
            takes.append((lot_id, take))
            qty -= take
        return takes

    def reserve(self, effects: LedgerEffects) -> list[LotSlice]:
        """Reserve owned shares against the short sale whose ``effects`` were just applied.

        Takes the oldest unreserved shares of the security, up to the
        quantity sold short, and marks as many of the first shares sold as
        sold against them.  Returns the reserved slices.
        """
        sec = effects.sec
        slices, total = self._unreserved(sec, effects.qty)
        if not slices:
            return slices
        queue = self._reservations.setdefault(sec, deque())
        reserved = self._reserved.setdefault(sec, {})
        for s in slices:
            queue.append((s.lot_id, s.qty))
            reserved[s.lot_id] = reserved.get(s.lot_id, 0) + s.qty
        for s in effects.shorts_sold:
            mark = total if total < s.qty else s.qty
            self._constructive[s.position_id] = mark
            total -= mark
            if total == 0:
                break
        return slices

    def _release(
        self, sec: SecurityId, settled: list[tuple[int, int]], takes: list[tuple[int, int]]
    ) -> None:
        """Cover the (position id, qty) constructive shares and free the reserved ``takes``."""
        constructive = self._constructive
        for pos_id, qty in settled:
            left = constructive[pos_id] - qty
            if left:
                constructive[pos_id] = left
            else:
                del constructive[pos_id]
        queue, reserved = self._reservations[sec], self._reserved[sec]
        for lot_id, take in takes:
            if take == queue[0][1]:
                queue.popleft()
            else:
                queue[0] = (lot_id, queue[0][1] - take)
            left = reserved[lot_id] - take
            if left:
                reserved[lot_id] = left
            else:
                del reserved[lot_id]

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
        """Transmit the portfolio to the heir with basis stepped up to the death-date price.

        Every owned lot is re-based to fair market value at the death tick
        and is thereafter an inherited holding; lot ids, and so the
        reservations on them, are kept.  Open borrow positions transmit
        unchanged, since the heir inherits the obligation to return the
        shares.
        """
        lots = [
            Lot(lot.id, lot.sec, lot.qty, path.price_at(lot.sec, at), at, AcquisitionMethod.INHERITANCE)
            for lot in self._by_id.values()
        ]
        self._by_id, self._lots = {}, {}
        for lot in lots:
            self._add_lot(lot)
        self.owner_generation += 1

    def apply(self, ev: TransactionEvent, path: PricePath) -> LedgerEffects:
        """Apply one event in place.  Every check runs before anything changes."""
        return (_STEPS.get(type(ev)) or _lookup(_STEPS, ev))(self, ev, path)

    # One step per event shape, looked up in ``_STEPS`` by event class.

    def _buy(self, ev: Buy, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        lot = Lot(self.next_lot_id, ev.sec, ev.qty, price, ev.at)
        self.next_lot_id += 1
        self._add_lot(lot)
        cash = price.centavos * ev.qty
        self._cash -= cash
        return LedgerEffects(ev, ev.at, ev.sec, ev.qty, price, _money(-cash), lot)

    def _borrow(self, ev: Borrow, path: PricePath) -> LedgerEffects:
        pos = BorrowPosition(self.next_borrow_id, ev.sec, ev.qty, ev.at)
        self.next_borrow_id += 1
        self._borrows.setdefault(ev.sec, []).append(pos)
        return LedgerEffects(ev, ev.at, ev.sec, ev.qty, None, _ZERO, None, pos)

    def _short_sell(self, ev: ShortSell, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        positions = self._borrows.get(ev.sec, [])
        plan, unsold = _fill(positions, ev.qty, _UNSOLD)
        if unsold < ev.qty:
            raise NoOpenBorrow(f"short sale of {ev.qty} {ev.sec} exceeds borrowed-unsold {unsold}")
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
        cash = price.centavos * ev.qty
        self._cash += cash
        return LedgerEffects(ev, ev.at, ev.sec, ev.qty, price, _money(cash), None, None, (), tuple(slices))

    def _sell(self, ev: SellOwned, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        lot_slices, available = self._unreserved(ev.sec, ev.qty)
        if available < ev.qty:
            raise _shortage(ev.sec, ev.qty, available)
        self._consume(ev.sec, lot_slices)
        cash = price.centavos * ev.qty
        self._cash += cash
        return LedgerEffects(ev, ev.at, ev.sec, ev.qty, price, _money(cash), None, None, tuple(lot_slices))

    def _cover(self, ev: CoverByPurchase | CoverByOwnedLot, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        positions = self._borrows.get(ev.sec, [])
        plan, coverable = _fill(positions, ev.qty, _SOLD_UNCOVERED)
        if coverable < ev.qty:
            raise OverCover(f"cover of {ev.qty} {ev.sec} exceeds open sold-short quantity {coverable}")
        covered: list[ShortSlice] = []
        settled: list[tuple[int, int]] = []  # (position id, constructive shares covered)
        reserved_qty = 0
        for i, amount in plan:
            pos = positions[i]
            if pos.short_proceeds_per_share is None or pos.sold_at is None:
                raise InvariantViolation(f"borrow position {pos.id} is sold short without a price")
            covered.append(ShortSlice(pos.id, amount, pos.short_proceeds_per_share, pos.sold_at))
            constructive = self._constructive.get(pos.id)
            if constructive:
                constructive = min(constructive, amount)
                settled.append((pos.id, constructive))
                reserved_qty += constructive
        # Each constructive share covered frees, or delivers, the oldest reserved share.
        takes = self._oldest_reserved(ev.sec, reserved_qty)
        by_purchase = isinstance(ev, CoverByPurchase)  # a subclass covers as its base does
        lot_slices = []
        if not by_purchase:
            free, available = self._unreserved(ev.sec, ev.qty - reserved_qty)
            if available < ev.qty - reserved_qty:
                raise _shortage(ev.sec, ev.qty, reserved_qty + available)
            lot_slices = [_slice(self._by_id[lot_id], take) for lot_id, take in takes] + free
        for i, amount in reversed(plan):  # back to front keeps the earlier indices valid
            pos = positions[i]
            if amount < pos.qty_outstanding:
                positions[i] = BorrowPosition(
                    pos.id, pos.sec, pos.qty_borrowed, pos.borrowed_at, pos.qty_sold_short,
                    pos.short_proceeds_per_share, pos.sold_at, pos.qty_covered + amount,
                )
            else:
                del positions[i]
        if settled:
            self._release(ev.sec, settled, takes)
        if by_purchase:
            cash = price.centavos * ev.qty
            self._cash -= cash
            return LedgerEffects(
                ev, ev.at, ev.sec, ev.qty, price, _money(-cash), None, None, (), (), tuple(covered)
            )
        self._consume(ev.sec, lot_slices)
        return LedgerEffects(
            ev, ev.at, ev.sec, ev.qty, price, _ZERO, None, None,
            tuple(lot_slices), (), tuple(covered), len(takes),
        )

    def _death(self, ev: Death, path: PricePath) -> LedgerEffects:
        self.step_up(ev.at, path)
        return LedgerEffects(ev, ev.at, None, 0, None, _ZERO)


_STEPS: dict[type, Callable[[Ledger, TransactionEvent, PricePath], LedgerEffects]] = {
    Buy: Ledger._buy,
    Borrow: Ledger._borrow,
    ShortSell: Ledger._short_sell,
    SellOwned: Ledger._sell,
    CoverByPurchase: Ledger._cover,
    CoverByOwnedLot: Ledger._cover,
    Death: Ledger._death,
}


def _lookup(table: dict[type, Callable], ev: object) -> Callable:
    """The entry of ``table`` for the nearest class of ``ev`` in its MRO, as ``isinstance`` would pick.

    Callers try ``table.get(type(ev))`` first; only a subclass of an event
    class, or a non-event, gets here.
    """
    for cls in type(ev).__mro__:
        if cls in table:
            return table[cls]
    raise TypeError(f"unknown transaction event {ev!r}")


def apply_event(
    ledger: Ledger, ev: TransactionEvent, path: PricePath
) -> tuple[Ledger, LedgerEffects]:
    """Apply one transaction event to a run's ledger, in place.

    Returns the ledger with the event's effects.  An event that raises
    leaves the ledger as it was.
    """
    return ledger, (_STEPS.get(type(ev)) or _lookup(_STEPS, ev))(ledger, ev, path)
