"""Event-sourced portfolio: owned lots, borrow positions, reservations.

The ledger applies transaction events in scenario order and reports exactly
what moved through a ``LedgerEffects`` record: the event, the market price
used, the cash moved in int centavos, the lots consumed and the shares
reserved or released as (lot, qty) pairs, and the borrow positions sold short
or covered as (position, qty) pairs.  The pairs hold the ledger's own frozen
records, so reporting a move copies nothing.  The ledger keeps no cash
tally: ``run`` folds each step's ``cash_centavos``.  Tax treatment lives
downstream; a reserving ledger only sets owned shares aside, and no cash
amount depends on that, so cash flow is regime-invariant by construction
wherever both regimes accept a scenario.  An outright sale that needs
reserved shares fails only on a reserving ledger, and one input can fail
with different messages on the two.

A run keeps its portfolio in a ``Ledger``: mutable, private to that run, and
organised per security as a first-in first-out queue of lots and two of
borrow positions.  An event reads and changes only its own security, and lot
and position matching stop at the last one they need, so the cost of an
event does not grow with the rest of the portfolio.  A ledger starts empty
and changes only through ``apply_event``.  Each event class names its step
in one attribute, ``_step``, that every layer reads.  The event classes are
records, so final: anything else has no step and is refused with
``TypeError``.

A reserving ledger, the one a proposed-regime run keeps, also holds
reservations: owned shares that a short sale sets aside in its own step, the
proposed regime's constructive-sale trigger.  Only a short sale after a buy
of its security (``_may_reserve``) finds shares to reserve; elsewhere both
ledgers take the same path, so ``compare`` runs the proposed regime only
where such a sale occurs.  An outright sale takes the oldest unreserved
shares.  A reserving short sale marks one share sold per share it reserves,
its first shares sold.  A cover settles marks first in first out: those of
the shares it covers, then, for a with-owned cover short of free shares, the
oldest marks of positions it leaves open, whose first shares are left
unmarked.  It takes one of the oldest reserved shares per mark settled: a
cover by purchase frees them, one with owned shares delivers them, realizing
nothing more, and then the oldest unreserved shares.

Two inventories are kept deliberately separate.  Owned lots carry purchase or
inheritance basis.  Borrowed shares, although title passes to the borrower the
moment they are lent (SEC securities borrowing rules treat the "loan" as a
transfer of title), are tracked as ``BorrowPosition`` records and are never
matched as owned shares: the downstream constructive-sale trigger must see
only shares the taxpayer owned outright, and the two-realization-event
accounting of a cover-by-owned-lot needs the distinction.

Each security keeps its borrow positions in two first-in first-out queues:
the borrowed shares not yet sold short and the shares sold short and not yet
covered.  A borrow joins the back of the first; a short sale moves positions
from its front to the back of the second, splitting the last one it takes so
that every sold position has a single proceeds price.  Covers take sold
positions from the front of the second queue and are only permitted against
shares actually sold short: returning borrowed-but-never-sold shares has no
defined tax meaning here and raises ``OverCover``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import ValuesView

from .errors import (
    InsufficientOwnedShares,
    InvalidQuantity,
    InvariantViolation,
    NoOpenBorrow,
    OverCover,
)
from .market import Money, PricePath, SecurityId, Tick, record


@record
class Lot:
    """An owned parcel of identical shares with a single per-share basis."""

    id: int
    sec: SecurityId
    qty: int
    basis_per_share: Money


@record
class BorrowPosition:
    """An open securities-borrowing obligation of ``qty`` shares still owed to the lender.

    Once sold short the position records the proceeds price; realization of
    the short-sale gain or loss is deferred to the cover under the existing
    rule.
    """

    id: int
    sec: SecurityId
    qty: int
    short_proceeds_per_share: Money | None = None


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
class LedgerEffects:
    """What one applied event moved.  The realization module consumes this.

    The event's own fields say when, which security and how many shares.
    ``price`` is the market price the event used, ``cash_centavos`` the
    cash it moved.  ``lots_consumed`` holds the (lot, qty) pairs the event
    disposes of and ``reserved`` those a reserving short sale set aside, a
    with-owned cover delivered from reservations or a purchase cover freed,
    each lot as it stood before the event, in the order taken; ``shorts``
    holds (position, qty) pairs: the positions a short sale sold, as sold, or
    those a cover covered, as they stood before it, first in first out.
    """

    event: TransactionEvent
    price: Money | None
    cash_centavos: int
    lots_consumed: tuple[tuple[Lot, int], ...] = ()
    shorts: tuple[tuple[BorrowPosition, int], ...] = ()
    reserved: tuple[tuple[Lot, int], ...] = ()


def _shortage(sec: SecurityId, need: int, available: int) -> InsufficientOwnedShares:
    return InsufficientOwnedShares(f"need {need} shares of {sec}, only {available} available")


def _may_reserve(events: tuple) -> bool:
    """Whether a short sale in ``events`` comes after a buy of its security, so that a reserving ledger
    can reserve at it.  Price-free, and by exact class: the event classes are final.  Where this is
    false nothing is ever reserved, and a reserving ledger takes the same path as any other."""
    bought = set()
    for ev in events:
        kind = type(ev)
        if kind is ShortSell and ev.sec in bought:
            return True
        if kind is Buy:  # only a buy opens a lot
            bought.add(ev.sec)
    return False


class Ledger:
    """The mutable portfolio of one run, kept per security, whose short sales reserve if ``reserving``.

    Each security has a first-in first-out queue of lots, a pair of borrow
    position queues (sold short and uncovered, then unsold: cover order) and
    a queue of reserved (lot id, qty) slices, oldest first, with the reserved
    count per lot; an event touches only its own security.  Each borrow
    position sold short by a reserving sale counts its uncovered shares sold
    against reserved ones, its constructive marks, and the shares after them;
    a security's marks sum to its reserved shares, and a cover settles both
    first in first out.  No cash tally is kept: each step reports its cash.
    An index of every open lot by id, in lot-id order, serves ``lots``.
    ``lots_of`` and ``reserved_by_lot`` return the live containers: read
    them, never change them.
    """

    def __init__(self, reserving: bool = False) -> None:
        self.reserving = reserving
        self._by_id: dict[int, Lot] = {}
        self._lots: dict[SecurityId, deque[Lot]] = {}
        self._borrows: dict[SecurityId, tuple[deque[BorrowPosition], deque[BorrowPosition]]] = {}
        self._reservations: dict[SecurityId, deque[tuple[int, int]]] = {}
        self._reserved: dict[SecurityId, dict[int, int]] = {}
        # Borrow position id -> (its shares sold against reserved ones, not yet covered; its shares after those).
        self._constructive: dict[int, tuple[int, int]] = {}
        self.owner_generation, self.next_lot_id, self.next_borrow_id = 0, 0, 0

    @property
    def lots(self) -> ValuesView[Lot]:
        """Every open lot in lot-id order; its length costs nothing."""
        return self._by_id.values()

    def lots_of(self, sec: SecurityId) -> deque[Lot] | tuple[()]:
        return self._lots.get(sec, ())

    def reserved_by_lot(self, sec: SecurityId) -> dict[int, int]:
        """Reserved share count per lot id of ``sec``."""
        return self._reserved.get(sec, {})

    def _add_lot(self, lot: Lot) -> None:
        self._by_id[lot.id] = lot
        queue = self._lots.get(lot.sec)
        if queue is None:
            self._lots[lot.sec] = deque((lot,))
        else:
            queue.append(lot)

    def _unreserved(self, sec: SecurityId, qty: int) -> tuple[list[tuple[Lot, int]], int]:
        """(lot, qty) pairs of the oldest unreserved shares of ``sec``, at most ``qty``; and their total.

        The walk passes over fully reserved lots and stops at the last lot it
        takes from.
        """
        if qty == 0:
            return [], 0
        reserved = self._reserved.get(sec)
        slices: list[tuple[Lot, int]] = []
        remaining = qty
        for lot in self.lots_of(sec):
            free = lot.qty - reserved.get(lot.id, 0) if reserved else lot.qty
            amount = free if free < remaining else remaining
            if amount > 0:
                slices.append((lot, amount))
                remaining -= amount
                if remaining == 0:
                    break
        return slices, qty - remaining

    def _reserve(self, sec: SecurityId, qty: int,
                 sold: list[tuple[BorrowPosition, int]]) -> tuple[tuple[Lot, int], ...]:
        """Reserve the oldest unreserved shares of ``sec``, up to ``qty``, against a short sale that sold
        the positions in ``sold``, and mark as many of the first shares sold.  Returns the reserved pairs."""
        slices, total = self._unreserved(sec, qty)
        if not slices:
            return ()
        queue, reserved = self._reservations.setdefault(sec, deque()), self._reserved.setdefault(sec, {})
        for lot, amount in slices:
            queue.append((lot.id, amount))
            reserved[lot.id] = reserved.get(lot.id, 0) + amount
        for pos, amount in sold:
            mark = total if total < amount else amount
            self._constructive[pos.id] = mark, amount - mark
            total -= mark
            if total == 0:
                break
        return tuple(slices)

    def _settle(self, sec: SecurityId, qty: int) -> list[tuple[Lot, int]]:
        """Settle the oldest ``qty`` constructive marks of ``sec`` and free its oldest ``qty`` reserved shares,
        returned as (lot, qty) pairs."""
        constructive, unsettled = self._constructive, qty
        for pos in self._borrows[sec][0]:
            marks = constructive.get(pos.id)
            if marks:
                mark, tail = marks
                if mark > unsettled:
                    constructive[pos.id] = mark - unsettled, tail
                    break
                del constructive[pos.id]
                unsettled -= mark
                if not unsettled:
                    break
        queue, reserved, by_id = self._reservations[sec], self._reserved[sec], self._by_id
        takes = []
        while qty:
            lot_id, held = queue[0]
            if held > qty:
                queue[0], take = (lot_id, held - qty), qty
            else:
                queue.popleft()
                take = held
            reserved[lot_id] -= take
            if not reserved[lot_id]:
                del reserved[lot_id]
            takes.append((by_id[lot_id], take))
            qty -= take
        return takes

    def _consume(self, sec: SecurityId, slices: list[tuple[Lot, int]]) -> None:
        """Take matched shares in place, walking the queue of ``sec`` only up to the last lot touched.

        Queue order is lot-id order; a pair before the walk's place, as a cover's reserved takes can
        be, restarts the walk at the front.  A lot taken from twice is found by id the second time.
        """
        queue, by_id = self._lots[sec], self._by_id
        i = 0
        for taken, qty in slices:
            lot_id = taken.id
            if i and queue[i - 1].id >= lot_id:
                i = 0
            lot = queue[i]
            while lot.id != lot_id:  # a lot the walk passed over stays where it is
                i += 1
                lot = queue[i]
            left = lot.qty - qty
            if left:
                queue[i] = by_id[lot.id] = Lot(lot.id, lot.sec, left, lot.basis_per_share)
                i += 1
            else:
                del queue[i], by_id[lot.id]

    # One step per event shape, named by each event class's ``_step``.  Every
    # check runs before anything changes.

    def _buy(self, ev: Buy, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        lot = Lot(self.next_lot_id, ev.sec, ev.qty, price)
        self.next_lot_id += 1
        self._add_lot(lot)
        return LedgerEffects(ev, price, -price.centavos * ev.qty)

    def _borrow(self, ev: Borrow, path: PricePath) -> LedgerEffects:
        pos = BorrowPosition(self.next_borrow_id, ev.sec, ev.qty)
        self.next_borrow_id += 1
        queues = self._borrows.get(ev.sec)
        if queues is None:
            self._borrows[ev.sec] = deque(), deque((pos,))
        else:
            queues[1].append(pos)
        return LedgerEffects(ev, None, 0)

    def _short_sell(self, ev: ShortSell, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        shorts, unsold = self._borrows.get(ev.sec, ((), ()))
        sold: list[tuple[BorrowPosition, int]] = []
        remaining = ev.qty
        for pos in unsold:
            amount = pos.qty if pos.qty < remaining else remaining
            sold.append((BorrowPosition(pos.id, pos.sec, amount, price), amount))
            remaining -= amount
            if not remaining:
                break
        if remaining:
            raise NoOpenBorrow(f"short sale of {ev.qty} {ev.sec} exceeds borrowed-unsold {ev.qty - remaining}")
        for _ in sold:
            unsold.popleft()
        if amount < pos.qty:
            # Split so every sold position carries exactly one proceeds price.
            unsold.appendleft(BorrowPosition(self.next_borrow_id, pos.sec, pos.qty - amount))
            self.next_borrow_id += 1
        shorts.extend([p for p, _ in sold])
        if self.reserving:
            return LedgerEffects(ev, price, price.centavos * ev.qty, (), tuple(sold), self._reserve(ev.sec, ev.qty, sold))
        return LedgerEffects(ev, price, price.centavos * ev.qty, (), tuple(sold))

    def _sell(self, ev: SellOwned, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        lot_slices, available = self._unreserved(ev.sec, ev.qty)
        if available < ev.qty:
            raise _shortage(ev.sec, ev.qty, available)
        self._consume(ev.sec, lot_slices)
        return LedgerEffects(ev, price, price.centavos * ev.qty, tuple(lot_slices))

    def _cover(self, ev: CoverByPurchase | CoverByOwnedLot, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        shorts = self._borrows.get(ev.sec, ((), ()))[0]
        covered: list[tuple[BorrowPosition, int]] = []
        marked = 0  # the covered positions' constructive shares, which each counts as covered first
        remaining = ev.qty
        for pos in shorts:
            if pos.short_proceeds_per_share is None:
                raise InvariantViolation(f"borrow position {pos.id} is sold short without a price")
            amount = pos.qty if pos.qty < remaining else remaining
            covered.append((pos, amount))
            marks = self._constructive.get(pos.id)
            if marks:
                mark, tail = marks
                lead = pos.qty - tail - mark  # shares before the marked ones, whose marks a shortfall settled
                if amount > lead:
                    marked += mark if mark < amount - lead else amount - lead
            remaining -= amount
            if not remaining:
                break
        if remaining:
            raise OverCover(f"cover of {ev.qty} {ev.sec} exceeds open sold-short quantity {ev.qty - remaining}")
        by_purchase = type(ev) is CoverByPurchase
        if not by_purchase:
            free, available = self._unreserved(ev.sec, ev.qty - marked)
            if marked + available < ev.qty:
                # Short of free shares, it delivers reserved shares, which were disposed of at their short sale:
                # the marks settled go on past the covered positions into those left open.
                marked = ev.qty - available
                held = sum(self.reserved_by_lot(ev.sec).values())  # one mark per reserved share
                if held < marked:
                    raise _shortage(ev.sec, ev.qty, available + held)
        takes = self._settle(ev.sec, marked) if marked else []  # delivered, or freed by a purchase
        for _ in covered:
            shorts.popleft()
        if amount < pos.qty:
            shorts.appendleft(BorrowPosition(pos.id, pos.sec, pos.qty - amount, pos.short_proceeds_per_share))
        if by_purchase:
            return LedgerEffects(ev, price, -price.centavos * ev.qty, (), tuple(covered), tuple(takes))
        self._consume(ev.sec, takes + free)
        return LedgerEffects(ev, price, 0, tuple(free), tuple(covered), tuple(takes))

    def _death(self, ev: Death, path: PricePath) -> LedgerEffects:
        """Transmit the portfolio to the heir with basis stepped up to the death-date price.

        Every owned lot is re-based to fair market value at the death tick;
        lot ids, and so the reservations on them, are kept.  Open borrow
        positions transmit unchanged, since the heir inherits the obligation
        to return the shares.
        """
        at = ev.at
        lots = [Lot(lot.id, lot.sec, lot.qty, path.price_at(lot.sec, at)) for lot in self._by_id.values()]
        self._by_id, self._lots = {}, {}
        for lot in lots:
            self._add_lot(lot)
        self.owner_generation += 1
        return LedgerEffects(ev, None, 0)


Buy._step, Borrow._step, ShortSell._step = Ledger._buy, Ledger._borrow, Ledger._short_sell
SellOwned._step, Death._step = Ledger._sell, Ledger._death
CoverByPurchase._step = CoverByOwnedLot._step = Ledger._cover


def apply_event(
    ledger: Ledger, ev: TransactionEvent, path: PricePath
) -> tuple[Ledger, LedgerEffects]:
    """Apply one transaction event to a run's ledger, in place.

    Returns the ledger with the event's effects.  An event that raises
    leaves the ledger as it was.
    """
    try:
        step = type(ev)._step
    except AttributeError:
        raise TypeError(f"unknown transaction event {ev!r}") from None
    return ledger, step(ledger, ev, path)
