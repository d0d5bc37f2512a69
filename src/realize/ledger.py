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
organised as one book per security, which holds all of that security's
state.  An event looks up and changes only its own security's book, a take
finds its lot by id, and position matching stops at the last one it needs,
so the cost of an event does not grow with the rest of the portfolio.  A
ledger starts empty and changes only through ``apply_event``.  Each event
class names its step in one attribute, ``_step``, that every layer reads.
The event classes are records, so final: anything else has no step and is
refused with ``TypeError``.

A reserving ledger, the one a proposed-regime run keeps, also holds
reservations: owned shares that a short sale sets aside in its own step, the
proposed regime's constructive-sale trigger.  Only a short sale after a buy
of its security (``_may_reserve``) finds shares to reserve; elsewhere both
ledgers take the same path, so ``compare`` runs the proposed regime only
where such a sale occurs.  An outright sale takes the oldest unreserved
shares.  A reserving short sale pairs each share it reserves with one of its
first shares sold, a constructive mark, in runs queued in mark order.  A
cover settles marks first in first out: those of the shares it covers, then,
for a with-owned cover short of free shares, the oldest marks of positions
it leaves open, whose first shares are left unmarked.  Each mark settled
takes its paired reserved share: a cover by purchase frees it, one with owned
shares delivers it, realizing nothing more, and then the oldest unreserved.

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


# Each step builds its records by calling the generated constructor directly, past ``type.__call__``.
_new_lot, _new_position, _new_effects = Lot.__new__, BorrowPosition.__new__, LedgerEffects.__new__


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


class _Book:
    """One security's book: all of its state in a ``Ledger``, whose docstring says what each field holds."""

    __slots__ = ("lots", "shorts", "unsold", "runs", "reserved", "held")

    def __init__(self) -> None:
        self.lots: dict[int, Lot] = {}
        self.shorts: deque[BorrowPosition] = deque()
        self.unsold: deque[BorrowPosition] = deque()
        # Constructive runs in mark order: (position id, shares of the position after the run, lot id, qty).
        self.runs: deque[tuple[int, int, int, int]] = deque()
        self.reserved: dict[int, int] = {}
        self.held = 0

    def _unreserved(self, qty: int) -> tuple[list[tuple[Lot, int]], int]:
        """(lot, qty) pairs of the oldest unreserved shares, at most ``qty``, and their total: the walk passes
        over fully reserved lots and stops at the last lot it takes from."""
        if qty == 0:
            return [], 0
        reserved = self.reserved
        slices: list[tuple[Lot, int]] = []
        remaining = qty
        for lot in self.lots.values():
            free = lot.qty - reserved.get(lot.id, 0) if reserved else lot.qty
            amount = free if free < remaining else remaining
            if amount > 0:
                slices.append((lot, amount))
                remaining -= amount
                if remaining == 0:
                    break
        return slices, qty - remaining

    def _reserve(self, qty: int, sold: list[tuple[BorrowPosition, int]]) -> tuple[tuple[Lot, int], ...]:
        """Reserve the oldest unreserved shares, up to ``qty``, against a short sale that sold the positions in
        ``sold``, pairing them with its first shares sold as runs.  Returns the reserved pairs."""
        slices, total = self._unreserved(qty)
        if not slices:
            return ()
        runs, reserved = self.runs, self.reserved
        self.held += total
        positions, left = iter(sold), 0
        for lot, amount in slices:
            reserved[lot.id] = reserved.get(lot.id, 0) + amount
            while amount:
                if not left:
                    pos, left = next(positions)
                take = left if left < amount else amount
                left -= take
                amount -= take
                runs.append((pos.id, left, lot.id, take))
        return tuple(slices)

    def _settle(self, qty: int) -> list[tuple[Lot, int]]:
        """Settle the oldest ``qty`` constructive marks and free their reserved shares, returned as (lot, qty)
        pairs, adjacent runs on one lot joined."""
        runs, reserved, lots = self.runs, self.reserved, self.lots
        self.held -= qty
        takes: list[tuple[Lot, int]] = []
        while qty:
            pos_id, tail, lot_id, amount = runs[0]
            if amount > qty:
                runs[0], take = (pos_id, tail, lot_id, amount - qty), qty
            else:
                runs.popleft()
                take = amount
            qty -= take
            reserved[lot_id] -= take
            if not reserved[lot_id]:
                del reserved[lot_id]
            if takes and takes[-1][0].id == lot_id:
                takes[-1] = takes[-1][0], takes[-1][1] + take
            else:
                takes.append((lots[lot_id], take))
        return takes


_NO_BOOK = _Book()  # what a sale, short sale or cover of a never-held security reads; each raises before it writes


class Ledger:
    """The mutable portfolio of one run, kept per security, whose short sales reserve if ``reserving``.

    Each security bought or borrowed has one book, a ``_Book`` in ``_books``: its open lots keyed by lot
    id, in lot-id order (a buy adds the newest, a partial take replaces its lot in place), its borrow
    position queues (``shorts``, sold short and uncovered, then ``unsold``: cover order), its queue of
    constructive runs, and its reserved shares counted per lot id and in all.  A run pairs one lot's
    reserved shares with as many marked shares of one position sold short, and counts the position's
    shares after them, which covers, taking a position's front, never move.  Runs are in mark order, so a
    cover settles the runs at the front.  An index of every open lot by id, in lot-id order, serves
    ``lots`` and ``_death``.  ``reserved_by_lot`` returns the live dict: read it, never change it.
    """

    def __init__(self, reserving: bool = False) -> None:
        self.reserving = reserving
        self._by_id: dict[int, Lot] = {}
        self._books: dict[SecurityId, _Book] = {}
        self.owner_generation, self.next_lot_id, self.next_borrow_id = 0, 0, 0

    @property
    def lots(self) -> ValuesView[Lot]:
        """Every open lot in lot-id order; its length costs nothing."""
        return self._by_id.values()

    def lots_of(self, sec: SecurityId) -> list[Lot]:
        """The open lots of ``sec`` in lot-id order."""
        return list(self._books.get(sec, _NO_BOOK).lots.values())

    def reserved_by_lot(self, sec: SecurityId) -> dict[int, int]:
        """Reserved share count per lot id of ``sec``."""
        book = self._books.get(sec)
        return {} if book is None else book.reserved

    def holdings(self) -> tuple[tuple[tuple[SecurityId, int], ...], tuple[tuple[SecurityId, int], ...]]:
        """(security, shares owned) and (security, borrowed shares owed), each sorted by security, read from
        the live books; a security sold out or covered reports nothing."""
        books = self._books.items()
        owned = [(s, sum([lot.qty for lot in b.lots.values()])) for s, b in books if b.lots]
        owing = [(s, sum([p.qty for p in b.shorts]) + sum([p.qty for p in b.unsold])) for s, b in books
                 if b.shorts or b.unsold]
        return tuple(sorted(owned)), tuple(sorted(owing))

    def _consume(self, book: _Book, slices: list[tuple[Lot, int]]) -> None:
        """Take matched shares in place, each lot found by id among the lots of ``book``; a lot taken from
        twice is read as the first take left it."""
        lots, by_id = book.lots, self._by_id
        for taken, qty in slices:
            lot = lots[taken.id]
            left = lot.qty - qty
            if left:
                lots[lot.id] = by_id[lot.id] = _new_lot(Lot, lot.id, lot.sec, left, lot.basis_per_share)
            else:
                del lots[lot.id], by_id[lot.id]

    # One step per event shape, named by each event class's ``_step``.  Every
    # check runs before anything changes.

    def _buy(self, ev: Buy, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        lot = _new_lot(Lot, self.next_lot_id, ev.sec, ev.qty, price)
        self.next_lot_id += 1
        if (book := self._books.get(ev.sec)) is None:  # its first buy or borrow opens the book
            book = self._books[ev.sec] = _Book()
        book.lots[lot.id] = self._by_id[lot.id] = lot
        return _new_effects(LedgerEffects, ev, price, -price.centavos * ev.qty)

    def _borrow(self, ev: Borrow, path: PricePath) -> LedgerEffects:
        if (book := self._books.get(ev.sec)) is None:
            book = self._books[ev.sec] = _Book()
        book.unsold.append(_new_position(BorrowPosition, self.next_borrow_id, ev.sec, ev.qty))
        self.next_borrow_id += 1
        return _new_effects(LedgerEffects, ev, None, 0)

    def _short_sell(self, ev: ShortSell, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        book = self._books.get(ev.sec, _NO_BOOK)
        unsold = book.unsold
        sold: list[tuple[BorrowPosition, int]] = []
        remaining = ev.qty
        for pos in unsold:
            amount = pos.qty if pos.qty < remaining else remaining
            sold.append((_new_position(BorrowPosition, pos.id, pos.sec, amount, price), amount))
            remaining -= amount
            if not remaining:
                break
        if remaining:
            raise NoOpenBorrow(f"short sale of {ev.qty} {ev.sec} exceeds borrowed-unsold {ev.qty - remaining}")
        for _ in sold:
            unsold.popleft()
        if amount < pos.qty:
            # Split so every sold position carries exactly one proceeds price.
            unsold.appendleft(_new_position(BorrowPosition, self.next_borrow_id, pos.sec, pos.qty - amount))
            self.next_borrow_id += 1
        book.shorts.extend([p for p, _ in sold])
        if self.reserving:
            return _new_effects(LedgerEffects, ev, price, price.centavos * ev.qty, (), tuple(sold),
                                book._reserve(ev.qty, sold))
        return _new_effects(LedgerEffects, ev, price, price.centavos * ev.qty, (), tuple(sold))

    def _sell(self, ev: SellOwned, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        book = self._books.get(ev.sec, _NO_BOOK)
        lot_slices, available = book._unreserved(ev.qty)
        if available < ev.qty:
            raise _shortage(ev.sec, ev.qty, available)
        self._consume(book, lot_slices)
        return _new_effects(LedgerEffects, ev, price, price.centavos * ev.qty, tuple(lot_slices))

    def _cover(self, ev: CoverByPurchase | CoverByOwnedLot, path: PricePath) -> LedgerEffects:
        price = path.price_at(ev.sec, ev.at)
        book = self._books.get(ev.sec, _NO_BOOK)
        shorts = book.shorts
        runs = iter(book.runs)
        run = next(runs, None)
        covered: list[tuple[BorrowPosition, int]] = []
        marked = 0  # covered shares that runs pair with reserved ones: the oldest marks
        remaining = ev.qty
        for pos in shorts:
            if pos.short_proceeds_per_share is None:
                raise InvariantViolation(f"borrow position {pos.id} is sold short without a price")
            amount = pos.qty if pos.qty < remaining else remaining
            covered.append((pos, amount))
            while run and run[0] == pos.id:
                _, tail, _, qty = run
                lead = pos.qty - tail - qty  # shares before the run, whose marks a shortfall settled
                if amount <= lead:
                    break
                marked += qty if qty < amount - lead else amount - lead
                run = next(runs, None)
            remaining -= amount
            if not remaining:
                break
        if remaining:
            raise OverCover(f"cover of {ev.qty} {ev.sec} exceeds open sold-short quantity {ev.qty - remaining}")
        by_purchase = type(ev) is CoverByPurchase
        if not by_purchase:
            free, available = book._unreserved(ev.qty - marked)
            if marked + available < ev.qty:
                # Short of free shares, it delivers reserved shares, which were disposed of at their short sale:
                # the marks settled go on past the covered positions into those left open.
                marked = ev.qty - available
                if book.held < marked:  # one mark per reserved share
                    raise _shortage(ev.sec, ev.qty, available + book.held)
        takes = book._settle(marked) if marked else []  # delivered, or freed by a purchase
        for _ in covered:
            shorts.popleft()
        if amount < pos.qty:
            shorts.appendleft(_new_position(BorrowPosition, pos.id, pos.sec, pos.qty - amount,
                                            pos.short_proceeds_per_share))
        if by_purchase:
            return _new_effects(LedgerEffects, ev, price, -price.centavos * ev.qty, (), tuple(covered), tuple(takes))
        self._consume(book, takes + free)
        return _new_effects(LedgerEffects, ev, price, 0, tuple(free), tuple(covered), tuple(takes))

    def _death(self, ev: Death, path: PricePath) -> LedgerEffects:
        """Transmit the portfolio to the heir with basis stepped up to the death-date price.

        Every owned lot is re-based to fair market value at the death tick;
        lot ids, and so the reservations on them, are kept.  Open borrow
        positions transmit unchanged, since the heir inherits the obligation
        to return the shares.
        """
        at, by_id, books = ev.at, self._by_id, self._books
        lots = [_new_lot(Lot, lot.id, lot.sec, lot.qty, path.price_at(lot.sec, at)) for lot in by_id.values()]
        for lot in lots:  # every price read, in lot-id order, before any lot is re-based in place
            by_id[lot.id] = books[lot.sec].lots[lot.id] = lot
        self.owner_generation += 1
        return _new_effects(LedgerEffects, ev, None, 0)


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
