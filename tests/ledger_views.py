"""Reads of a run's ``Ledger``, its borrow positions and a ``PricePath`` that only the tests need.

``snapshot`` is a deep copy of every field of a ledger, so two snapshots
are equal exactly when the two ledgers hold the same lots, borrow positions
and counters, and also the same constructive runs and reserved counts.  The other reads use the ledger's private
fields, its live per-security containers and the fields of its borrow positions.
"""

import copy

from realize import Money


def snapshot(ledger):
    """Every field of ``ledger``, deep-copied: later events never change it."""
    return copy.deepcopy(vars(ledger))


def securities(ledger):
    """Every security the ledger has held lots or borrow positions of, open or not."""
    return ledger._lots.keys() | ledger._borrows.keys()


def cash(effects):
    """Net cash the applied events moved: the sum of their effects' ``cash_centavos``."""
    return Money(sum(eff.cash_centavos for eff in effects))


def shorts_of(ledger, sec):
    """The borrow positions of ``sec`` sold short and not yet covered, oldest first."""
    return tuple(ledger._borrows.get(sec, ((), ()))[0])


def runs_of(ledger, sec):
    """The constructive runs of ``sec`` in mark order: (position id, shares of the position after the run, lot id, qty)."""
    return tuple(ledger._runs.get(sec, ()))


def runs_by_lot(ledger, sec):
    """Shares the constructive runs of ``sec`` pair with each lot id."""
    by_lot = {}
    for _, _, lot_id, qty in runs_of(ledger, sec):
        by_lot[lot_id] = by_lot.get(lot_id, 0) + qty
    return by_lot


def held_of(ledger, sec):
    """The ledger's own count of reserved shares of ``sec``."""
    return ledger._held.get(sec, 0)


def marks_of(ledger, sec):
    """Constructive marks on the open short positions of ``sec``: the shares of the runs that lie within them."""
    open_qty = {p.id: p.qty for p in shorts_of(ledger, sec)}
    return sum(qty for pos_id, tail, _, qty in runs_of(ledger, sec) if tail + qty <= open_qty.get(pos_id, 0))


def unsold_of(ledger, sec):
    """The borrow positions of ``sec`` not yet sold short, oldest first."""
    return tuple(ledger._borrows.get(sec, ((), ()))[1])


def borrows_of(ledger, sec):
    """The open borrow positions of ``sec``, in cover order: the sold ones, then the unsold ones."""
    return shorts_of(ledger, sec) + unsold_of(ledger, sec)


def borrows(ledger):
    """Every open borrow position, by security symbol, each security's in cover order."""
    return tuple(p for sec in sorted(securities(ledger)) for p in borrows_of(ledger, sec))


def owned_qty(ledger, sec):
    return sum(lot.qty for lot in ledger.lots_of(sec))


def qty_unsold(position):
    """Shares of a borrow position not yet sold short: all of an unpriced one."""
    return position.qty if position.short_proceeds_per_share is None else 0


def qty_outstanding(position):
    """Shares of a borrow position still owed to the lender."""
    return position.qty


def qty_sold_uncovered(position):
    """Shares of a borrow position sold short and not yet covered: all of a priced one."""
    return 0 if position.short_proceeds_per_share is None else position.qty


def borrowed_unsold_qty(ledger, sec):
    return sum(qty_unsold(p) for p in borrows_of(ledger, sec))


def sold_uncovered_qty(ledger, sec):
    return sum(qty_sold_uncovered(p) for p in borrows_of(ledger, sec))


def quoted_securities(path):
    """Every security ``path`` quotes, sorted."""
    return tuple(sorted({sec for sec, _ in path.quotes}))


def quoted_ticks(path, sec):
    """The ticks at which ``path`` quotes ``sec``, in order."""
    return tuple(sorted(t for s, t in path.quotes if s == sec))
