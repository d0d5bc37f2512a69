"""Reads of a run's ``Ledger`` that only the tests need.

``snapshot`` is a deep copy of every field of a ledger, so two snapshots
are equal exactly when the two ledgers hold the same lots, borrow positions,
cash and counters, and also the same reservation queue and constructive
marks.  The other reads use the ledger's live per-security containers.
"""

import copy


def snapshot(ledger):
    """Every field of ``ledger``, deep-copied: later events never change it."""
    return copy.deepcopy(vars(ledger))


def securities(ledger):
    """Every security the ledger has held lots or borrow positions of, open or not."""
    return ledger._lots.keys() | ledger._borrows.keys()


def borrows(ledger):
    """Every open borrow position, by security symbol, each security's in cover order."""
    return tuple(p for sec in sorted(securities(ledger)) for p in ledger.borrows_of(sec))


def borrowed_unsold_qty(ledger, sec):
    return sum(p.qty_unsold for p in ledger.borrows_of(sec))


def sold_uncovered_qty(ledger, sec):
    return sum(p.qty_sold_uncovered for p in ledger.borrows_of(sec))
