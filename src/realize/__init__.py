"""Capital-gains-tax realization simulator for ordinary and short sales.

Simulates how and when gains and losses on unlisted shares become taxable
under the existing Philippine realization rule and under a proposed
constructive-sale rule, with exact integer-centavo arithmetic throughout.
"""

from . import errors
from .ledger import (
    Borrow,
    BorrowPosition,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Ledger,
    LedgerEffects,
    Lot,
    SellOwned,
    ShortSell,
    apply_event,
)
from .market import Money, PricePath, Rate, apply_rate
from .realization import RealizationEvent, RealizationKind, Regime, realize
from .scenario import (
    BUILTIN_NAMES,
    ComparisonReport,
    GridRow,
    RunReport,
    Scenario,
    builtin,
    compare,
    format_scenario,
    offset_grid_rows,
    parse_scenario,
    run,
)
from .taxation import NettingWindow, RateSchedule, TaxLine, tax_timeline

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "Borrow",
    "BorrowPosition",
    "Buy",
    "ComparisonReport",
    "CoverByOwnedLot",
    "CoverByPurchase",
    "Death",
    "GridRow",
    "Ledger",
    "LedgerEffects",
    "Lot",
    "Money",
    "NettingWindow",
    "PricePath",
    "Rate",
    "RateSchedule",
    "RealizationEvent",
    "RealizationKind",
    "Regime",
    "RunReport",
    "Scenario",
    "SellOwned",
    "ShortSell",
    "TaxLine",
    "apply_event",
    "apply_rate",
    "builtin",
    "compare",
    "errors",
    "format_scenario",
    "offset_grid_rows",
    "parse_scenario",
    "realize",
    "run",
    "tax_timeline",
]
