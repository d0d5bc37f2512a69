"""Capital-gains-tax realization simulator for ordinary and short sales.

Simulates how and when gains and losses on unlisted shares become taxable
under the existing Philippine realization rule and under a proposed
constructive-sale rule, with exact integer-centavo arithmetic throughout.
"""

from . import errors
from .ledger import Borrow, Buy, CoverByOwnedLot, CoverByPurchase, Death, SellOwned, ShortSell
from .market import Money, PricePath
from .realization import RealizationEvent, RealizationKind, Regime
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
from .taxation import NettingWindow, RateSchedule, TaxLine

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "Borrow",
    "Buy",
    "ComparisonReport",
    "CoverByOwnedLot",
    "CoverByPurchase",
    "Death",
    "GridRow",
    "Money",
    "NettingWindow",
    "PricePath",
    "RateSchedule",
    "RealizationEvent",
    "RealizationKind",
    "Regime",
    "RunReport",
    "Scenario",
    "SellOwned",
    "ShortSell",
    "TaxLine",
    "builtin",
    "compare",
    "errors",
    "format_scenario",
    "offset_grid_rows",
    "parse_scenario",
    "run",
]
