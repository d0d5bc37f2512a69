"""Renders the golden reference tables for the worked ABC-share examples.

Every numeric cell is taken from engine output (realization events, tax
lines, price lookups); this module only formats, through ``market.pesos``.
There is one builder per table shape: ``_event_table`` for the six sale
tables (price, basis, gain or loss, then rate and tax for a gain), ``_row``
and ``_layout`` for the labelled per-share/total tables of the strategies,
and one function each for the grid and the timing table.  Styles such as
decimals and parenthesized losses are pinned per row, which is why they
intentionally differ table to table.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .ledger import Borrow, Buy, CoverByPurchase, SellOwned, ShortSell
from .market import Money, PricePath, Rate, apply_rate, pesos
from .realization import RealizationEvent, RealizationKind, Regime
from .scenario import (
    BLOCK_QTY,
    OFFSET_GRID_FUTURES,
    OFFSET_GRID_PRESENT,
    RunReport,
    Scenario,
    builtin,
    offset_grid_rows,
    run,
)

RATE = Rate.percent(10)
RATE_CELL = str(RATE)
RATE_ROW = ("Multiply by: Rate of Capital Gains Tax", RATE_CELL, RATE_CELL)
CGT_RATE_ROW = ("Multiply by: CGT rate", RATE_CELL, RATE_CELL)


def _agrees(table: str, shown: Money, engine: Money) -> None:
    """A table figure must equal the engine's own tax line."""
    if shown != engine:
        raise InvariantViolation(f"{table}: table shows {shown} but the engine computed {engine}")


Row = tuple[str, str, str]


def _layout(title: list[str], rows: list[Row]) -> list[str]:
    all_rows = [("", "Per Share (₱)", "Total (₱)"), *rows]
    label_w, share_w, total_w = (max(map(len, column)) for column in zip(*all_rows))
    out = list(title)
    for label, share, total in all_rows:
        out.append(f"{label.ljust(label_w)}  {share.rjust(share_w)}  {total.rjust(total_w)}".rstrip())
    return out


def _row(label: str, per_share: Money, qty: int, decimals: bool = True, parens: bool = False) -> Row:
    c = per_share.centavos
    return (label, pesos(c, cents=False, parens=parens), pesos(c * qty, cents=decimals, parens=parens))


def _trade(open_at: int, close_at: int, short: bool = False) -> RunReport:
    """One ABC block bought and sold, or borrowed, sold short and covered by purchase."""
    if short:
        events = (
            Borrow(open_at, "ABC", BLOCK_QTY),
            ShortSell(open_at, "ABC", BLOCK_QTY),
            CoverByPurchase(close_at, "ABC", BLOCK_QTY),
        )
    else:
        events = (Buy(open_at, "ABC", BLOCK_QTY), SellOwned(close_at, "ABC", BLOCK_QTY))
    return run(Scenario("abc", builtin("strategy3").prices, events))


def _event_table(
    title: str, event: RealizationEvent, labels: tuple[str, ...], rate_row: Row = RATE_ROW
) -> list[str]:
    """One realization event: price, basis and the size of its gain or loss, with a bare .00 dropped.

    Three labels make a loss table.  A fourth, for the tax, makes a gain
    table: the rate row and the tax follow the gain.
    """
    qty, gain = event.qty, event.gain_per_share
    price, basis, result, *tax = labels
    rows = [
        _row(price, event.amount_realized_per_share, qty, decimals=False),
        _row(basis, event.basis_per_share, qty, decimals=False),
        _row(result, gain if tax else -gain, qty, decimals=False),
    ]
    if tax:
        rows += [rate_row, _row(tax[0], apply_rate(gain, RATE), qty, decimals=False)]
    return _layout([title], rows)


def ordinary_sale_gain_table() -> list[str]:
    report = _trade(1, 2)
    (sale,) = report.events
    (_line,) = report.tax_lines
    labels = ("Selling Price", "Less: Basis", "Capital Gain", "Capital Gains Tax")
    return _event_table("ORDINARY SALE OF STOCK (BUY AT TIME 1, SELL AT TIME 2)", sale, labels)


def ordinary_sale_loss_table() -> list[str]:
    (sale,) = _trade(2, 3).events
    labels = ("Selling Price", "Less: Basis", "Capital Loss")
    return _event_table("ORDINARY SALE OF STOCK (BUY AT TIME 2, SELL AT TIME 3)", sale, labels)


def short_sale_loss_table() -> list[str]:
    (cover,) = _trade(1, 2, short=True).events
    labels = ("Selling Price from Short Sale", "Less: Cost of Replacing Borrowed Shares", "Capital Loss")
    return _event_table("SHORT SALE OF STOCK (SELL AT TIME 1, REPLACE AT TIME 2)", cover, labels)


def short_sale_gain_table() -> list[str]:
    report = _trade(2, 3, short=True)
    (cover,) = report.events
    (line,) = report.tax_lines
    _agrees("short-sale gain", cover.gain_per_share * cover.qty, line.net_capital_gain)
    labels = (
        "Selling Price from Short Sale (time 2)",
        "Less: Cost of Replacing Borrowed Shares (time 3)",
        "Capital Gain (time 3)",
        "Capital Gains Tax",
    )
    return _event_table("SHORT SALE OF STOCK (SELL AT TIME 2, REPLACE AT TIME 3)", cover, labels)


def offset_grid_table() -> list[str]:
    width = 13
    cols = ["Selling Price", "Basis", "Gain (Loss)"] * 2
    out = [
        "OFFSETTING EFFECT: ORDINARY SALE VS SHORT SALE, PRESENT PRICE ₱100",
        "  ".join(["Ordinary Sale (₱)".center(width * 3 + 4), "Short Sale (₱)".center(width * 3 + 4)]).rstrip(),
        "  ".join(c.rjust(width) for c in cols),
    ]
    for row in offset_grid_rows():
        cells = (
            row.future_price, row.present_price, row.ordinary_gain_per_share,
            row.present_price, row.future_price, row.short_gain_per_share,
        )
        out.append("  ".join(pesos(c.centavos, cents=False).rjust(width) for c in cells))
    return out


def timing_table() -> list[str]:
    ordinary, short = _trade(1, 2), _trade(1, 2, short=True)

    def realization_tick(report: RunReport) -> int:
        (event,) = report.events
        return event.at

    def receipt_tick(report: RunReport) -> int:
        (point,) = [p for p in report.cash_timeline if p.delta.centavos > 0]
        return point.at

    def marks(tick: int) -> tuple[str, str]:
        return tuple("✓" if tick == column_tick else "" for column_tick in (1, 2))

    rows = [
        ("Time period", "time 1", "time 2", "time 1", "time 2"),
        ("Sequence of events", "Acquire (buy)", "Dispose (sell)", "Dispose (sell)", "Acquire (buy)"),
        ("Date of realization", *marks(realization_tick(ordinary)), *marks(realization_tick(short))),
        ("Date of receipt of sale proceeds", *marks(receipt_tick(ordinary)), *marks(receipt_tick(short))),
    ]
    label_w = max(len(r[0]) for r in rows)
    col_w = 14
    out = [
        "TIMING OF REALIZATION AND RECEIPT OF SALE PROCEEDS",
        f"{''.ljust(label_w)}  {'Ordinary Sale'.center(col_w * 2 + 2)}  {'Short Sale'.center(col_w * 2 + 2)}".rstrip(),
    ]
    for label, *cells in rows:
        out.append(
            (f"{label.ljust(label_w)}  " + "  ".join(c.center(col_w) for c in cells)).rstrip()
        )
    return out


def strategy1_table() -> list[str]:
    scenario = builtin("strategy1")
    report = run(scenario)
    (sale,) = report.events
    (line,) = report.tax_lines
    prices: PricePath = scenario.prices
    p1 = prices.price_at("ABC", 1)
    p2 = prices.price_at("ABC", 2)
    qty = sale.qty
    rows = [
        _row("Original Purchase Price (time 1)", p1, qty),
        _row("Add: Unrealized Capital Gains (time 1-2)", p2 - p1, qty),
        _row("Share Price (time 2)", p2, qty),
        _row("Selling Price (time 2)", sale.amount_realized_per_share, qty),
        _row("Less: Basis (time 1)", sale.basis_per_share, qty),
        _row("Capital Gains (time 2)", sale.gain_per_share, qty),
        RATE_ROW,
        _row("Capital Gains Tax (time 2)", apply_rate(sale.gain_per_share, RATE), qty),
    ]
    _agrees("strategy 1", apply_rate(sale.gain_per_share, RATE) * qty, line.tax_due)
    return _layout(["STRATEGY 1 (SELL AT TIME 2, THE CURRENT DATE)"], rows)


def strategy2_table() -> list[str]:
    scenario = builtin("strategy2")
    report = run(scenario)
    (sale,) = report.events
    prices = scenario.prices
    p1 = prices.price_at("ABC", 1)
    p3 = prices.price_at("ABC", 3)
    qty = sale.qty
    rows = [
        _row("Original Purchase Price (time 1)", p1, qty),
        _row("Less: Unrealized Capital Loss (time 1-3)", p1 - p3, qty),
        _row("Share Price (time 3)", p3, qty),
        _row("Selling Price (time 3)", sale.amount_realized_per_share, qty),
        _row("Less: Basis", sale.basis_per_share, qty),
        _row("Capital Loss (time 3)", -sale.gain_per_share, qty, parens=True),
    ]
    return _layout(["STRATEGY 2 (SELL AT TIME 3, THE FUTURE DATE)"], rows)


def strategy3_table() -> list[str]:
    scenario = builtin("strategy3")
    report = run(scenario)
    disposal = next(e for e in report.events if e.kind is RealizationKind.OWNED_DISPOSAL_AT_COVER)
    cover = next(e for e in report.events if e.kind is RealizationKind.SHORT_COVER)
    (line,) = report.tax_lines
    prices = scenario.prices
    p1 = prices.price_at("ABC", 1)
    p2 = prices.price_at("ABC", 2)
    p3 = prices.price_at("ABC", 3)
    qty = disposal.qty
    net_per_share = cover.gain_per_share + disposal.gain_per_share
    _agrees("strategy 3", net_per_share * qty, line.net_capital_gain)

    owned_rows = [
        _row("Original Purchase Price (time 1)", p1, qty),
        _row("Add: Unrealized Capital Gains (time 2)", p2 - p1, qty),
        _row("Share Price (time 2)", p2, qty),
        _row("Less: Unrealized Capital Loss (time 2)", p2 - p3, qty),
        _row("Share Price (time 3)", p3, qty),
        _row("Proceeds from Disposition of Shares (time 3)", disposal.amount_realized_per_share, qty),
        _row("Less: Basis (time 1)", disposal.basis_per_share, qty),
        _row("Capital Loss from Disposition of Owned Shares (time 3)", -disposal.gain_per_share, qty),
    ]
    short_rows = [
        _row("Proceeds from Sale of Borrowed Shares (time 2)", cover.amount_realized_per_share, qty),
        _row("Less: Cost of Replacing Borrowed Shares (time 3)", cover.basis_per_share, qty),
        _row("Capital Gains from Short Sale (time 3)", cover.gain_per_share, qty),
    ]
    net_rows = [
        _row("Capital Gains from Short Sale (time 3)", cover.gain_per_share, qty),
        _row("Less: Capital Loss from Disposition of Owned Shares (time 3)", -disposal.gain_per_share, qty),
        _row("Net Capital Gains (time 3)", net_per_share, qty),
        RATE_ROW,
        _row("Capital Gains Tax (time 3)", apply_rate(net_per_share, RATE), qty),
    ]
    out = _layout(["STRATEGY 3 (TAX DEFERRAL SCHEME)", "", "CAPITAL LOSS FROM SHARES OWNED"], owned_rows)
    out += [""] + _layout(["CAPITAL GAINS FROM SHORT SALE"], short_rows)
    out += [""] + _layout(["NET CAPITAL GAINS COMPUTATION"], net_rows)
    return out


def proposed_time2_table() -> list[str]:
    report = run(builtin("proposed_demo"), regime=Regime.PROPOSED)
    constructive = next(e for e in report.events if e.kind is RealizationKind.CONSTRUCTIVE_SALE)
    line = next(l for l in report.tax_lines if l.period == constructive.at)
    _agrees("proposed time 2", apply_rate(constructive.gain_per_share, RATE) * constructive.qty, line.tax_due)
    labels = (
        "Selling Price (time 2)",
        "Less: Acquisition Cost (time 1)",
        "Capital Gain (time 2)",
        "Capital Gains Tax (time 2)",
    )
    return _event_table("PROPOSED RULE, FIRST REALIZATION EVENT (TIME 2)", constructive, labels, CGT_RATE_ROW)


def proposed_time3_table() -> list[str]:
    report = run(builtin("proposed_demo"), regime=Regime.PROPOSED)
    cover = next(e for e in report.events if e.kind is RealizationKind.SHORT_COVER)
    line = next(l for l in report.tax_lines if l.period == cover.at)
    _agrees("proposed time 3", apply_rate(cover.gain_per_share, RATE) * cover.qty, line.tax_due)
    labels = (
        "Proceeds from Short Sale (time 2)",
        "Less: Cost of Replacement of Borrowed Share (time 3)",
        "Capital Gain (time 3)",
        "Capital Gains Tax (time 3)",
    )
    return _event_table("PROPOSED RULE, SECOND REALIZATION EVENT (TIME 3)", cover, labels, CGT_RATE_ROW)


def death_table() -> list[str]:
    scenario = builtin("death_avoidance")
    report = run(scenario)
    disposal = next(e for e in report.events if e.kind is RealizationKind.OWNED_DISPOSAL_AT_COVER)
    cover = next(e for e in report.events if e.kind is RealizationKind.SHORT_COVER)
    (line,) = report.tax_lines
    prices = scenario.prices
    p1 = prices.price_at("ABC", 1)
    p2 = prices.price_at("ABC", 2)
    p3 = prices.price_at("ABC", 3)
    qty = disposal.qty
    net_per_share = cover.gain_per_share + disposal.gain_per_share
    _agrees("death", net_per_share * qty, line.net_capital_gain)
    _agrees("death", Money.zero(), line.tax_due)

    owned_rows = [
        _row("Original Purchase Price (time 1)", p1, qty),
        _row("Add: Unrealized Capital Gains (time 1-2)", p2 - p1, qty),
        _row("Share Price (time 2)", p2, qty),
        _row("Add: Unrealized Capital Gains (time 2-3)", p3 - p2, qty),
        _row("Share Price (time 3)", p3, qty),
        _row("Proceeds from Disposition of Shares (time 3)", disposal.amount_realized_per_share, qty),
        _row("Less: Basis (intervening period between time 2 and time 3)", disposal.basis_per_share, qty),
        _row("Capital Gain from Disposition of Owned Shares (time 3)", disposal.gain_per_share, qty, decimals=False),
    ]
    short_rows = [
        _row("Proceeds from Sale of Borrowed Shares (time 2)", cover.amount_realized_per_share, qty),
        _row("Less: Cost of Replacing Borrowed Shares (time 3)", cover.basis_per_share, qty),
        _row("Capital Loss from Short Sale (time 3)", -cover.gain_per_share, qty),
    ]
    net_rows = [
        _row("Capital Gains from Disposition of Owned Shares (time 3)", disposal.gain_per_share, qty),
        _row("Less: Capital Loss from Short Sale (time 3)", -cover.gain_per_share, qty),
        _row("Net Capital Loss (time 3)", -net_per_share, qty, decimals=False),
    ]
    out = _layout(
        ["TAX AVOIDANCE SCHEME (WITH INTERVENTION OF DEATH)", "", "CAPITAL GAINS FROM SHARES OWNED"],
        owned_rows,
    )
    out += [""] + _layout(["CAPITAL LOSS FROM SHORT SALE"], short_rows)
    out += [""] + _layout(["NET CAPITAL LOSS COMPUTATION"], net_rows)
    return out


def paper_tables() -> str:
    """The full golden-table report, byte-stable across runs."""
    sections = [
        ordinary_sale_gain_table(),
        ordinary_sale_loss_table(),
        short_sale_loss_table(),
        short_sale_gain_table(),
        offset_grid_table(),
        timing_table(),
        strategy1_table(),
        strategy2_table(),
        strategy3_table(),
        proposed_time2_table(),
        proposed_time3_table(),
        death_table(),
    ]
    blocks = ["\n".join(section) for section in sections]
    return "\n\n".join(blocks) + "\n"
