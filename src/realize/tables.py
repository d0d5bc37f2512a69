"""Renders the golden reference tables for the worked ABC-share examples.

Every numeric cell is taken from engine output (realization events, tax
lines, price lookups); this module only formats.  Styles such as decimals,
thousands separators, and parenthesized losses are pinned per table, which is
why they intentionally differ table to table.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .ledger import Borrow, Buy, CoverByPurchase, SellOwned, ShortSell
from .market import Money, PricePath, Rate, apply_rate
from .realization import RealizationKind, Regime
from .scenario import (
    BLOCK_QTY,
    OFFSET_GRID_FUTURES,
    OFFSET_GRID_PRESENT,
    Scenario,
    builtin,
    offset_grid_rows,
    run,
)

RATE_CELL = str(Rate.percent(10))


def _agrees(table: str, shown: Money, engine: Money) -> None:
    """A table figure must equal the engine's own tax line."""
    if shown != engine:
        raise InvariantViolation(f"{table}: table shows {shown} but the engine computed {engine}")


def _pesos(m: Money, decimals: bool = True, parens: bool = False) -> str:
    a = abs(m.centavos)
    body = f"{a // 100:,}.{a % 100:02d}" if decimals or a % 100 else f"{a // 100:,}"
    if parens:
        return f"({body})"
    if m.centavos < 0:
        return f"-{body}"
    return body


def _per_share(m: Money, parens: bool = False) -> str:
    a = abs(m.centavos)
    body = f"{a // 100:,}" if a % 100 == 0 else f"{a // 100:,}.{a % 100:02d}"
    if parens:
        return f"({body})"
    if m.centavos < 0:
        return f"-{body}"
    return body


Row = tuple[str, str, str]


def _layout(title: list[str], rows: list[Row]) -> list[str]:
    header: Row = ("", "Per Share (₱)", "Total (₱)")
    all_rows = [header] + rows
    label_w = max(len(r[0]) for r in all_rows)
    share_w = max(len(r[1]) for r in all_rows)
    total_w = max(len(r[2]) for r in all_rows)
    out = list(title)
    for label, share, total in all_rows:
        out.append(f"{label.ljust(label_w)}  {share.rjust(share_w)}  {total.rjust(total_w)}".rstrip())
    return out


def _row(label: str, per_share: Money, qty: int, decimals: bool = True, parens: bool = False) -> Row:
    return (label, _per_share(per_share, parens), _pesos(per_share * qty, decimals, parens))


def _rate_row(label: str = "Multiply by: Rate of Capital Gains Tax") -> Row:
    return (label, RATE_CELL, RATE_CELL)


def _abc_scenario(events) -> Scenario:
    return Scenario("abc", builtin("strategy3").prices, events)


def ordinary_sale_gain_table() -> list[str]:
    report = run(_abc_scenario((Buy(1, "ABC", BLOCK_QTY), SellOwned(2, "ABC", BLOCK_QTY))))
    (sale,) = report.events
    (line,) = report.tax_lines
    qty = sale.qty
    rows = [
        _row("Selling Price", sale.amount_realized_per_share, qty, decimals=False),
        _row("Less: Basis", sale.basis_per_share, qty, decimals=False),
        _row("Capital Gain", sale.gain_per_share, qty, decimals=False),
        _rate_row(),
        _row("Capital Gains Tax", apply_rate(sale.gain_per_share, Rate.percent(10)), qty, decimals=False),
    ]
    return _layout(["ORDINARY SALE OF STOCK (BUY AT TIME 1, SELL AT TIME 2)"], rows)


def ordinary_sale_loss_table() -> list[str]:
    report = run(_abc_scenario((Buy(2, "ABC", BLOCK_QTY), SellOwned(3, "ABC", BLOCK_QTY))))
    (sale,) = report.events
    qty = sale.qty
    rows = [
        _row("Selling Price", sale.amount_realized_per_share, qty, decimals=False),
        _row("Less: Basis", sale.basis_per_share, qty, decimals=False),
        _row("Capital Loss", -sale.gain_per_share, qty, decimals=False),
    ]
    return _layout(["ORDINARY SALE OF STOCK (BUY AT TIME 2, SELL AT TIME 3)"], rows)


def short_sale_loss_table() -> list[str]:
    report = run(
        _abc_scenario(
            (
                Borrow(1, "ABC", BLOCK_QTY),
                ShortSell(1, "ABC", BLOCK_QTY),
                CoverByPurchase(2, "ABC", BLOCK_QTY),
            )
        )
    )
    (cover,) = report.events
    qty = cover.qty
    rows = [
        _row("Selling Price from Short Sale", cover.amount_realized_per_share, qty, decimals=False),
        _row("Less: Cost of Replacing Borrowed Shares", cover.basis_per_share, qty, decimals=False),
        _row("Capital Loss", -cover.gain_per_share, qty, decimals=False),
    ]
    return _layout(["SHORT SALE OF STOCK (SELL AT TIME 1, REPLACE AT TIME 2)"], rows)


def short_sale_gain_table() -> list[str]:
    report = run(
        _abc_scenario(
            (
                Borrow(2, "ABC", BLOCK_QTY),
                ShortSell(2, "ABC", BLOCK_QTY),
                CoverByPurchase(3, "ABC", BLOCK_QTY),
            )
        )
    )
    (cover,) = report.events
    (line,) = report.tax_lines
    qty = cover.qty
    rows = [
        _row("Selling Price from Short Sale (time 2)", cover.amount_realized_per_share, qty, decimals=False),
        _row("Less: Cost of Replacing Borrowed Shares (time 3)", cover.basis_per_share, qty, decimals=False),
        _row("Capital Gain (time 3)", cover.gain_per_share, qty, decimals=False),
        _rate_row(),
        _row("Capital Gains Tax", apply_rate(cover.gain_per_share, Rate.percent(10)), qty, decimals=False),
    ]
    _agrees("short-sale gain", cover.gain_per_share * qty, line.net_capital_gain)
    return _layout(["SHORT SALE OF STOCK (SELL AT TIME 2, REPLACE AT TIME 3)"], rows)


def offset_grid_table() -> list[str]:
    width = 13
    cols = ["Selling Price", "Basis", "Gain (Loss)"] * 2
    out = [
        "OFFSETTING EFFECT: ORDINARY SALE VS SHORT SALE, PRESENT PRICE ₱100",
        "  ".join(["Ordinary Sale (₱)".center(width * 3 + 4), "Short Sale (₱)".center(width * 3 + 4)]).rstrip(),
        "  ".join(c.rjust(width) for c in cols),
    ]
    for row in offset_grid_rows():
        cells = [
            _per_share(row.future_price),
            _per_share(row.present_price),
            _per_share(row.ordinary_gain_per_share),
            _per_share(row.present_price),
            _per_share(row.future_price),
            _per_share(row.short_gain_per_share),
        ]
        out.append("  ".join(c.rjust(width) for c in cells))
    return out


def timing_table() -> list[str]:
    ordinary = run(_abc_scenario((Buy(1, "ABC", BLOCK_QTY), SellOwned(2, "ABC", BLOCK_QTY))))
    short = run(
        _abc_scenario(
            (
                Borrow(1, "ABC", BLOCK_QTY),
                ShortSell(1, "ABC", BLOCK_QTY),
                CoverByPurchase(2, "ABC", BLOCK_QTY),
            )
        )
    )

    def realization_tick(report) -> int:
        (event,) = report.events
        return event.at

    def receipt_tick(report) -> int:
        (point,) = [p for p in report.cash_timeline if p.delta.centavos > 0]
        return point.at

    def mark(tick: int, col_tick: int) -> str:
        return "✓" if tick == col_tick else ""

    rows = [
        ("Time period", "time 1", "time 2", "time 1", "time 2"),
        ("Sequence of events", "Acquire (buy)", "Dispose (sell)", "Dispose (sell)", "Acquire (buy)"),
        (
            "Date of realization",
            mark(realization_tick(ordinary), 1),
            mark(realization_tick(ordinary), 2),
            mark(realization_tick(short), 1),
            mark(realization_tick(short), 2),
        ),
        (
            "Date of receipt of sale proceeds",
            mark(receipt_tick(ordinary), 1),
            mark(receipt_tick(ordinary), 2),
            mark(receipt_tick(short), 1),
            mark(receipt_tick(short), 2),
        ),
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
        _rate_row(),
        _row("Capital Gains Tax (time 2)", apply_rate(sale.gain_per_share, Rate.percent(10)), qty),
    ]
    _agrees("strategy 1", apply_rate(sale.gain_per_share, Rate.percent(10)) * qty, line.tax_due)
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
        _rate_row(),
        _row("Capital Gains Tax (time 3)", apply_rate(net_per_share, Rate.percent(10)), qty),
    ]
    out = _layout(["STRATEGY 3 (TAX DEFERRAL SCHEME)", "", "CAPITAL LOSS FROM SHARES OWNED"], owned_rows)
    out += [""] + _layout(["CAPITAL GAINS FROM SHORT SALE"], short_rows)
    out += [""] + _layout(["NET CAPITAL GAINS COMPUTATION"], net_rows)
    return out


def proposed_time2_table() -> list[str]:
    report = run(builtin("proposed_demo"), regime=Regime.PROPOSED)
    constructive = next(e for e in report.events if e.kind is RealizationKind.CONSTRUCTIVE_SALE)
    line = next(l for l in report.tax_lines if l.period == constructive.at)
    qty = constructive.qty
    rows = [
        _row("Selling Price (time 2)", constructive.amount_realized_per_share, qty, decimals=False),
        _row("Less: Acquisition Cost (time 1)", constructive.basis_per_share, qty, decimals=False),
        _row("Capital Gain (time 2)", constructive.gain_per_share, qty, decimals=False),
        ("Multiply by: CGT rate", RATE_CELL, RATE_CELL),
        _row("Capital Gains Tax (time 2)", apply_rate(constructive.gain_per_share, Rate.percent(10)), qty, decimals=False),
    ]
    _agrees("proposed time 2", apply_rate(constructive.gain_per_share, Rate.percent(10)) * qty, line.tax_due)
    return _layout(["PROPOSED RULE, FIRST REALIZATION EVENT (TIME 2)"], rows)


def proposed_time3_table() -> list[str]:
    report = run(builtin("proposed_demo"), regime=Regime.PROPOSED)
    cover = next(e for e in report.events if e.kind is RealizationKind.SHORT_COVER)
    line = next(l for l in report.tax_lines if l.period == cover.at)
    qty = cover.qty
    rows = [
        _row("Proceeds from Short Sale (time 2)", cover.amount_realized_per_share, qty, decimals=False),
        _row("Less: Cost of Replacement of Borrowed Share (time 3)", cover.basis_per_share, qty, decimals=False),
        _row("Capital Gain (time 3)", cover.gain_per_share, qty, decimals=False),
        ("Multiply by: CGT rate", RATE_CELL, RATE_CELL),
        _row("Capital Gains Tax (time 3)", apply_rate(cover.gain_per_share, Rate.percent(10)), qty, decimals=False),
    ]
    _agrees("proposed time 3", apply_rate(cover.gain_per_share, Rate.percent(10)) * qty, line.tax_due)
    return _layout(["PROPOSED RULE, SECOND REALIZATION EVENT (TIME 3)"], rows)


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
        ("Capital Gain from Disposition of Owned Shares (time 3)",
         _per_share(disposal.gain_per_share), _pesos(disposal.gain_per_share * qty, decimals=False)),
    ]
    short_rows = [
        _row("Proceeds from Sale of Borrowed Shares (time 2)", cover.amount_realized_per_share, qty),
        _row("Less: Cost of Replacing Borrowed Shares (time 3)", cover.basis_per_share, qty),
        _row("Capital Loss from Short Sale (time 3)", -cover.gain_per_share, qty),
    ]
    net_rows = [
        ("Capital Gains from Disposition of Owned Shares (time 3)",
         _per_share(disposal.gain_per_share), _pesos(disposal.gain_per_share * qty)),
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
