"""Renders the golden reference tables for the worked ABC-share examples.

Every numeric cell is taken from engine output (realization events, tax
lines, price lookups); this module only formats, through ``market.pesos``.
A tax cell is ``taxation._tax`` of a per-share gain, its total checked against
the tax line by ``_tax_row``; every gain table also checks its net against
that line.  There is one builder per table shape: ``_event_table`` for the
six sale tables (price, basis, gain or loss, then rate and tax for a gain),
``_price_walk`` for the price rows the four strategy tables open with,
``_scheme`` for the run the deferral and death schemes each begin with,
``_row`` and ``_layout`` for the labelled per-share/total rows, and one
function each for the grid and the timing table.  Styles such as decimals and parenthesized
losses are pinned per row, which is why they intentionally differ table to
table.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .market import Money, PricePath, pesos
from .realization import RealizationEvent, RealizationKind, Regime
from .scenario import RunReport, _two_tick, builtin, offset_grid_rows, run
from .taxation import FLAT_RATE, RateSchedule, TaxLine, _tax

RATE_CELL = f"{FLAT_RATE}%"
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


def _tax_row(table: str, label: str, gain_per_share: Money, qty: int, line: TaxLine, decimals: bool = True) -> Row:
    """The flat tax on a per-share gain, whose total must equal the engine's tax line."""
    tax = Money(_tax(gain_per_share.centavos, RateSchedule.PAPER_FLAT))
    _agrees(table, tax * qty, line.tax_due)
    return _row(label, tax, qty, decimals)


def _trade(open_at: int, close_at: int, short: bool = False) -> RunReport:
    """One ABC block bought and sold, or borrowed, sold short and covered by purchase."""
    return run(_two_tick(builtin("strategy3").prices, "ABC", open_at, close_at, short))


def _event_table(title: str, report: RunReport, kind: RealizationKind, labels: tuple[str, ...],
                 rate_row: Row = RATE_ROW) -> list[str]:
    """The one ``kind`` event of ``report``: price, basis and the size of its gain or loss, with a bare .00 dropped.

    Three labels make a loss table.  A fourth, for the tax, makes a gain
    table: the rate row and the tax follow the gain, and the gain's total and
    its tax are checked against the one tax line at the event's tick.
    """
    (event,) = [e for e in report.events if e.kind is kind]
    qty, gain = event.qty, event.gain_per_share
    price, basis, result, *tax = labels
    rows = [
        _row(price, event.amount_realized_per_share, qty, decimals=False),
        _row(basis, event.basis_per_share, qty, decimals=False),
        _row(result, gain if tax else -gain, qty, decimals=False),
    ]
    if tax:
        (line,) = [l for l in report.tax_lines if l.period == event.at]
        _agrees(title, gain * qty, line.net_capital_gain)
        rows += [rate_row, _tax_row(title, tax[0], gain, qty, line, decimals=False)]
    return _layout([title], rows)


def _price_walk(prices: PricePath, qty: int, moves: tuple[tuple[int, str], ...]) -> list[Row]:
    """The ABC share price at time 1, then for each ``(tick, label)`` the size of the move and the price it reaches."""
    last = prices.price_at("ABC", 1)
    rows = [_row("Original Purchase Price (time 1)", last, qty)]
    for tick, label in moves:
        price = prices.price_at("ABC", tick)
        rows += [_row(label, max(price - last, last - price), qty), _row(f"Share Price (time {tick})", price, qty)]
        last = price
    return rows


def _scheme(name: str) -> tuple[PricePath, RealizationEvent, RealizationEvent, TaxLine, Money]:
    """Built-in ``name`` run: its prices, owned disposal, short cover and one tax line, and the net per share,
    whose total must equal that line's net."""
    scenario = builtin(name)
    report = run(scenario)
    (disposal,) = [e for e in report.events if e.kind is RealizationKind.OWNED_DISPOSAL_AT_COVER]
    (cover,) = [e for e in report.events if e.kind is RealizationKind.SHORT_COVER]
    (line,) = report.tax_lines
    net = cover.gain_per_share + disposal.gain_per_share
    _agrees(name, net * disposal.qty, line.net_capital_gain)
    return scenario.prices, disposal, cover, line, net


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


def timing_table(ordinary: RunReport, short: RunReport) -> list[str]:
    """``ordinary`` is ``_trade(1, 2)`` and ``short`` is ``_trade(1, 2, short=True)``."""

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


def strategy1_table(report: RunReport) -> list[str]:
    """``report`` is ``_trade(1, 2)``: built-in ``strategy1``'s two events on its prices."""
    (sale,) = report.events
    (line,) = report.tax_lines
    qty = sale.qty
    _agrees("strategy 1", sale.gain_per_share * qty, line.net_capital_gain)
    rows = _price_walk(builtin("strategy1").prices, qty, ((2, "Add: Unrealized Capital Gains (time 1-2)"),)) + [
        _row("Selling Price (time 2)", sale.amount_realized_per_share, qty),
        _row("Less: Basis (time 1)", sale.basis_per_share, qty),
        _row("Capital Gains (time 2)", sale.gain_per_share, qty),
        RATE_ROW,
        _tax_row("strategy 1", "Capital Gains Tax (time 2)", sale.gain_per_share, qty, line),
    ]
    return _layout(["STRATEGY 1 (SELL AT TIME 2, THE CURRENT DATE)"], rows)


def strategy2_table() -> list[str]:
    scenario = builtin("strategy2")
    (sale,) = run(scenario).events
    qty = sale.qty
    rows = _price_walk(scenario.prices, qty, ((3, "Less: Unrealized Capital Loss (time 1-3)"),)) + [
        _row("Selling Price (time 3)", sale.amount_realized_per_share, qty),
        _row("Less: Basis", sale.basis_per_share, qty),
        _row("Capital Loss (time 3)", -sale.gain_per_share, qty, parens=True),
    ]
    return _layout(["STRATEGY 2 (SELL AT TIME 3, THE FUTURE DATE)"], rows)


def strategy3_table() -> list[str]:
    prices, disposal, cover, line, net = _scheme("strategy3")
    qty = disposal.qty
    moves = ((2, "Add: Unrealized Capital Gains (time 2)"), (3, "Less: Unrealized Capital Loss (time 2)"))
    owned_rows = _price_walk(prices, qty, moves) + [
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
        _row("Net Capital Gains (time 3)", net, qty),
        RATE_ROW,
        _tax_row("strategy 3", "Capital Gains Tax (time 3)", net, qty, line),
    ]
    out = _layout(["STRATEGY 3 (TAX DEFERRAL SCHEME)", "", "CAPITAL LOSS FROM SHARES OWNED"], owned_rows)
    out += [""] + _layout(["CAPITAL GAINS FROM SHORT SALE"], short_rows)
    out += [""] + _layout(["NET CAPITAL GAINS COMPUTATION"], net_rows)
    return out


def death_table() -> list[str]:
    prices, disposal, cover, line, net = _scheme("death_avoidance")
    _agrees("death", Money.zero(), line.tax_due)
    qty = disposal.qty
    moves = ((2, "Add: Unrealized Capital Gains (time 1-2)"), (3, "Add: Unrealized Capital Gains (time 2-3)"))
    owned_rows = _price_walk(prices, qty, moves) + [
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
        _row("Net Capital Loss (time 3)", -net, qty, decimals=False),
    ]
    out = _layout(
        ["TAX AVOIDANCE SCHEME (WITH INTERVENTION OF DEATH)", "", "CAPITAL GAINS FROM SHARES OWNED"],
        owned_rows,
    )
    out += [""] + _layout(["CAPITAL LOSS FROM SHORT SALE"], short_rows)
    out += [""] + _layout(["NET CAPITAL LOSS COMPUTATION"], net_rows)
    return out


def paper_tables() -> str:
    """The full golden-table report, byte-stable across runs.

    The runs that several tables read are made once per call.
    """
    ordinary, short = _trade(1, 2), _trade(1, 2, short=True)
    proposed = run(builtin("proposed_demo"), regime=Regime.PROPOSED)
    sale, cover = RealizationKind.ORDINARY_SALE, RealizationKind.SHORT_COVER
    sections = [
        _event_table("ORDINARY SALE OF STOCK (BUY AT TIME 1, SELL AT TIME 2)", ordinary, sale,
                     ("Selling Price", "Less: Basis", "Capital Gain", "Capital Gains Tax")),
        _event_table("ORDINARY SALE OF STOCK (BUY AT TIME 2, SELL AT TIME 3)", _trade(2, 3), sale,
                     ("Selling Price", "Less: Basis", "Capital Loss")),
        _event_table("SHORT SALE OF STOCK (SELL AT TIME 1, REPLACE AT TIME 2)", short, cover,
                     ("Selling Price from Short Sale", "Less: Cost of Replacing Borrowed Shares", "Capital Loss")),
        _event_table("SHORT SALE OF STOCK (SELL AT TIME 2, REPLACE AT TIME 3)", _trade(2, 3, short=True), cover,
                     ("Selling Price from Short Sale (time 2)", "Less: Cost of Replacing Borrowed Shares (time 3)",
                      "Capital Gain (time 3)", "Capital Gains Tax")),
        offset_grid_table(),
        timing_table(ordinary, short),
        strategy1_table(ordinary),
        strategy2_table(),
        strategy3_table(),
        _event_table("PROPOSED RULE, FIRST REALIZATION EVENT (TIME 2)", proposed, RealizationKind.CONSTRUCTIVE_SALE,
                     ("Selling Price (time 2)", "Less: Acquisition Cost (time 1)", "Capital Gain (time 2)",
                      "Capital Gains Tax (time 2)"), CGT_RATE_ROW),
        _event_table("PROPOSED RULE, SECOND REALIZATION EVENT (TIME 3)", proposed, cover,
                     ("Proceeds from Short Sale (time 2)", "Less: Cost of Replacement of Borrowed Share (time 3)",
                      "Capital Gain (time 3)", "Capital Gains Tax (time 3)"), CGT_RATE_ROW),
        death_table(),
    ]
    blocks = ["\n".join(section) for section in sections]
    return "\n\n".join(blocks) + "\n"
