"""Scenario descriptions, the line-oriented DSL, built-ins, and the runner.

DSL grammar (UTF-8, one directive per line, ``#`` starts a comment,
whitespace-separated tokens):

    price <SYM> <tick> <price>
    at <tick> buy <SYM> <qty>
    at <tick> borrow <SYM> <qty>
    at <tick> short-sell <SYM> <qty>
    at <tick> sell <SYM> <qty>
    at <tick> cover <SYM> <qty> (by-purchase | with-owned)
    at <tick> death [heir <LABEL>]

Ticks, quantities and prices are written in ASCII digits.  One parser reads
every line; its errors carry the line and column of the offending token.
``Scenario`` alone checks that event ticks are non-decreasing and that every
event's (security, tick) carries a price directive; the parser re-raises
those errors at the event's line.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .errors import (
    EngineError,
    InvalidQuantity,
    InvalidSymbol,
    NonMonotonicTick,
    ParseError,
    UndefinedPrice,
    UnknownDirective,
    UnknownScenario,
)
from .ledger import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Ledger,
    SellOwned,
    ShortSell,
    TransactionEvent,
    _lookup,
    apply_event,
)
from .market import _ZERO, Money, PricePath, SecurityId, Tick, _money, pesos, record
from .realization import RealizationEvent, Regime, _may_reserve, realize
from .taxation import (
    NettingWindow,
    RateSchedule,
    TaxLine,
    tax_timeline,
    total_tax,
)

BLOCK_QTY = 100_000

# bench/spans.py looks these two names up: the ledger's two owned-share walks.
sell_policy, cover_policy = Ledger._unreserved, Ledger._oldest_reserved


def _annotate(err: EngineError, index: int) -> EngineError:
    err.event_index = index
    return err


@record
class Scenario:
    """A price path plus a tick-ordered list of transaction events.

    Building one raises ``NonMonotonicTick`` or ``UndefinedPrice``, with the
    offending ``event_index``, when ticks decrease or an event has no price,
    and ``InvalidSymbol`` when a security symbol or heir label is not a ``str``.
    """

    name: str
    prices: PricePath
    events: tuple[TransactionEvent, ...] = ()

    def __post_init__(self) -> None:
        last = None
        quotes = self.prices.quotes
        for index, ev in enumerate(self.events):
            if last is not None and ev.at < last:
                raise _annotate(
                    NonMonotonicTick(f"event tick {ev.at} precedes earlier tick {last}"), index
                )
            last = ev.at
            if isinstance(ev, Death):
                if ev.heir is not None and not isinstance(ev.heir, str):
                    raise _annotate(_not_str("heir label", ev.heir), index)
            elif not isinstance(ev.sec, str):
                raise _annotate(_not_str("security symbol", ev.sec), index)
            elif (ev.sec, ev.at) not in quotes:
                raise _annotate(UndefinedPrice(f"no price for {ev.sec} at tick {ev.at}"), index)
        for key in quotes:
            if type(key) is not tuple or len(key) != 2 or not isinstance(key[0], str):
                raise InvalidSymbol(f"a quote key must be a (str security symbol, tick) pair, got {key!r}")


def _not_str(what: str, value: object) -> InvalidSymbol:
    return InvalidSymbol(f"{what} must be a str, got {type(value).__name__} {value!r}")


_TRADES = {"buy": Buy, "borrow": Borrow, "short-sell": ShortSell, "sell": SellOwned}
_COVERS = {"by-purchase": CoverByPurchase, "with-owned": CoverByOwnedLot}

# What each token of a directive is, for "expected ..." messages.
_PRICE = ("price", "security symbol", "tick", "price")
_TRADE = ("at", "tick", "event verb", "security symbol", "share quantity")
_COVER = (*_TRADE, "'by-purchase' or 'with-owned'")
_DEATH = ("at", "tick", "death", "'heir'", "heir label")

_TOKEN_RE = re.compile(r"\S+")


def _col(code: str, index: int) -> int:
    """1-based column where token ``index`` of ``code`` starts, or past the last token, where it ends.

    ``\\S`` and ``str.split()`` agree on every code point, so token ``index``
    here is ``code.split()[index]``.  Only errors ask for a column.
    """
    spans = [m.span() for m in _TOKEN_RE.finditer(code)]
    return spans[index][0] + 1 if index < len(spans) else spans[-1][1] + 1


def _count_error(tokens: list[str], names: tuple[str, ...], code: str, line_no: int) -> ParseError:
    """The error for a line of the wrong length: its first missing token, or its first extra one."""
    n = len(tokens)
    if n < len(names):
        return ParseError(f"expected {names[n]}", line_no, _col(code, n))
    return ParseError("unexpected trailing tokens", line_no, _col(code, len(names)))


def _int(tokens: list[str], index: int, what: str, code: str, line_no: int) -> int:
    """Token ``index`` read as an integer spelled ``-?[0-9]+`` in ASCII.

    Exactly this spelling: int() would also take '+', '_' and other scripts' digits.
    """
    token = tokens[index]
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii():
        return int(token)
    raise ParseError(f"expected {what}, got {token!r}", line_no, _col(code, index))


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse DSL text into a validated scenario.  Numbers in plain ASCII digits are read in place; every
    other spelling, and every error, goes through ``_int`` or ``Money.parse``."""
    quotes: dict[tuple[SecurityId, Tick], Money] = {}
    events: list[TransactionEvent] = []
    event_lines: list[int] = []
    lines = text.splitlines()

    for line_no, line in enumerate(lines, start=1):
        code = line.partition("#")[0] if "#" in line else line
        tokens = code.split()
        n = len(tokens)
        if not n:
            continue
        head = tokens[0]

        if head == "price":
            if n != 4:
                raise _count_error(tokens, _PRICE, code, line_no)
            _, sym, tick, price_tok = tokens
            t = int(tick) if tick.isdigit() and tick.isascii() else _int(tokens, 2, "tick", code, line_no)
            if t < 0:
                raise ParseError(f"tick must be non-negative, got {t}", line_no, _col(code, 2))
            whole, dot, cents = price_tok.partition(".")
            if price_tok.isascii() and whole.isdigit() and (not dot or cents.isdigit() and len(cents) < 3):
                price = _money(int(whole + (cents + "00")[:2]))
            else:
                try:
                    price = Money.parse(price_tok)
                except ValueError:
                    raise ParseError(
                        f"expected peso price with at most two decimals, got {price_tok!r}", line_no, _col(code, 3)
                    ) from None
                if price.is_negative:
                    raise ParseError("price must not be negative", line_no, _col(code, 3))
            if (sym, t) in quotes:
                raise ParseError(f"duplicate price for {sym} at tick {t}", line_no, _col(code, 0))
            quotes[(sym, t)] = price
            continue

        if head != "at":
            raise UnknownDirective(f"unknown directive {head!r}", line_no, _col(code, 0))
        if n < 2:
            raise _count_error(tokens, _TRADE, code, line_no)
        tick = tokens[1]
        t = int(tick) if tick.isdigit() and tick.isascii() else _int(tokens, 1, "tick", code, line_no)
        if t < 0:
            raise ParseError(f"tick must be non-negative, got {t}", line_no, _col(code, 1))
        if n < 3:
            raise _count_error(tokens, _TRADE, code, line_no)
        verb = tokens[2]

        if verb == "death":
            if n > 3 and tokens[3] != "heir":
                raise ParseError(f"expected 'heir', got {tokens[3]!r}", line_no, _col(code, 3))
            if n != 3 and n != 5:
                raise _count_error(tokens, _DEATH, code, line_no)
            events.append(Death(t, tokens[4] if n == 5 else None))
            event_lines.append(line_no)
            continue

        if verb == "cover":
            names = _COVER
        elif verb in _TRADES:
            names = _TRADE
        else:
            raise UnknownDirective(f"unknown event verb {verb!r}", line_no, _col(code, 2))
        if n != len(names):
            raise _count_error(tokens, names, code, line_no)
        count = tokens[4]
        qty = int(count) if count.isdigit() and count.isascii() else _int(tokens, 4, "share quantity", code, line_no)
        if qty <= 0:
            raise InvalidQuantity(f"quantity must be positive, got {qty}", line_no, _col(code, 4))
        if verb != "cover":
            kind = _TRADES[verb]
        elif tokens[5] in _COVERS:
            kind = _COVERS[tokens[5]]
        else:
            raise ParseError(f"expected {names[5]}, got {tokens[5]!r}", line_no, _col(code, 5))
        events.append(kind(t, tokens[3], qty))
        event_lines.append(line_no)

    try:
        return Scenario(name, PricePath(quotes), tuple(events))
    except (NonMonotonicTick, UndefinedPrice) as err:
        line_no = event_lines[err.event_index]
        raise type(err)(str(err), line_no, _col(lines[line_no - 1], 0)) from None


# The printer's inverse of the two tables: event class -> (verb, text after the quantity).
_SPELLINGS = {kind: (verb, "") for verb, kind in _TRADES.items()}
_SPELLINGS.update({kind: ("cover", f" {mode}") for mode, kind in _COVERS.items()})


def _token(text: str) -> str:
    """``text`` as one DSL token; EngineError if it is empty or would not read back as itself."""
    if "#" in text or text.split() != [text]:
        raise EngineError(f"{text!r} cannot be written as one scenario token")
    return text


def format_scenario(s: Scenario) -> str:
    """Print a scenario back into the DSL; parsing the result reproduces it.

    A subclass of an event class prints as that class.  A non-event, and a security symbol or heir
    label that is empty or holds whitespace or ``#``, raise ``EngineError``; the events are checked
    first, so one an event uses carries that event's ``event_index``.
    """
    events = []
    for index, ev in enumerate(s.events):
        try:
            if isinstance(ev, Death):
                events.append(f"at {ev.at} death" + ("" if ev.heir is None else f" heir {_token(ev.heir)}"))
            else:
                try:
                    verb, mode = _SPELLINGS.get(type(ev)) or _lookup(_SPELLINGS, ev)
                except TypeError as err:  # not a transaction event
                    raise EngineError(str(err)) from None
                events.append(f"at {ev.at} {verb} {_token(ev.sec)} {ev.qty}{mode}")
        except EngineError as err:
            raise _annotate(err, index) from None
    prices = [
        f"price {_token(sec)} {t} {pesos(price.centavos, cents=False).replace(',', '')}"
        for (sec, t), price in sorted(s.prices.quotes.items())
    ]
    return "\n".join(prices + events) + "\n"


def _abc_prices() -> PricePath:
    return PricePath.from_table(
        {"ABC": {1: Money.from_pesos(50), 2: Money.from_pesos(100), 3: Money.from_pesos(30)}}
    )


OFFSET_GRID_PRESENT = Money.from_pesos(100)
OFFSET_GRID_FUTURES = tuple(Money.from_pesos(p) for p in (25, 50, 75, 100, 125, 150, 175))


def _grid_sec(future: Money) -> str:
    return f"F{future.centavos // 100}"


def _builtin_scenarios() -> dict[str, Scenario]:
    abc = _abc_prices()
    deferral_events = (
        Buy(at=1, sec="ABC", qty=BLOCK_QTY),
        Borrow(at=2, sec="ABC", qty=BLOCK_QTY),
        ShortSell(at=2, sec="ABC", qty=BLOCK_QTY),
        CoverByOwnedLot(at=3, sec="ABC", qty=BLOCK_QTY),
    )
    death_prices = PricePath.from_table(
        {
            "ABC": {
                1: Money.from_pesos(50),
                2: Money.from_pesos(100),
                3: Money.from_pesos(130),
                4: Money.from_pesos(130),
            }
        }
    )
    grid_prices = PricePath.from_table(
        {
            _grid_sec(future): {1: OFFSET_GRID_PRESENT, 2: future}
            for future in OFFSET_GRID_FUTURES
        }
    )
    return {
        "strategy1": Scenario(
            "strategy1",
            abc,
            (Buy(at=1, sec="ABC", qty=BLOCK_QTY), SellOwned(at=2, sec="ABC", qty=BLOCK_QTY)),
        ),
        "strategy2": Scenario(
            "strategy2",
            abc,
            (Buy(at=1, sec="ABC", qty=BLOCK_QTY), SellOwned(at=3, sec="ABC", qty=BLOCK_QTY)),
        ),
        "strategy3": Scenario("strategy3", abc, deferral_events),
        "proposed_demo": Scenario("proposed_demo", abc, deferral_events),
        "death_avoidance": Scenario(
            "death_avoidance",
            death_prices,
            (
                Buy(at=1, sec="ABC", qty=BLOCK_QTY),
                Borrow(at=2, sec="ABC", qty=BLOCK_QTY),
                ShortSell(at=2, sec="ABC", qty=BLOCK_QTY),
                Death(at=3, heir="Y"),
                CoverByOwnedLot(at=4, sec="ABC", qty=BLOCK_QTY),
            ),
        ),
        "offset_grid": Scenario("offset_grid", grid_prices, ()),
    }


_BUILTINS = _builtin_scenarios()
BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> Scenario:
    """The named built-in scenario: built once, the same frozen object on every call."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownScenario(name, BUILTIN_NAMES) from None


@record
class CashPoint:
    at: Tick
    delta: Money
    cumulative: Money


@record
class InventorySummary:
    owned: tuple[tuple[SecurityId, int], ...]
    borrowed_outstanding: tuple[tuple[SecurityId, int], ...]
    owner_generation: int


@record
class RunReport:
    """Everything one regime run produced; formatters only render these values."""

    scenario: str
    regime: Regime
    schedule: RateSchedule
    window: NettingWindow
    events: tuple[RealizationEvent, ...]
    tax_lines: tuple[TaxLine, ...]
    cash_timeline: tuple[CashPoint, ...]
    total_tax: Money
    final_cash: Money
    inventory: InventorySummary

    def to_dict(self) -> dict:
        events, taxes, cash = _columns(self)
        return {
            "scenario": self.scenario,
            "regime": self.regime._value_,
            "schedule": self.schedule._value_,
            "window": self.window._value_,
            "events": [
                {"tick": t, "kind": k, "security": s, "qty": q, "amount_realized_per_share": a,
                 "basis_per_share": b, "gain_per_share": g, "gain_total": gt}
                for t, k, s, q, a, b, g, gt in zip(*events)
            ],
            "tax": [{"tick": t, "net_capital_gain": n, "tax_due": d} for t, n, d in zip(*taxes)],
            "cash": [{"tick": t, "delta": d, "cumulative": c} for t, d, c in zip(*cash)],
            "totals": {
                "total_tax": self.total_tax.centavos,
                "final_cash": self.final_cash.centavos,
                "inventory": {
                    "owned": dict(self.inventory.owned),
                    "borrowed_outstanding": dict(self.inventory.borrowed_outstanding),
                    "owner_generation": self.inventory.owner_generation,
                },
            },
        }


def _columns(report: RunReport) -> tuple[list[list], list[list], list[list]]:
    """What ``to_dict`` and every CLI writer read, by column: events (tick, kind, security, qty,
    amount/sh, basis/sh, gain/sh, gain total), tax lines (tick, net capital gain, tax due) and cash
    points (tick, delta, cumulative).  Kinds are read through ``_value_``, not the enum's slow ``value``
    property, and the two gains are ``RealizationEvent.gain_centavos`` worked column by column."""
    events, taxes, cash = report.events, report.tax_lines, report.cash_timeline
    amounts = [e.amount_realized_per_share.centavos for e in events]
    bases = [e.basis_per_share.centavos for e in events]
    qtys = [e.qty for e in events]
    per_share = [a - b for a, b in zip(amounts, bases)]
    return (
        [[e.at for e in events], [e.kind._value_ for e in events], [e.sec for e in events], qtys, amounts, bases,
         per_share, [g * q for g, q in zip(per_share, qtys)]],
        [[t.period for t in taxes], [t.net_capital_gain.centavos for t in taxes], [t.tax_due.centavos for t in taxes]],
        [[p.at for p in cash], [p.delta.centavos for p in cash], [p.cumulative.centavos for p in cash]],
    )


def run(
    scenario: Scenario,
    regime: Regime = Regime.CURRENT,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
    window: NettingWindow = NettingWindow.PER_TICK,
) -> RunReport:
    """Apply the scenario under one regime and aggregate the full report.

    Deterministic: identical inputs always serialize to identical reports.
    Ledger and market errors propagate annotated with the offending event
    index (``event_index`` attribute).
    """
    ledger = Ledger()
    realized: list[RealizationEvent] = []
    # Ticks never decrease, so each tick's events are adjacent: a point per tick where some event moved cash.
    cash_ticks: list[Tick] = []
    cash_deltas: list[int] = []
    prices = scenario.prices

    for index, ev in enumerate(scenario.events):
        try:
            ledger, effects = apply_event(ledger, ev, prices)
            events, ledger = realize(effects, regime, ledger)
        except EngineError as err:
            raise _annotate(err, index)
        realized += events
        delta = effects.cash_delta.centavos
        if delta:
            if cash_ticks and cash_ticks[-1] == ev.at:
                cash_deltas[-1] += delta
            else:
                cash_ticks.append(ev.at)
                cash_deltas.append(delta)

    timeline = tuple(map(CashPoint, cash_ticks, map(_money, cash_deltas), map(_money, accumulate(cash_deltas))))
    lines = tax_timeline(realized, window, schedule)
    securities = sorted(ledger.securities())
    inventory = InventorySummary(
        tuple((s, ledger.owned_qty(s)) for s in securities if ledger.lots_of(s)),
        tuple((s, ledger.outstanding_qty(s)) for s in securities if ledger.borrows_of(s)),
        ledger.owner_generation,
    )
    return RunReport(
        scenario.name, regime, schedule, window, tuple(realized), tuple(lines),
        timeline, total_tax(lines), ledger.cash, inventory,
    )


@record
class TaxDelta:
    at: Tick
    current_tax: Money
    proposed_tax: Money

    @property
    def delta(self) -> Money:
        return self.proposed_tax - self.current_tax


@record
class ComparisonReport:
    """Side-by-side regime comparison of one scenario."""

    scenario: str
    schedule: RateSchedule
    window: NettingWindow
    current: RunReport
    proposed: RunReport
    tax_deltas: tuple[TaxDelta, ...]

    @property
    def total_delta(self) -> Money:
        return self.proposed.total_tax - self.current.total_tax

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "schedule": self.schedule.value,
            "window": self.window.value,
            "current": self.current.to_dict(),
            "proposed": self.proposed.to_dict(),
            "deltas": [
                {"tick": d.at, "current_tax": d.current_tax.centavos, "proposed_tax": d.proposed_tax.centavos,
                 "delta": d.delta.centavos}
                for d in self.tax_deltas
            ],
            "total_delta": self.total_delta.centavos,
        }


def compare(
    scenario: Scenario,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
    window: NettingWindow = NettingWindow.PER_TICK,
) -> ComparisonReport:
    """Run both regimes and line their tax timelines up tick by tick; an error of the current run wins.

    Where no short sale can reserve owned shares (``realization._may_reserve``), the proposed regime
    takes the current path, and its report is the current one's fields under its own regime."""
    current = run(scenario, Regime.CURRENT, schedule, window)
    if _may_reserve(scenario.events):
        proposed = run(scenario, Regime.PROPOSED, schedule, window)
    else:
        proposed = RunReport(
            current.scenario, Regime.PROPOSED, schedule, window, current.events, current.tax_lines,
            current.cash_timeline, current.total_tax, current.final_cash, current.inventory,
        )
    by_tick_current = {line.period: line.tax_due for line in current.tax_lines}
    by_tick_proposed = {line.period: line.tax_due for line in proposed.tax_lines}
    deltas = tuple(
        TaxDelta(t, by_tick_current.get(t, _ZERO), by_tick_proposed.get(t, _ZERO))
        for t in sorted(by_tick_current.keys() | by_tick_proposed.keys())
    )
    return ComparisonReport(scenario.name, schedule, window, current, proposed, deltas)


@record
class GridRow:
    """One future price of the offsetting grid, run as both transaction shapes."""

    future_price: Money
    present_price: Money
    ordinary_gain_per_share: Money
    short_gain_per_share: Money


def _two_tick(
    prices: PricePath, sec: SecurityId, open_at: Tick, close_at: Tick, short: bool = False,
    qty: int = BLOCK_QTY,
) -> Scenario:
    """``qty`` shares of ``sec`` bought at ``open_at`` and sold at ``close_at``.

    With ``short``, they are borrowed and sold short at ``open_at`` and
    covered by purchase at ``close_at`` instead.
    """
    if short:
        events = (Borrow(open_at, sec, qty), ShortSell(open_at, sec, qty), CoverByPurchase(close_at, sec, qty))
    else:
        events = (Buy(open_at, sec, qty), SellOwned(close_at, sec, qty))
    return Scenario(f"{'short' if short else 'ordinary'}_{sec}", prices, events)


def offset_grid_rows(qty: int = BLOCK_QTY) -> list[GridRow]:
    """Run the grid's ordinary-sale and short-cycle legs for each future price.

    Each future price becomes two independent two-tick runs: buy now and sell
    later, and short now and cover by purchase later.
    """
    prices = builtin("offset_grid").prices
    rows = []
    for future in OFFSET_GRID_FUTURES:
        sec = _grid_sec(future)
        (ordinary,) = run(_two_tick(prices, sec, 1, 2, qty=qty)).events
        (short,) = run(_two_tick(prices, sec, 1, 2, short=True, qty=qty)).events
        rows.append(GridRow(future, OFFSET_GRID_PRESENT, ordinary.gain_per_share, short.gain_per_share))
    return rows
