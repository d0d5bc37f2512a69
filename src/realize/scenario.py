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

from .errors import (
    EngineError,
    InvalidQuantity,
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
    apply_event,
)
from .market import Money, PricePath, SecurityId, Tick, _money, pesos, record
from .realization import RealizationEvent, Regime, realize
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
    offending ``event_index``, when ticks decrease or an event has no price.
    """

    name: str
    prices: PricePath
    events: tuple[TransactionEvent, ...] = ()

    def __post_init__(self) -> None:
        last = None
        for index, ev in enumerate(self.events):
            if last is not None and ev.at < last:
                raise _annotate(
                    NonMonotonicTick(f"event tick {ev.at} precedes earlier tick {last}"), index
                )
            last = ev.at
            if not isinstance(ev, Death) and not self.prices.has(ev.sec, ev.at):
                raise _annotate(UndefinedPrice(f"no price for {ev.sec} at tick {ev.at}"), index)


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
    """Parse DSL text into a validated scenario."""
    quotes: dict[tuple[SecurityId, Tick], Money] = {}
    events: list[TransactionEvent] = []
    event_lines: list[int] = []
    lines = text.splitlines()

    for line_no, line in enumerate(lines, start=1):
        code = line.partition("#")[0]
        tokens = code.split()
        n = len(tokens)
        if not n:
            continue
        head = tokens[0]

        if head == "price":
            if n != 4:
                raise _count_error(tokens, _PRICE, code, line_no)
            _, sym, _, price_tok = tokens
            t = _int(tokens, 2, "tick", code, line_no)
            if t < 0:
                raise ParseError(f"tick must be non-negative, got {t}", line_no, _col(code, 2))
            try:
                price = Money.parse(price_tok)
            except ValueError:
                raise ParseError(
                    f"expected peso price with at most two decimals, got {price_tok!r}",
                    line_no,
                    _col(code, 3),
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
        t = _int(tokens, 1, "tick", code, line_no)
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
        qty = _int(tokens, 4, "share quantity", code, line_no)
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

    A security symbol or heir label that is empty, or holds whitespace or
    ``#``, raises ``EngineError``; the events are checked first, so one an
    event uses carries that event's ``event_index``.
    """
    events = []
    for index, ev in enumerate(s.events):
        try:
            if isinstance(ev, Death):
                events.append(f"at {ev.at} death" + ("" if ev.heir is None else f" heir {_token(ev.heir)}"))
            else:
                verb, mode = _SPELLINGS[type(ev)]
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
        events = []
        for e in self.events:
            gain_per_share, gain_total = e.gain_centavos
            events.append({
                "tick": e.at,
                "kind": e.kind.value,
                "security": e.sec,
                "qty": e.qty,
                "amount_realized_per_share": e.amount_realized_per_share.centavos,
                "basis_per_share": e.basis_per_share.centavos,
                "gain_per_share": gain_per_share,
                "gain_total": gain_total,
            })
        return {
            "scenario": self.scenario,
            "regime": self.regime.value,
            "schedule": self.schedule.value,
            "window": self.window.value,
            "events": events,
            "tax": [
                {
                    "tick": line.period,
                    "net_capital_gain": line.net_capital_gain.centavos,
                    "tax_due": line.tax_due.centavos,
                }
                for line in self.tax_lines
            ],
            "cash": [
                {"tick": p.at, "delta": p.delta.centavos, "cumulative": p.cumulative.centavos}
                for p in self.cash_timeline
            ],
            "totals": {
                "total_tax": self.total_tax.centavos,
                "final_cash": self.final_cash.centavos,
                "inventory": {
                    "owned": {sec: qty for sec, qty in self.inventory.owned},
                    "borrowed_outstanding": {
                        sec: qty for sec, qty in self.inventory.borrowed_outstanding
                    },
                    "owner_generation": self.inventory.owner_generation,
                },
            },
        }


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
    cash_deltas: dict[Tick, int] = {}

    for index, ev in enumerate(scenario.events):
        try:
            ledger, effects = apply_event(ledger, ev, scenario.prices)
            events, ledger = realize(effects, regime, ledger)
        except EngineError as err:
            raise _annotate(err, index)
        realized.extend(events)
        delta = effects.cash_delta.centavos
        if delta:
            cash_deltas[ev.at] = cash_deltas.get(ev.at, 0) + delta

    timeline: list[CashPoint] = []
    cumulative = 0
    for t in sorted(cash_deltas):
        cumulative += cash_deltas[t]
        timeline.append(CashPoint(t, _money(cash_deltas[t]), _money(cumulative)))

    lines = tax_timeline(realized, window, schedule)
    securities = sorted(ledger.securities())
    return RunReport(
        scenario=scenario.name,
        regime=regime,
        schedule=schedule,
        window=window,
        events=tuple(realized),
        tax_lines=tuple(lines),
        cash_timeline=tuple(timeline),
        total_tax=total_tax(lines),
        final_cash=ledger.cash,
        inventory=InventorySummary(
            owned=tuple((s, ledger.owned_qty(s)) for s in securities if ledger.lots_of(s)),
            borrowed_outstanding=tuple(
                (s, ledger.outstanding_qty(s)) for s in securities if ledger.borrows_of(s)
            ),
            owner_generation=ledger.owner_generation,
        ),
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
                {
                    "tick": d.at,
                    "current_tax": d.current_tax.centavos,
                    "proposed_tax": d.proposed_tax.centavos,
                    "delta": d.delta.centavos,
                }
                for d in self.tax_deltas
            ],
            "total_delta": self.total_delta.centavos,
        }


def compare(
    scenario: Scenario,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
    window: NettingWindow = NettingWindow.PER_TICK,
) -> ComparisonReport:
    """Run both regimes and line their tax timelines up tick by tick."""
    current = run(scenario, Regime.CURRENT, schedule, window)
    proposed = run(scenario, Regime.PROPOSED, schedule, window)
    by_tick_current = {line.period: line.tax_due for line in current.tax_lines}
    by_tick_proposed = {line.period: line.tax_due for line in proposed.tax_lines}
    ticks = sorted(set(by_tick_current) | set(by_tick_proposed))
    deltas = tuple(
        TaxDelta(
            at=t,
            current_tax=by_tick_current.get(t, Money.zero()),
            proposed_tax=by_tick_proposed.get(t, Money.zero()),
        )
        for t in ticks
    )
    return ComparisonReport(
        scenario=scenario.name,
        schedule=schedule,
        window=window,
        current=current,
        proposed=proposed,
        tax_deltas=deltas,
    )


@record
class GridRow:
    """One future price of the offsetting grid, run as both transaction shapes."""

    future_price: Money
    present_price: Money
    ordinary_gain_per_share: Money
    short_gain_per_share: Money


def offset_grid_rows(qty: int = BLOCK_QTY) -> list[GridRow]:
    """Run the grid's ordinary-sale and short-cycle legs for each future price.

    Each future price becomes two independent two-tick runs: buy now and sell
    later, and short now and cover by purchase later.
    """
    grid = builtin("offset_grid")
    rows = []
    for future in OFFSET_GRID_FUTURES:
        sec = _grid_sec(future)
        ordinary = Scenario(
            f"grid_ordinary_{sec}",
            grid.prices,
            (Buy(at=1, sec=sec, qty=qty), SellOwned(at=2, sec=sec, qty=qty)),
        )
        short = Scenario(
            f"grid_short_{sec}",
            grid.prices,
            (
                Borrow(at=1, sec=sec, qty=qty),
                ShortSell(at=1, sec=sec, qty=qty),
                CoverByPurchase(at=2, sec=sec, qty=qty),
            ),
        )
        ordinary_report = run(ordinary)
        short_report = run(short)
        (ordinary_event,) = ordinary_report.events
        (short_event,) = short_report.events
        rows.append(
            GridRow(
                future_price=future,
                present_price=OFFSET_GRID_PRESENT,
                ordinary_gain_per_share=ordinary_event.gain_per_share,
                short_gain_per_share=short_event.gain_per_share,
            )
        )
    return rows
