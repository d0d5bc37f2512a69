"""Scenario descriptions, the line-oriented DSL, built-ins, and the runner.

DSL grammar (UTF-8, one directive per line, a line ending at ``\\n``,
``\\r\\n`` or ``\\r`` as ``open()`` reads it, ``#`` starts a comment,
whitespace-separated tokens):

    price <SYM> <tick> <price>
    at <tick> buy <SYM> <qty>
    at <tick> borrow <SYM> <qty>
    at <tick> short-sell <SYM> <qty>
    at <tick> sell <SYM> <qty>
    at <tick> cover <SYM> <qty> (by-purchase | with-owned)
    at <tick> death [heir <LABEL>]

Numbers are written in ASCII digits, each kind read in one place: ``_int``
reads ticks and quantities, ``_price`` prices.  One parser reads every line;
its errors carry the line and column of the offending token.
``Scenario`` alone checks that event ticks are non-decreasing and that every
event's (security, tick) carries a price directive; the parser re-raises
those errors at the event's line.
"""

from __future__ import annotations

import re
import sys
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
    _may_reserve,
    apply_event,
)
from .market import _ZERO, Money, PricePath, SecurityId, Tick, _money, pesos, record
from .realization import _RULES, RealizationEvent, Regime, realize
from .taxation import NettingWindow, RateSchedule, TaxLine, _misfit, tax_timeline

BLOCK_QTY = 100_000
_BEFORE_ANY_TICK = float("-inf")  # what a scenario's first tick is compared with

# bench/spans.py looks these two names up: the ledger's two owned-share walks.
sell_policy, cover_policy = Ledger._unreserved, Ledger._settle


def _annotate(err: EngineError, index: int) -> EngineError:
    err.event_index = index
    return err


@record
class Scenario:
    """A price path plus a tick-ordered list of transaction events.

    Building one raises, with the offending ``event_index``, ``EngineError``
    for an object whose class has no ``_step`` (not an event, or a bare trade),
    ``NonMonotonicTick`` when a tick is not an ``int`` (a ``bool`` neither) or
    ticks decrease, ``UndefinedPrice`` when an event has no price, and
    ``InvalidSymbol`` when a security symbol or heir label is not a ``str`` or
    holds a character neither printable nor whitespace (an escape, a NUL, a
    bidi override).  Its ``PricePath`` checked its quote keys.
    """

    name: str
    prices: PricePath
    events: tuple[TransactionEvent, ...] = ()

    def __post_init__(self) -> None:
        last = _BEFORE_ANY_TICK
        quotes = self.prices.quotes
        for index, ev in enumerate(self.events):
            if not hasattr(type(ev), "_step"):
                raise _annotate(EngineError(f"unknown transaction event {ev!r}"), index)
            at = ev.at
            if type(at) is not int or at < last:  # a tick of any other type cannot be ordered
                raise _annotate(NonMonotonicTick(
                    f"event tick {at} precedes earlier tick {last}" if type(at) is int
                    else f"event tick must be an int, got {type(at).__name__} {at!r}"), index)
            last = at
            if type(ev) is Death:
                if ev.heir is not None and (err := _refused("heir label", ev.heir)):
                    raise _annotate(err, index)
            elif not (type(ev.sec) is str and ev.sec.isprintable()) and (err := _refused("security symbol", ev.sec)):
                raise _annotate(err, index)
            elif (ev.sec, at) not in quotes:
                raise _annotate(UndefinedPrice(f"no price for {ev.sec} at tick {ev.at}"), index)


def _refused(what: str, value: object) -> InvalidSymbol | None:
    """The error for a symbol or label that is not a ``str`` of printable characters and whitespace, or None."""
    if not isinstance(value, str):
        return InvalidSymbol(f"{what} must be a str, got {type(value).__name__} {value!r}")
    if not "".join(value.split()).isprintable():  # the writers quote whitespace; the DSL cannot spell it
        return InvalidSymbol(f"{what} must be printable, got {value!r}")
    return None


_TRADES = {"buy": Buy, "borrow": Borrow, "short-sell": ShortSell, "sell": SellOwned}
_COVERS = {"by-purchase": CoverByPurchase, "with-owned": CoverByOwnedLot}

# What each token of a directive is, for "expected ..." messages.
_PRICE = ("price", "security symbol", "tick", "price")
_TRADE = ("at", "tick", "event verb", "security symbol", "share quantity")
_COVER = (*_TRADE, "'by-purchase' or 'with-owned'")
_DEATH = ("at", "tick", "death", "'heir'", "heir label")

_TOKEN_RE = re.compile(r"\S+")


def _max_digits() -> int:
    """The most digits ``int()`` reads from text or writes to it (4,300 unless ``PYTHONINTMAXSTRDIGITS``
    sets it), or 0 where there is no limit (Python before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _lines(text: str) -> list[str]:
    """``text`` split where ``open()`` ends a line: at ``\\n``, ``\\r\\n`` and ``\\r`` only.  Unlike
    ``str.splitlines``, the other line breaks (``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028,
    U+2029) stay inside a line, where they are whitespace."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


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


def _int(tokens: list[str], index: int, what: str, code: str, line_no: int, limit: int) -> int:
    """Token ``index`` read as an integer spelled ``-?[0-9]+`` in ASCII, of at most ``limit`` digits.

    Exactly this spelling: int() would also take '+', '_' and other scripts' digits.
    """
    token = tokens[index]
    if token.isdigit() and token.isascii() and len(token) <= limit:
        return int(token)
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isdigit() and digits.isascii()):
        raise ParseError(f"expected {what}, got {token!r}", line_no, _col(code, index))
    if len(digits) > limit:
        raise ParseError(f"{what} has more than {limit:,} digits", line_no, _col(code, index))
    return int(token)


def _price(tokens: list[str], code: str, line_no: int, limit: int) -> Money:
    """Token 3 read as a peso price spelled ``-?[0-9]+(.[0-9]{1,2})?`` in ASCII.

    Its spelling is checked first, then its digits, with or without a sign, against ``limit``
    (it is read in centavos), then its sign: ``-0`` and ``-0.00`` are a zero price.
    """
    token = tokens[3]
    whole, dot, cents = token.partition(".")
    digits = whole[1:] if whole[:1] == "-" else whole
    if not (token.isascii() and digits.isdigit() and (not dot or cents.isdigit() and len(cents) < 3)):
        raise ParseError(f"expected peso price with at most two decimals, got {token!r}", line_no, _col(code, 3))
    if len(digits) + 2 > limit:
        raise ParseError(f"price has more than {limit - 2:,} digits before the point", line_no, _col(code, 3))
    centavos = int(digits + (cents + "00")[:2])
    if centavos and whole[0] == "-":
        raise ParseError("price must not be negative", line_no, _col(code, 3))
    return _money(centavos)


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse DSL text into a validated scenario.  ``_int`` reads every tick and quantity, and ``_price``
    every price."""
    return _parse(text, name)[0]


def _parse(text: str, name: str) -> tuple[Scenario, list[int]]:
    """``parse_scenario``'s scenario, and the line number of each of its events."""
    quotes: dict[tuple[SecurityId, Tick], Money] = {}
    events: list[TransactionEvent] = []
    event_lines: list[int] = []
    lines = _lines(text)
    limit = _max_digits() or sys.maxsize

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
            sym = tokens[1]
            if not sym.isprintable():
                raise ParseError(f"security symbol must be printable, got {sym!r}", line_no, _col(code, 1))
            t = _int(tokens, 2, "tick", code, line_no, limit)
            if t < 0:
                raise ParseError(f"tick must be non-negative, got {t}", line_no, _col(code, 2))
            price = _price(tokens, code, line_no, limit)
            if (sym, t) in quotes:
                raise ParseError(f"duplicate price for {sym} at tick {t}", line_no, _col(code, 0))
            quotes[(sym, t)] = price
            continue

        if head != "at":
            raise UnknownDirective(f"unknown directive {head!r}", line_no, _col(code, 0))
        if n < 2:
            raise _count_error(tokens, _TRADE, code, line_no)
        t = _int(tokens, 1, "tick", code, line_no, limit)
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
            if n == 5 and not tokens[4].isprintable():
                raise ParseError(f"heir label must be printable, got {tokens[4]!r}", line_no, _col(code, 4))
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
        qty = _int(tokens, 4, "share quantity", code, line_no, limit)
        if qty <= 0:
            raise InvalidQuantity(f"quantity must be positive, got {qty}", line_no, _col(code, 4))
        if verb != "cover":
            kind = _TRADES[verb]
        elif tokens[5] in _COVERS:
            kind = _COVERS[tokens[5]]
        else:
            raise ParseError(f"expected {names[5]}, got {tokens[5]!r}", line_no, _col(code, 5))
        if not tokens[3].isprintable():
            raise ParseError(f"security symbol must be printable, got {tokens[3]!r}", line_no, _col(code, 3))
        events.append(kind(t, tokens[3], qty))
        event_lines.append(line_no)

    try:
        return Scenario(name, PricePath(quotes), tuple(events)), event_lines
    except (NonMonotonicTick, UndefinedPrice) as err:
        line_no = event_lines[err.event_index]
        raise type(err)(str(err), line_no, _col(lines[line_no - 1], 0)) from None


# The printer's inverse of the two tables: trade class -> (verb, text after the quantity).
_SPELLINGS = {kind: (verb, "") for verb, kind in _TRADES.items()}
_SPELLINGS.update({kind: ("cover", f" {mode}") for mode, kind in _COVERS.items()})


def _token(text: str) -> str:
    """``text`` as one DSL token; EngineError if it is empty or would not read back as itself."""
    if "#" in text or text.split() != [text] or not text.isprintable():
        raise EngineError(f"{text!r} cannot be written as one scenario token")
    return text


def format_scenario(s: Scenario) -> str:
    """Print a scenario back into the DSL; parsing the result reproduces it.

    What the parser would refuse raises ``EngineError``: a security symbol or heir label that is
    empty or holds whitespace, ``#`` or a control character, a tick that is not a non-negative
    ``int``, a negative price, and a tick, quantity or centavo amount of more digits than ``int()``
    reads.  The events are checked first, so an error in one carries its ``event_index``; a quote's
    error names the quote.  Each event prints by its exact class: the event classes are final.
    """
    bound = 10 ** limit if (limit := _max_digits()) else float("inf")  # the least number too long to read
    events = []
    for index, ev in enumerate(s.events):
        try:
            if type(ev.at) is not int or ev.at < 0:
                raise EngineError(f"tick must be a non-negative int to be written, got {ev.at!r}")
            if ev.at >= bound or type(ev) is not Death and ev.qty >= bound:
                raise EngineError(f"a tick or quantity of more than {limit:,} digits cannot be written")
            if type(ev) is Death:
                events.append(f"at {ev.at} death" + ("" if ev.heir is None else f" heir {_token(ev.heir)}"))
            else:
                verb, mode = _SPELLINGS[type(ev)]
                events.append(f"at {ev.at} {verb} {_token(ev.sec)} {ev.qty}{mode}")
        except EngineError as err:
            raise _annotate(err, index) from None
    prices = []
    for (sec, t), price in sorted(s.prices.quotes.items()):
        if type(t) is not int or t < 0 or price.centavos < 0:
            raise EngineError(f"quote {(sec, t)!r} of {price} cannot be written: tick and price must be non-negative")
        if t >= bound or price.centavos >= bound:
            raise EngineError(f"a quote of {sec!r} cannot be written: it has more than {limit:,} digits")
        prices.append(f"price {_token(sec)} {t} {pesos(price.centavos, cents=False).replace(',', '')}")
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
    """The pre-tax cash one tick moved, and the running total through that tick."""

    at: Tick
    delta: Money
    cumulative: Money


@record
class InventorySummary:
    """Shares owned and borrowed shares still owed per security at the end of a run, and the owner generation."""

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
    index (``event_index`` attribute); a regime, schedule or window that is
    not a member of its enum raises ``TypeError``, the last two after the events.
    """
    if type(regime) is not Regime:
        raise _misfit(("regime", regime, Regime))
    ledger = Ledger(regime is Regime.PROPOSED)
    realized: list[RealizationEvent] = []
    # Ticks never decrease, so each tick's events are adjacent: a point per tick where some event moved cash.
    cash_ticks: list[Tick] = []
    cash_deltas: list[int] = []
    prices = scenario.prices

    for index, ev in enumerate(scenario.events):
        try:
            ledger, effects = apply_event(ledger, ev, prices)
            if type(ev)._step in _RULES:  # a buy, a borrow or a death realizes nothing
                events, ledger = realize(effects, regime, ledger)
                realized += events
        except EngineError as err:
            raise _annotate(err, index)
        delta = effects.cash_centavos
        if delta:
            if cash_ticks and cash_ticks[-1] == ev.at:
                cash_deltas[-1] += delta
            else:
                cash_ticks.append(ev.at)
                cash_deltas.append(delta)

    timeline = tuple(map(CashPoint, cash_ticks, map(_money, cash_deltas), map(_money, accumulate(cash_deltas))))
    lines = tax_timeline(realized, window, schedule)
    tax = 0
    for line in lines:
        tax += line.tax_due.centavos
    # The inventory in one pass over the ledger's live per-security queues; an emptied one reports nothing.
    owned = [(s, sum([lot.qty for lot in lots])) for s, lots in ledger._lots.items() if lots]
    owing = [(s, sum([p.qty for p in shorts]) + sum([p.qty for p in unsold]))
             for s, (shorts, unsold) in ledger._borrows.items() if shorts or unsold]
    owned.sort()
    owing.sort()
    inventory = InventorySummary(tuple(owned), tuple(owing), ledger.owner_generation)
    return RunReport(
        scenario.name, regime, schedule, window, tuple(realized), tuple(lines),
        timeline, _money(tax), timeline[-1].cumulative if timeline else _ZERO, inventory,
    )


@record
class TaxDelta:
    """The tax one tick owes under the current and the proposed regime."""

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

    Where no short sale can reserve owned shares (``ledger._may_reserve``), the proposed regime
    takes the current path, and its report is the current one's fields under its own regime."""
    current = run(scenario, Regime.CURRENT, schedule, window)
    if not _may_reserve(scenario.events):
        proposed = RunReport(
            current.scenario, Regime.PROPOSED, schedule, window, current.events, current.tax_lines,
            current.cash_timeline, current.total_tax, current.final_cash, current.inventory,
        )
        # The shared tax lines come one per tick, in tick order: each line is its own delta.
        deltas = tuple([TaxDelta(line.period, line.tax_due, line.tax_due) for line in current.tax_lines])
        return ComparisonReport(scenario.name, schedule, window, current, proposed, deltas)
    proposed = run(scenario, Regime.PROPOSED, schedule, window)
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


def _two_tick(prices: PricePath, sec: SecurityId, open_at: Tick, close_at: Tick, short: bool = False) -> Scenario:
    """``BLOCK_QTY`` shares of ``sec`` bought at ``open_at`` and sold at ``close_at``.

    With ``short``, they are borrowed and sold short at ``open_at`` and
    covered by purchase at ``close_at`` instead.
    """
    qty = BLOCK_QTY
    if short:
        events = (Borrow(open_at, sec, qty), ShortSell(open_at, sec, qty), CoverByPurchase(close_at, sec, qty))
    else:
        events = (Buy(open_at, sec, qty), SellOwned(close_at, sec, qty))
    return Scenario(f"{'short' if short else 'ordinary'}_{sec}", prices, events)


def offset_grid_rows() -> list[GridRow]:
    """Run the grid's ordinary-sale and short-cycle legs for each future price.

    Each future price becomes two independent two-tick runs: buy now and sell
    later, and short now and cover by purchase later.
    """
    prices = builtin("offset_grid").prices
    rows = []
    for future in OFFSET_GRID_FUTURES:
        sec = _grid_sec(future)
        (ordinary,) = run(_two_tick(prices, sec, 1, 2)).events
        (short,) = run(_two_tick(prices, sec, 1, 2, short=True)).events
        rows.append(GridRow(future, OFFSET_GRID_PRESENT, ordinary.gain_per_share, short.gain_per_share))
    return rows
