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

Ticks, quantities and prices are written in ASCII digits.  Event ticks must
be non-decreasing and every event's (security, tick) must carry a price
directive.  Parse failures raise errors with line and column.
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
from .market import Money, PricePath, SecurityId, Tick, _money, record
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


@record
class Scenario:
    """A price path plus a tick-ordered list of transaction events."""

    name: str
    prices: PricePath
    events: tuple[TransactionEvent, ...] = ()

    def __post_init__(self) -> None:
        last = None
        for ev in self.events:
            if last is not None and ev.at < last:
                raise NonMonotonicTick(
                    f"event at tick {ev.at} after tick {last} in scenario {self.name!r}"
                )
            last = ev.at
            if not isinstance(ev, Death) and not self.prices.has(ev.sec, ev.at):
                raise UndefinedPrice(f"no price for {ev.sec} at tick {ev.at}")

    @property
    def heir_label(self) -> str | None:
        for ev in self.events:
            if isinstance(ev, Death) and ev.heir is not None:
                return ev.heir
        return None


_TOKEN_RE = re.compile(r"\S+")


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Split a line into (token, 1-based column) pairs, dropping comments."""
    comment = line.find("#")
    if comment != -1:
        line = line[:comment]
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


_INT_RE = re.compile(r"-?[0-9]+")


def _parse_int(token: str, what: str, line_no: int, col: int) -> int:
    # Exactly this spelling: int() would also take '+', '_' and other scripts' digits.
    if _INT_RE.fullmatch(token):
        return int(token)
    raise ParseError(f"expected {what}, got {token!r}", line_no, col)


def _parse_qty(token: str, line_no: int, col: int) -> int:
    qty = _parse_int(token, "share quantity", line_no, col)
    if qty <= 0:
        raise InvalidQuantity(f"quantity must be positive, got {qty}", line_no, col)
    return qty


def _parse_tick(token: str, line_no: int, col: int) -> int:
    t = _parse_int(token, "tick", line_no, col)
    if t < 0:
        raise ParseError(f"tick must be non-negative, got {t}", line_no, col)
    return t


def _expect(tokens: list[tuple[str, int]], index: int, what: str, line_no: int) -> tuple[str, int]:
    if index >= len(tokens):
        last_col = tokens[-1][1] + len(tokens[-1][0]) if tokens else 1
        raise ParseError(f"expected {what}", line_no, last_col)
    return tokens[index]


_TRADES = {"buy": Buy, "borrow": Borrow, "short-sell": ShortSell, "sell": SellOwned}
_COVERS = {"by-purchase": CoverByPurchase, "with-owned": CoverByOwnedLot}


def _ascii_digits(token: str) -> bool:
    return token.isdigit() and token.isascii()


def _parse_plain(
    line: str,
    quotes: dict[tuple[SecurityId, Tick], Money],
    raw_events: list[tuple[TransactionEvent, int, int]],
    line_no: int,
) -> bool:
    """Take a well-formed ``price`` or trade line by ``str.split()``.

    Returns False, having changed nothing, for any line it cannot prove
    well-formed (comments, deaths, errors of every kind); the column-tracking
    parser then reads that line and reports any error.
    """
    if "#" in line:
        return False
    tokens = line.split()
    n = len(tokens)
    if n == 4 and tokens[0] == "price":
        _, sym, tick, price = tokens
        whole, dot, frac = price.partition(".")
        if not (_ascii_digits(tick) and _ascii_digits(whole)):
            return False
        if dot and not (len(frac) <= 2 and _ascii_digits(frac)):
            return False
        key = (sym, int(tick))
        if key in quotes:
            return False
        quotes[key] = _money(int(whole) * 100 + (int(frac.ljust(2, "0")) if dot else 0))
        return True
    if n < 5 or n > 6 or tokens[0] != "at":
        return False
    tick, verb, sym, qty = tokens[1:5]
    trade = _TRADES.get(verb) if n == 5 else _COVERS.get(tokens[5]) if verb == "cover" else None
    if trade is None or not (_ascii_digits(tick) and _ascii_digits(qty)) or int(qty) == 0:
        return False
    col = len(line) - len(line.lstrip()) + 1
    raw_events.append((trade(int(tick), sym, int(qty)), line_no, col))
    return True


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse DSL text into a validated scenario."""
    quotes: dict[tuple[SecurityId, Tick], Money] = {}
    raw_events: list[tuple[TransactionEvent, int, int]] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        if _parse_plain(line, quotes, raw_events, line_no):
            continue
        tokens = _tokenize(line)
        if not tokens:
            continue
        head, head_col = tokens[0]

        if head == "price":
            sym, _ = _expect(tokens, 1, "security symbol", line_no)
            tick_tok, tick_col = _expect(tokens, 2, "tick", line_no)
            price_tok, price_col = _expect(tokens, 3, "price", line_no)
            if len(tokens) > 4:
                raise ParseError("unexpected trailing tokens", line_no, tokens[4][1])
            t = _parse_tick(tick_tok, line_no, tick_col)
            try:
                price = Money.parse(price_tok)
            except ValueError:
                raise ParseError(
                    f"expected peso price with at most two decimals, got {price_tok!r}",
                    line_no,
                    price_col,
                ) from None
            if price.is_negative:
                raise ParseError("price must not be negative", line_no, price_col)
            if (sym, t) in quotes:
                raise ParseError(f"duplicate price for {sym} at tick {t}", line_no, head_col)
            quotes[(sym, t)] = price
            continue

        if head != "at":
            raise UnknownDirective(f"unknown directive {head!r}", line_no, head_col)

        tick_tok, tick_col = _expect(tokens, 1, "tick", line_no)
        t = _parse_tick(tick_tok, line_no, tick_col)
        verb, verb_col = _expect(tokens, 2, "event verb", line_no)

        if verb == "death":
            heir = None
            if len(tokens) > 3:
                kw, kw_col = tokens[3]
                if kw != "heir":
                    raise ParseError(f"expected 'heir', got {kw!r}", line_no, kw_col)
                heir, _ = _expect(tokens, 4, "heir label", line_no)
                if len(tokens) > 5:
                    raise ParseError("unexpected trailing tokens", line_no, tokens[5][1])
            raw_events.append((Death(at=t, heir=heir), line_no, head_col))
            continue

        if verb in _TRADES:
            sym, _ = _expect(tokens, 3, "security symbol", line_no)
            qty_tok, qty_col = _expect(tokens, 4, "share quantity", line_no)
            if len(tokens) > 5:
                raise ParseError("unexpected trailing tokens", line_no, tokens[5][1])
            qty = _parse_qty(qty_tok, line_no, qty_col)
            raw_events.append((_TRADES[verb](at=t, sec=sym, qty=qty), line_no, head_col))
            continue

        if verb == "cover":
            sym, _ = _expect(tokens, 3, "security symbol", line_no)
            qty_tok, qty_col = _expect(tokens, 4, "share quantity", line_no)
            mode, mode_col = _expect(tokens, 5, "'by-purchase' or 'with-owned'", line_no)
            if len(tokens) > 6:
                raise ParseError("unexpected trailing tokens", line_no, tokens[6][1])
            qty = _parse_qty(qty_tok, line_no, qty_col)
            if mode not in _COVERS:
                raise ParseError(
                    f"expected 'by-purchase' or 'with-owned', got {mode!r}", line_no, mode_col
                )
            raw_events.append((_COVERS[mode](at=t, sec=sym, qty=qty), line_no, head_col))
            continue

        raise UnknownDirective(f"unknown event verb {verb!r}", line_no, verb_col)

    path = PricePath(quotes)
    last_tick: int | None = None
    for ev, line_no, col in raw_events:
        if last_tick is not None and ev.at < last_tick:
            raise NonMonotonicTick(
                f"event tick {ev.at} precedes earlier tick {last_tick}", line_no, col
            )
        last_tick = ev.at
        if not isinstance(ev, Death) and not path.has(ev.sec, ev.at):
            raise UndefinedPrice(f"no price for {ev.sec} at tick {ev.at}", line_no, col)

    return Scenario(name=name, prices=path, events=tuple(ev for ev, _, _ in raw_events))


def _money_token(m: Money) -> str:
    pesos, cents = divmod(abs(m.centavos), 100)
    sign = "-" if m.centavos < 0 else ""
    if cents == 0:
        return f"{sign}{pesos}"
    frac = f"{cents:02d}".rstrip("0")
    return f"{sign}{pesos}.{frac}"


def format_scenario(s: Scenario) -> str:
    """Print a scenario back into the DSL; parsing the result reproduces it."""
    lines = [
        f"price {sec} {t} {_money_token(price)}"
        for (sec, t), price in sorted(s.prices.quotes.items())
    ]
    for ev in s.events:
        if isinstance(ev, Buy):
            lines.append(f"at {ev.at} buy {ev.sec} {ev.qty}")
        elif isinstance(ev, Borrow):
            lines.append(f"at {ev.at} borrow {ev.sec} {ev.qty}")
        elif isinstance(ev, ShortSell):
            lines.append(f"at {ev.at} short-sell {ev.sec} {ev.qty}")
        elif isinstance(ev, SellOwned):
            lines.append(f"at {ev.at} sell {ev.sec} {ev.qty}")
        elif isinstance(ev, CoverByPurchase):
            lines.append(f"at {ev.at} cover {ev.sec} {ev.qty} by-purchase")
        elif isinstance(ev, CoverByOwnedLot):
            lines.append(f"at {ev.at} cover {ev.sec} {ev.qty} with-owned")
        elif isinstance(ev, Death):
            lines.append(f"at {ev.at} death" + (f" heir {ev.heir}" if ev.heir else ""))
    return "\n".join(lines) + "\n"


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


def _annotate(err: EngineError, index: int) -> EngineError:
    err.event_index = index
    return err


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
