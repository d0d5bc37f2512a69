"""Scenario descriptions, built-ins, and the runner.

``parse_scenario`` and ``format_scenario`` read and write the line-oriented
DSL, whose grammar, parser and printer live in ``realize.dsl``; each loads
that module on its first call.
"""

from __future__ import annotations

from itertools import accumulate, repeat

from .errors import EngineError, InvalidSymbol, NonMonotonicTick, UndefinedPrice, UnknownScenario
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
    _Book,
    _may_reserve,
    apply_event,
)
from .market import _ZERO, Money, PricePath, SecurityId, Tick, _money, record
from .realization import _RULES, RealizationEvent, Regime, realize
from .taxation import NettingWindow, RateSchedule, TaxLine, _misfit, tax_timeline

BLOCK_QTY = 100_000
_BEFORE_ANY_TICK = float("-inf")  # what a scenario's first tick is compared with

# bench/spans.py looks these two names up: the ledger's two owned-share walks, on a security's book.
sell_policy, cover_policy = _Book._unreserved, _Book._settle


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
    ``InvalidSymbol`` when a security symbol or heir label, or with no index the
    name, is not a ``str`` or holds a character neither printable nor whitespace
    (an escape, a NUL, a bidi override).  ``prices`` that are not a ``PricePath``,
    and ``events`` that are not iterable, raise ``TypeError``; the path checked
    its own quotes.  The scenario keeps its own tuple of the events, taken
    before they are checked.
    """

    name: str
    prices: PricePath
    events: tuple[TransactionEvent, ...] = ()

    def __post_init__(self) -> None:
        if not (type(self.name) is str and self.name.isprintable()) and (err := _refused("scenario name", self.name)):
            raise err
        if type(self.prices) is not PricePath:
            raise TypeError(f"prices must be a PricePath, got {type(self.prices).__name__} {self.prices!r}")
        events = self.events
        if type(events) is not tuple:  # its own copy: a generator reads once, and a caller's list may change
            try:
                events = iter(events)
            except TypeError:
                raise TypeError(f"events must be iterable, got {type(events).__name__} {events!r}") from None
            events = tuple(events)
            object.__setattr__(self, "events", events)
        last = _BEFORE_ANY_TICK
        quotes = self.prices.quotes
        for index, ev in enumerate(events):
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


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse DSL text into a validated scenario; errors carry the line and column of the offending token.
    ``text`` that is not a ``str`` raises ``TypeError``."""
    if type(text) is not str:
        raise _misfit(("text", text, str))
    from . import dsl

    return dsl._parse(text, name)[0]


def format_scenario(s: Scenario) -> str:
    """Print a scenario back into the DSL; parsing the result reproduces it, and what the parser would
    refuse raises ``EngineError`` (``realize.dsl.format_scenario`` says which), and what is not a
    ``Scenario`` raises ``TypeError``."""
    if type(s) is not Scenario:
        raise _misfit(("s", s, Scenario))
    from . import dsl

    return dsl.format_scenario(s)


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
    if type(name) is not str:
        raise _misfit(("name", name, str))
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


# ``run`` and ``compare`` build their records by calling the generated constructors directly, past
# ``type.__call__``.
_new_point, _new_summary, _new_report = CashPoint.__new__, InventorySummary.__new__, RunReport.__new__


def _apply(scenario: Scenario, regime: Regime) -> tuple[Ledger, list[RealizationEvent], list[Tick], list[int]]:
    """Apply the scenario's events under one regime: the final ledger, the realization events, and each tick
    where some event moved cash with that tick's int centavos.  An error carries its ``event_index``."""
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
    return ledger, realized, cash_ticks, cash_deltas


def run(
    scenario: Scenario,
    regime: Regime = Regime.CURRENT,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
    window: NettingWindow = NettingWindow.PER_TICK,
) -> RunReport:
    """Apply the scenario under one regime and aggregate the full report.

    Deterministic: identical inputs always serialize to identical reports.
    Ledger and market errors propagate annotated with the offending event
    index (``event_index`` attribute).  A ``scenario`` that is not a
    ``Scenario``, or a regime, schedule or window that is not a member of its
    enum, raises ``TypeError``, the last two after the events.
    """
    if type(scenario) is not Scenario or type(regime) is not Regime:
        raise _misfit(("scenario", scenario, Scenario), ("regime", regime, Regime))
    ledger, realized, cash_ticks, cash_deltas = _apply(scenario, regime)
    timeline = tuple(map(_new_point, repeat(CashPoint), cash_ticks, map(_money, cash_deltas),
                         map(_money, accumulate(cash_deltas))))
    lines = tuple(tax_timeline(realized, window, schedule))
    tax = _money(sum([line.tax_due.centavos for line in lines]))
    owned, owing = ledger.holdings()
    inventory = _new_summary(InventorySummary, owned, owing, ledger.owner_generation)
    return _new_report(
        RunReport, scenario.name, regime, schedule, window, tuple(realized), lines,
        timeline, tax, timeline[-1].cumulative if timeline else _ZERO, inventory,
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


_new_delta, _new_comparison = TaxDelta.__new__, ComparisonReport.__new__  # compare's, built as run's are


def compare(
    scenario: Scenario,
    schedule: RateSchedule = RateSchedule.PAPER_FLAT,
    window: NettingWindow = NettingWindow.PER_TICK,
) -> ComparisonReport:
    """Run both regimes and line their tax timelines up tick by tick; an error of the current run wins.

    Where some short sale can reserve owned shares (``ledger._may_reserve``), the proposed pass applies
    every event, so its errors stand, and taxes its own events; elsewhere the proposed regime takes the
    current path, and its report holds the current one's events, tax lines and total tax.  Either way it
    holds the current report's cash timeline, final cash and inventory, which the regimes share wherever
    both accept, and one walk lines the two tax timelines up."""
    current = run(scenario, Regime.CURRENT, schedule, window)
    if _may_reserve(scenario.events):
        realized = tuple(_apply(scenario, Regime.PROPOSED)[1])
        lines = tuple(tax_timeline(realized, window, schedule))
        tax = _money(sum([line.tax_due.centavos for line in lines]))
    else:
        realized, lines, tax = current.events, current.tax_lines, current.total_tax
    proposed = _new_report(
        RunReport, current.scenario, Regime.PROPOSED, schedule, window, realized, lines,
        current.cash_timeline, tax, current.final_cash, current.inventory,
    )
    # Each regime has one tax line per tick, in tick order: one walk merges them, a missing line taxing zero.
    # The proposed regime realizes at every tick the current one does (a sale, and a cover's short leg, under
    # both), so no current line comes after the last proposed one.
    cur, i, deltas = current.tax_lines, 0, []
    for line in lines:
        at = line.period
        while i < len(cur) and cur[i].period < at:
            deltas.append(_new_delta(TaxDelta, cur[i].period, cur[i].tax_due, _ZERO))
            i += 1
        if i < len(cur) and cur[i].period == at:
            deltas.append(_new_delta(TaxDelta, at, cur[i].tax_due, line.tax_due))
            i += 1
        else:
            deltas.append(_new_delta(TaxDelta, at, _ZERO, line.tax_due))
    return _new_comparison(ComparisonReport, scenario.name, schedule, window, current, proposed, tuple(deltas))


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
