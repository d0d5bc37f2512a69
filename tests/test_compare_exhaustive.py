"""``compare`` against the two runs it stands for, on every short event sequence.

``compare`` runs the proposed regime only where a short sale comes after a
buy of its security (``ledger._may_reserve``), since only such a sale
can reserve owned shares; elsewhere it reuses the current report.  Where it
does run it, the proposed pass applies every event but builds no cash
timeline or inventory of its own: its report holds the current report's
cash timeline, final cash and inventory, and its tax deltas come from one
walk over the two tick-ordered tax timelines.  On every input here
``compare(s)`` must equal the ``ComparisonReport`` built from
``run(s, CURRENT)`` and ``run(s, PROPOSED)``, two independent runs, with
deltas built by tick from both timelines, or raise the error (class,
message, ``event_index``) of the first of those runs that fails.  Where the
predicate is false, both runs must also agree field for field, or fail alike.

Everywhere, the two regimes may differ only as the constructive-sale rule
allows.  Where both accept, cash and inventory agree (total gain need not:
the rule realizes at the short sale what the current rule realizes at the
cover).  The current run never fails where the proposed run accepts.  And
wherever the outcomes differ (one run accepts, or the error class or
``event_index`` differs), the proposed run fails first, with
``InsufficientOwnedShares``, at an outright sale that needs reserved shares.
A cover with owned shares fails alike under both: short of unreserved
shares, it delivers shares reserved against the positions it leaves open.

The check is bounded-exhaustive, on the small-scope hypothesis that most
faults show on small inputs (D. Jackson, *Software Abstractions*, 2006):

* every one-security sequence of four events, one per tick, drawn from 13
  steps: buy, borrow, short-sell, sell, cover by purchase and cover with
  owned shares, each of 1 or 2 shares, and a death (28,561 sequences);
* every one-security sequence of three such events in each of the four tick
  patterns where each event keeps its predecessor's tick or takes the next
  one (8,788), since ``run`` folds a tick's cash and gains over adjacent
  events;
* every two-security sequence of three events of 1 share (2,197), which
  checks that the predicate is per security;
* every one-security sequence of four events whose third tick has no quote
  and holds only a death (2,197), where a death with shares still held ends
  in ``MissingPrice``;
* the random scenarios of ``scenario_gen``.

``python -m pytest -m slow`` also runs the five-event sweep (371,293
sequences) and the four-event sweep over its eight tick patterns (228,488).
"""

import random
from collections import Counter
from itertools import accumulate, product
from operator import attrgetter

import pytest

from realize import (
    Borrow,
    Buy,
    ComparisonReport,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Money,
    NettingWindow,
    PricePath,
    RateSchedule,
    Regime,
    RunReport,
    Scenario,
    SellOwned,
    ShortSell,
    builtin,
    compare,
    run,
)
from realize.errors import EngineError, InsufficientOwnedShares, MissingPrice
from realize.ledger import _may_reserve
from realize.scenario import TaxDelta
from scenario_gen import random_scenario

TRADES = (Buy, Borrow, ShortSell, SellOwned, CoverByPurchase, CoverByOwnedLot)
SETTINGS = [(s, w) for s in RateSchedule for w in NettingWindow]
# Every field but the regime, which is all the two runs may differ in where nothing is reserved.
SAME_PATH = attrgetter(*(name for name in RunReport.__match_args__ if name != "regime"))
# What the two regimes share wherever both accept.
SAME_CASH = attrgetter("final_cash", "cash_timeline", "inventory")


def outcome(regime_or_none, scenario, schedule, window):
    """The report, or the (class, message, event_index) of the error, of one run or of ``compare``."""
    try:
        if regime_or_none is None:
            return compare(scenario, schedule, window)
        return run(scenario, regime_or_none, schedule, window)
    except EngineError as err:
        return type(err), str(err), getattr(err, "event_index", None)


def regimes_differ_only_at_reserved_shares(scenario, current, proposed):
    """Assert that ``current`` and ``proposed``, the outcomes of the two runs, differ only as the rule allows."""
    if isinstance(proposed, RunReport):
        assert isinstance(current, RunReport), scenario  # the current run never fails alone
        assert SAME_CASH(current) == SAME_CASH(proposed), scenario
    elif isinstance(current, RunReport) or current[::2] != proposed[::2]:
        kind, _, index = proposed
        assert kind is InsufficientOwnedShares, scenario
        assert isinstance(current, RunReport) or index < current[2], scenario
        assert type(scenario.events[index]) is SellOwned, scenario


def check(scenario, schedule=RateSchedule.PAPER_FLAT, window=NettingWindow.PER_TICK):
    """Check ``compare`` on ``scenario`` against its two runs; return the (current, proposed) outcomes."""
    current = outcome(Regime.CURRENT, scenario, schedule, window)
    proposed = outcome(Regime.PROPOSED, scenario, schedule, window)
    regimes_differ_only_at_reserved_shares(scenario, current, proposed)
    skips = not _may_reserve(scenario.events)
    if skips and isinstance(current, RunReport):
        assert isinstance(proposed, RunReport), scenario
        assert SAME_PATH(current) == SAME_PATH(proposed), scenario
    elif skips:
        assert current == proposed, scenario
    if not isinstance(current, RunReport):
        want = current
    elif not isinstance(proposed, RunReport):
        want = proposed
    else:
        cur = {line.period: line.tax_due for line in current.tax_lines}
        prop = {line.period: line.tax_due for line in proposed.tax_lines}
        ticks = sorted(cur.keys() | prop.keys())
        deltas = tuple(TaxDelta(t, cur.get(t, Money.zero()), prop.get(t, Money.zero())) for t in ticks)
        want = ComparisonReport(scenario.name, schedule, window, current, proposed, deltas)
    assert outcome(None, scenario, schedule, window) == want, scenario
    return current, proposed


def steps(secs, qtys):
    """Makers of one event at a given tick: every trade of ``secs`` in ``qtys``, then a death."""
    makers = [lambda at, kind=kind, sec=sec, qty=qty: kind(at, sec, qty)
              for kind in TRADES for sec in secs for qty in qtys]
    return makers + [Death]


def sweep(k, secs, qtys, unquoted=(), ticks=None):
    """Check every sequence of ``k`` steps, one per tick unless ``ticks`` gives each step's tick, cycling
    through the four settings.

    A tick in ``unquoted`` has no quote, and its only step is a death.  Returns how many
    sequences ended in each (current, proposed) pair of outcome classes.
    """
    # Prices that rise and fall, so that the regimes tax constructive sales differently.
    pesos = (10, 17, 6, 13, 9)[:k]
    prices = PricePath({
        (sec, t): Money.from_pesos(p) for sec in secs for t, p in enumerate(pesos, start=1) if t not in unquoted
    })
    table = [[Death(t)] if t in unquoted else [make(t) for make in steps(secs, qtys)] for t in ticks or range(1, k + 1)]
    tally = Counter()
    for count, events in enumerate(product(*table), start=1):
        schedule, window = SETTINGS[count % len(SETTINGS)]
        outcomes = check(Scenario("seq", prices, events), schedule, window)
        tally[tuple(type(o) if isinstance(o, RunReport) else o[0] for o in outcomes)] += 1
    return tally


def test_every_one_security_sequence_of_four_events():
    tally = sweep(4, ("A",), (1, 2))
    assert sum(tally.values()) == 13**4
    # Finding (a): a sale that needs reserved shares fails only under the proposed regime.
    assert tally[RunReport, InsufficientOwnedShares] == 14


def tick_patterns(k):
    """Every tick sequence of ``k`` events from tick 1 on, each event at its predecessor's tick or the next."""
    return [tuple(accumulate((1, *rises))) for rises in product((0, 1), repeat=k - 1)]


def same_tick_sweep(k):
    """``sweep`` of one security over every tick pattern of ``k`` events, tallied together."""
    tally = Counter()
    for ticks in tick_patterns(k):
        tally += sweep(k, ("A",), (1, 2), ticks=ticks)
    return tally


def test_every_one_security_sequence_of_three_events_in_every_tick_pattern():
    # Consecutive events may share a tick, which run()'s cash and tax folds rely on being adjacent.
    tally = same_tick_sweep(3)
    assert sum(tally.values()) == 4 * 13**3
    assert tally[RunReport, RunReport] == 852
    # A sale of reserved shares needs a buy, a borrow and a short sale before it.
    assert tally[RunReport, InsufficientOwnedShares] == 0


@pytest.mark.slow
def test_every_one_security_sequence_of_four_events_in_every_tick_pattern():
    tally = same_tick_sweep(4)
    assert sum(tally.values()) == 8 * 13**4
    assert tally[RunReport, RunReport] == 12_672
    # Finding (a) in each of the 8 patterns, as in the one-per-tick sweep.
    assert tally[RunReport, InsufficientOwnedShares] == 8 * 14


def test_every_two_security_sequence_of_three_events():
    # A short sale of B after a buy of A reserves nothing, so compare skips the proposed run.
    tally = sweep(3, ("A", "B"), (1,))
    assert sum(tally.values()) == 13**3
    assert all(current is proposed for current, proposed in tally)


def test_a_death_at_a_tick_with_no_quote():
    tally = sweep(4, ("A",), (1, 2), unquoted=(3,))
    assert sum(tally.values()) == 13**3
    # Under both regimes, wherever a share is still held at the death.
    assert tally[MissingPrice, MissingPrice] == 221


@pytest.mark.slow
def test_every_one_security_sequence_of_five_events():
    tally = sweep(5, ("A",), (1, 2))
    assert sum(tally.values()) == 13**5
    assert tally[RunReport, RunReport] == 12_534
    # 293 sales of reserved shares (finding (a)); a with-owned cover delivers reserved shares instead of failing.
    assert tally[RunReport, InsufficientOwnedShares] == 293


def test_generated_scenarios():
    rng = random.Random(0xC0DE)
    for i in range(200):
        schedule, window = SETTINGS[i % len(SETTINGS)]
        check(random_scenario(rng).scenario, schedule, window)


class TestSkip:
    def test_without_a_short_sale_after_a_buy_the_current_report_is_reused(self):
        report = compare(builtin("strategy1"))
        current, proposed = report.current, report.proposed
        assert proposed.regime is Regime.PROPOSED
        assert proposed.events is current.events
        assert proposed.tax_lines is current.tax_lines
        assert proposed.cash_timeline is current.cash_timeline
        assert proposed.inventory is current.inventory

    def test_a_short_sale_after_a_buy_runs_the_proposed_regime(self):
        report = compare(builtin("strategy3"))
        assert report.proposed.events != report.current.events
        assert report.proposed.total_tax != report.current.total_tax

    def test_the_predicate_is_per_security_and_in_event_order(self):
        sold = (Borrow(1, "A", 1), ShortSell(1, "A", 1))
        assert not _may_reserve(sold)
        assert not _may_reserve(sold + (Buy(2, "A", 1),))
        assert not _may_reserve((Buy(1, "B", 1),) + sold)
        assert _may_reserve((Buy(1, "A", 1),) + sold)

    def test_the_proposed_run_taken_is_the_proposed_report(self):
        prices = builtin("strategy3").prices
        events = (Buy(1, "ABC", 10), Borrow(2, "ABC", 10), ShortSell(2, "ABC", 10), CoverByOwnedLot(3, "ABC", 10))
        assert _may_reserve(events)
        report = compare(Scenario("against_the_box", prices, events))
        assert report.proposed == run(Scenario("against_the_box", prices, events), Regime.PROPOSED)
        assert report.proposed.total_tax != report.current.total_tax

    def test_an_error_from_the_current_run_wins(self):
        # Selling reserved shares fails only under proposed; a later over-cover fails under both.
        prices = PricePath({("A", t): Money.from_pesos(10) for t in (1, 2, 3)})
        events = (Buy(1, "A", 1), Borrow(1, "A", 1), ShortSell(1, "A", 1), SellOwned(2, "A", 1),
                  CoverByPurchase(3, "A", 2))
        with pytest.raises(EngineError) as exc:
            compare(Scenario("x", prices, events))
        assert exc.value.event_index == 4
        with pytest.raises(EngineError) as exc:
            run(Scenario("x", prices, events), Regime.PROPOSED)
        assert exc.value.event_index == 3


class TestSharing:
    @pytest.mark.parametrize("name", ["strategy1", "strategy2", "strategy3", "death_avoidance", "proposed_demo"])
    @pytest.mark.parametrize(("schedule", "window"), SETTINGS)
    def test_the_proposed_report_holds_the_current_cash_and_inventory(self, name, schedule, window):
        # The two ordinary sales cannot reserve: their proposed report holds the current one's events and tax too.
        scenario = builtin(name)
        reserves = name not in ("strategy1", "strategy2")
        assert _may_reserve(scenario.events) is reserves
        report = compare(scenario, schedule, window)
        current, proposed = report.current, report.proposed
        assert proposed.cash_timeline is current.cash_timeline
        assert proposed.final_cash is current.final_cash
        assert proposed.inventory is current.inventory
        assert proposed == run(scenario, Regime.PROPOSED, schedule, window)
        if not reserves:
            assert proposed.events is current.events
            assert proposed.tax_lines is current.tax_lines

    @pytest.mark.parametrize("window", list(NettingWindow))
    def test_a_short_against_the_box_never_covered_is_taxed_only_under_proposed(self, window):
        # B's sale at tick 2 is taxed under both regimes; A's short at tick 3 only under proposed, as a
        # constructive sale of 10 shares bought at P10 and sold at P13 (P30 gain, P3.00 tax).
        prices = PricePath({(sec, t): Money.from_pesos(p) for sec in "AB" for t, p in ((1, 10), (2, 17), (3, 13))})
        events = (Buy(1, "A", 10), Buy(1, "B", 5), SellOwned(2, "B", 5), Borrow(3, "A", 10), ShortSell(3, "A", 10))
        scenario = Scenario("against_the_box", prices, events)
        check(scenario, RateSchedule.PAPER_FLAT, window)
        if window is NettingWindow.PER_TICK:
            want = [(2, 350, 350), (3, 0, 300)]
        else:  # each regime nets at its own last realization
            want = [(2, 350, 0), (3, 0, 650)]
        deltas = compare(scenario, RateSchedule.PAPER_FLAT, window).tax_deltas
        assert [(d.at, d.current_tax.centavos, d.proposed_tax.centavos) for d in deltas] == want

    def test_a_sale_of_reserved_shares_raises_the_proposed_runs_error(self):
        # Finding (a): the current run accepts the sale; the proposed pass fails at it, as run(PROPOSED) does.
        prices = PricePath({("A", t): Money.from_pesos(10) for t in (1, 2)})
        events = (Buy(1, "A", 1), Borrow(1, "A", 1), ShortSell(1, "A", 1), SellOwned(2, "A", 1))
        scenario = Scenario("x", prices, events)
        assert isinstance(outcome(Regime.CURRENT, scenario, RateSchedule.PAPER_FLAT, NettingWindow.PER_TICK), RunReport)
        for schedule, window in SETTINGS:
            error = outcome(Regime.PROPOSED, scenario, schedule, window)
            assert error[0] is InsufficientOwnedShares and error[2] == 3
            assert outcome(None, scenario, schedule, window) == error
