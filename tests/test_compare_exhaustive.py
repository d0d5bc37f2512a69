"""``compare`` against the two runs it stands for, on every short event sequence.

``compare`` runs the proposed regime only where a short sale comes after a
buy of its security (``realization._may_reserve``), since only such a sale
can reserve owned shares; elsewhere it reuses the current report.  On every
input here ``compare(s)`` must equal the ``ComparisonReport`` built from
``run(s, CURRENT)`` and ``run(s, PROPOSED)``, or raise the error (class,
message, ``event_index``) of the first of those runs that fails.  Where the
predicate is false, both runs must also agree field for field, or fail alike.

The check is bounded-exhaustive, on the small-scope hypothesis that most
faults show on small inputs (D. Jackson, *Software Abstractions*, 2006):

* every one-security sequence of four events, one per tick, drawn from 13
  steps: buy, borrow, short-sell, sell, cover by purchase and cover with
  owned shares, each of 1 or 2 shares, and a death (28,561 sequences);
* every two-security sequence of three events of 1 share (2,197), which
  checks that the predicate is per security;
* the random scenarios of ``scenario_gen``.

``python -m pytest -m slow`` also runs the five-event sweep (371,293
sequences).
"""

import random
from itertools import product
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
from realize.errors import EngineError
from realize.realization import _may_reserve
from realize.scenario import TaxDelta
from scenario_gen import random_scenario

TRADES = (Buy, Borrow, ShortSell, SellOwned, CoverByPurchase, CoverByOwnedLot)
SETTINGS = [(s, w) for s in RateSchedule for w in NettingWindow]
# Every field but the regime, which is all the two runs may differ in where nothing is reserved.
SAME_PATH = attrgetter(*(name for name in RunReport.__match_args__ if name != "regime"))


def outcome(regime_or_none, scenario, schedule, window):
    """The report, or the (class, message, event_index) of the error, of one run or of ``compare``."""
    try:
        if regime_or_none is None:
            return compare(scenario, schedule, window)
        return run(scenario, regime_or_none, schedule, window)
    except EngineError as err:
        return type(err), str(err), getattr(err, "event_index", None)


def check(scenario, schedule=RateSchedule.PAPER_FLAT, window=NettingWindow.PER_TICK):
    current = outcome(Regime.CURRENT, scenario, schedule, window)
    skips = not _may_reserve(scenario.events)
    if skips or isinstance(current, RunReport):  # otherwise the current run's error is the answer
        proposed = outcome(Regime.PROPOSED, scenario, schedule, window)
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


def steps(secs, qtys):
    """Makers of one event at a given tick: every trade of ``secs`` in ``qtys``, then a death."""
    makers = [lambda at, kind=kind, sec=sec, qty=qty: kind(at, sec, qty)
              for kind in TRADES for sec in secs for qty in qtys]
    return makers + [Death]


def sweep(k, secs, qtys):
    """Check every sequence of ``k`` steps, one per tick, cycling through the four settings."""
    # Prices that rise and fall, so that the regimes tax constructive sales differently.
    pesos = (10, 17, 6, 13, 9)[:k]
    prices = PricePath({(sec, t): Money.from_pesos(p) for sec in secs for t, p in enumerate(pesos, start=1)})
    table = [[make(t) for make in steps(secs, qtys)] for t in range(1, k + 1)]
    count = 0
    for count, events in enumerate(product(*table), start=1):
        schedule, window = SETTINGS[count % len(SETTINGS)]
        check(Scenario("seq", prices, events), schedule, window)
    return count


def test_every_one_security_sequence_of_four_events():
    assert sweep(4, ("A",), (1, 2)) == 13**4


def test_every_two_security_sequence_of_three_events():
    # A short sale of B after a buy of A reserves nothing, so compare skips the proposed run.
    assert sweep(3, ("A", "B"), (1,)) == 13**3


@pytest.mark.slow
def test_every_one_security_sequence_of_five_events():
    assert sweep(5, ("A",), (1, 2)) == 13**5


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

    def test_subclasses_count_as_their_base(self):
        class MyBuy(Buy):
            __slots__ = ()

        class MyShortSell(ShortSell):
            __slots__ = ()

        prices = builtin("strategy3").prices
        events = (MyBuy(1, "ABC", 10), Borrow(2, "ABC", 10), MyShortSell(2, "ABC", 10), CoverByOwnedLot(3, "ABC", 10))
        assert _may_reserve(events)
        report = compare(Scenario("subclassed", prices, events))
        assert report.proposed == run(Scenario("subclassed", prices, events), Regime.PROPOSED)
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
