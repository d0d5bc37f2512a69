"""How an event finds its ledger step, its realization rule and its DSL verb.

Each event class names its ledger step in ``_step``, and the realization
rules are keyed by step.  A subclass of an event class inherits its step and
is treated as that class.  Anything whose class has no step, a bare trade
included, is refused with ``TypeError`` before it changes the ledger; a
``Scenario`` refuses it with ``EngineError`` at its ``event_index``, so
neither ``run`` nor the DSL printer ever meets one.
"""

from types import SimpleNamespace

import pytest

import realize.scenario as runner
from realize import __all__ as PUBLIC, ledger, realization
from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Ledger,
    LedgerEffects,
    Money,
    Regime,
    Scenario,
    SellOwned,
    ShortSell,
    apply_event,
    builtin,
    format_scenario,
    parse_scenario,
    realize,
    run,
)
from realize.errors import EngineError
from realize.ledger import _Trade
from ledger_views import snapshot

EVENT_CLASSES = (Buy, Borrow, ShortSell, SellOwned, CoverByPurchase, CoverByOwnedLot, Death)

ABC = builtin("strategy3").prices
BY_PURCHASE = (Borrow(1, "ABC", 10), ShortSell(1, "ABC", 10), CoverByPurchase(2, "ABC", 10))
# Between them these use every event class.
SCENARIOS = (
    builtin("strategy1"),
    builtin("strategy3"),
    builtin("death_avoidance"),
    Scenario("by_purchase", ABC, BY_PURCHASE),
)


def test_every_event_class_names_a_step_and_the_realizing_steps_have_rules():
    # A new event class with no ledger step, or a realizing step with no rule, fails here, not in a run.
    classes = set(ledger.TransactionEvent.__args__)
    assert classes == set(EVENT_CLASSES)
    for kind in classes:
        assert kind._step in vars(Ledger).values() and kind.__name__ in PUBLIC
    assert set(realization._RULES) == {kind._step for kind in (SellOwned, ShortSell, CoverByPurchase, CoverByOwnedLot)}


def subclass(kind):
    return type(f"My{kind.__name__}", (kind,), {"__slots__": ()})


def recast(ev, kind, sub):
    """``ev`` rebuilt as an instance of ``sub`` when it is exactly a ``kind``."""
    if type(ev) is not kind:
        return ev
    if kind is Death:
        return sub(ev.at, ev.heir)
    return sub(ev.at, ev.sec, ev.qty)


@pytest.mark.parametrize("kind", EVENT_CLASSES, ids=lambda k: k.__name__)
@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_a_subclass_runs_as_its_event_class(kind, regime):
    sub = subclass(kind)
    used = 0
    for scenario in SCENARIOS:
        events = tuple(recast(ev, kind, sub) for ev in scenario.events)
        used += sum(type(ev) is sub for ev in events)
        assert run(Scenario(scenario.name, scenario.prices, events), regime) == run(scenario, regime)
    assert used


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_a_purchase_cover_subclass_stays_a_purchase(regime):
    events = (*BY_PURCHASE[:2], subclass(CoverByPurchase)(2, "ABC", 10))
    report = run(Scenario("sub", ABC, events), regime)
    assert [e.kind.value for e in report.events] == ["short_cover"]
    assert report.final_cash == Money(-50000)


SILENT = (Buy, Borrow, Death)


@pytest.fixture
def realized_for(monkeypatch):
    """The classes of the events whose effects ``run`` hands to ``realize``, in order."""
    seen = []
    real = runner.realize

    def counting(effects, regime, ledger):
        seen.append(type(effects.event))
        return real(effects, regime, ledger)

    monkeypatch.setattr(runner, "realize", counting)
    return seen


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_run_realizes_every_event_but_a_buy_a_borrow_and_a_death(realized_for, regime):
    expected = {
        "strategy1": [SellOwned],
        "strategy3": [ShortSell, CoverByOwnedLot],
        "death_avoidance": [ShortSell, CoverByOwnedLot],
        "by_purchase": [ShortSell, CoverByPurchase],
    }
    for scenario in SCENARIOS:
        realized_for.clear()
        run(scenario, regime)
        assert realized_for == expected[scenario.name], scenario.name


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_realize_still_answers_a_buy_a_borrow_and_a_death_with_nothing(regime):
    scenario = builtin("death_avoidance")
    ledger, silent = Ledger(), 0
    for ev in scenario.events:
        _, effects = apply_event(ledger, ev, scenario.prices)
        before = snapshot(ledger)
        events, after = realize(effects, regime, ledger)
        if type(ev) in SILENT:
            silent += 1
            assert (events, after) == ([], ledger) and snapshot(ledger) == before
    assert silent == 3


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_a_subclass_of_a_silent_class_is_skipped_like_its_base(realized_for, regime):
    sub = subclass(Buy)
    events = tuple(recast(ev, Buy, sub) for ev in builtin("strategy3").events)
    report = run(Scenario("strategy3", ABC, events), regime)
    assert realized_for == [ShortSell, CoverByOwnedLot]
    assert report == run(builtin("strategy3"), regime)
    ledger = Ledger()
    _, effects = apply_event(ledger, sub(1, "ABC", 10), ABC)
    assert realize(effects, regime, ledger) == ([], ledger)


class OddTrade(_Trade):
    """A trade that is no event class."""

    __slots__ = ()


# The trades and strangers have the ``at`` and ``sec`` that a scenario's tick and price checks read.
NON_EVENTS = [
    object(), "buy", None, _Trade(2, "ABC", 10), OddTrade(2, "ABC", 10),
    SimpleNamespace(at=2, sec="ABC", qty=10), SimpleNamespace(at=0, sec="XYZ", qty=10),
]
NON_EVENT_IDS = ["object", "str", "None", "bare_trade", "trade_subclass", "stranger", "stranger_out_of_order"]


@pytest.mark.parametrize("bad", NON_EVENTS[:5], ids=NON_EVENT_IDS[:5])
def test_a_non_event_is_refused_and_changes_nothing(bad):
    ledger = Ledger()
    for ev in BY_PURCHASE[:2]:
        apply_event(ledger, ev, ABC)
    before = snapshot(ledger)
    with pytest.raises(TypeError, match="unknown transaction event"):
        apply_event(ledger, bad, ABC)
    assert snapshot(ledger) == before


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_realize_refuses_effects_of_a_non_event(regime):
    effects = LedgerEffects(object(), Money.from_pesos(50), 0)
    with pytest.raises(TypeError, match="unknown transaction event"):
        realize(effects, regime, Ledger())


@pytest.mark.parametrize("kind", EVENT_CLASSES, ids=lambda k: k.__name__)
def test_a_subclass_prints_as_its_event_class(kind):
    sub = subclass(kind)
    for scenario in SCENARIOS:
        events = tuple(recast(ev, kind, sub) for ev in scenario.events)
        text = format_scenario(Scenario(scenario.name, scenario.prices, events))
        assert text == format_scenario(scenario)
        assert parse_scenario(text, name=scenario.name) == scenario


@pytest.mark.parametrize("bad", NON_EVENTS, ids=NON_EVENT_IDS)
def test_a_scenario_refuses_a_non_event(bad):
    # The refusal comes before the tick check: the out-of-order stranger is not a NonMonotonicTick.
    with pytest.raises(EngineError, match="unknown transaction event") as err:
        Scenario("odd", ABC, (*BY_PURCHASE[:2], bad))
    assert type(err.value) is EngineError and err.value.event_index == 2
