"""How an event finds its ledger step, its realization rule and its DSL verb.

Each event class names its ledger step in ``_step``, and the realization
rules are keyed by step.  The event classes are final records, so every
layer reads the exact class of an event.  Anything whose class has no step,
a bare trade included, is refused with ``TypeError`` before it changes the
ledger; a ``Scenario`` refuses it with ``EngineError`` at its
``event_index``, so neither ``run`` nor the DSL printer ever meets one.
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
    Money,
    Regime,
    Scenario,
    SellOwned,
    ShortSell,
    builtin,
    format_scenario,
    parse_scenario,
    run,
)
from realize.errors import EngineError
from realize.ledger import Ledger, LedgerEffects, _Trade, apply_event
from realize.realization import realize
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


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_a_purchase_cover_realizes_only_the_short(regime):
    report = run(SCENARIOS[3], regime)
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


def test_a_trade_class_outside_the_ledger_is_refused_when_defined():
    with pytest.raises(TypeError, match=r"^OddTrade cannot subclass record class _Trade: a record is final"):
        class OddTrade(_Trade):
            """A trade that is no event class."""

            __slots__ = ()


# The trades and strangers have the ``at`` and ``sec`` that a scenario's tick and price checks read.
NON_EVENTS = [
    object(), "buy", None, _Trade(2, "ABC", 10),
    SimpleNamespace(at=2, sec="ABC", qty=10), SimpleNamespace(at=0, sec="XYZ", qty=10),
]
NON_EVENT_IDS = ["object", "str", "None", "bare_trade", "stranger", "stranger_out_of_order"]


@pytest.mark.parametrize("bad", NON_EVENTS[:4], ids=NON_EVENT_IDS[:4])
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


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_every_event_class_prints_by_its_exact_class_and_reads_back(scenario):
    assert parse_scenario(format_scenario(scenario), name=scenario.name) == scenario


@pytest.mark.parametrize("bad", NON_EVENTS, ids=NON_EVENT_IDS)
def test_a_scenario_refuses_a_non_event(bad):
    # The refusal comes before the tick check: the out-of-order stranger is not a NonMonotonicTick.
    with pytest.raises(EngineError, match="unknown transaction event") as err:
        Scenario("odd", ABC, (*BY_PURCHASE[:2], bad))
    assert type(err.value) is EngineError and err.value.event_index == 2
