"""Cross-module invariants on randomized prices and event sequences.

All arithmetic is integer-exact, so every assertion here is an equality,
never a tolerance.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Money,
    PricePath,
    RateSchedule,
    RealizationKind,
    Regime,
    Scenario,
    SellOwned,
    ShortSell,
    builtin,
    compare,
    format_scenario,
    parse_scenario,
    run,
)
from realize.ledger import Ledger, apply_event
from realize.realization import realize
from ledger_views import borrows, cash, qty_outstanding
from scenario_gen import random_scenario

peso_price = st.integers(min_value=1, max_value=1000)
share_qty = st.integers(min_value=1, max_value=500_000)


def two_tick_path(p1, p2, sec="ABC"):
    return PricePath.from_table({sec: {1: Money.from_pesos(p1), 2: Money.from_pesos(p2)}})


class TestOffsetAntisymmetry:
    @given(peso_price, peso_price, share_qty)
    def test_ordinary_gain_is_short_loss(self, p1, p2, qty):
        path = two_tick_path(p1, p2)
        ordinary = run(
            Scenario("o", path, (Buy(1, "ABC", qty), SellOwned(2, "ABC", qty)))
        )
        short = run(
            Scenario(
                "s",
                path,
                (
                    Borrow(1, "ABC", qty),
                    ShortSell(1, "ABC", qty),
                    CoverByPurchase(2, "ABC", qty),
                ),
            )
        )
        (sale,) = ordinary.events
        (cover,) = short.events
        assert sale.gain_total == -cover.gain_total
        assert sale.gain_per_share == -cover.gain_per_share


class TestCoverPriceCancellation:
    @given(peso_price, peso_price, peso_price, share_qty)
    def test_owned_cover_net_ignores_cover_price(self, p1, p2, p3, qty):
        path = PricePath.from_table(
            {"ABC": {1: Money.from_pesos(p1), 2: Money.from_pesos(p2), 3: Money.from_pesos(p3)}}
        )
        report = run(
            Scenario(
                "cycle",
                path,
                (
                    Buy(1, "ABC", qty),
                    Borrow(2, "ABC", qty),
                    ShortSell(2, "ABC", qty),
                    CoverByOwnedLot(3, "ABC", qty),
                ),
            )
        )
        disposal, cover = report.events
        net = disposal.gain_total + cover.gain_total
        assert net == (Money.from_pesos(p2) - Money.from_pesos(p1)) * qty


class TestDeferralEquivalence:
    @given(peso_price, peso_price, peso_price, share_qty)
    def test_strategy3_tax_equals_strategy1_tax(self, p1, p2, p3, qty):
        path = PricePath.from_table(
            {"ABC": {1: Money.from_pesos(p1), 2: Money.from_pesos(p2), 3: Money.from_pesos(p3)}}
        )
        sell_now = run(Scenario("s1", path, (Buy(1, "ABC", qty), SellOwned(2, "ABC", qty))))
        defer = run(
            Scenario(
                "s3",
                path,
                (
                    Buy(1, "ABC", qty),
                    Borrow(2, "ABC", qty),
                    ShortSell(2, "ABC", qty),
                    CoverByOwnedLot(3, "ABC", qty),
                ),
            )
        )
        assert defer.total_tax == sell_now.total_tax
        if sell_now.total_tax > Money.zero():
            assert sell_now.tax_lines[0].period == 2
            assert defer.tax_lines[-1].period == 3


class TestConstructiveSaleEquivalence:
    @given(peso_price, peso_price, share_qty)
    def test_constructive_event_equals_outright_sale(self, p1, p2, qty):
        path = two_tick_path(p1, p2)
        proposed = run(
            Scenario(
                "p",
                path,
                (Buy(1, "ABC", qty), Borrow(2, "ABC", qty), ShortSell(2, "ABC", qty)),
            ),
            regime=Regime.PROPOSED,
        )
        current = run(Scenario("c", path, (Buy(1, "ABC", qty), SellOwned(2, "ABC", qty))))
        (constructive,) = proposed.events
        (sale,) = current.events
        assert constructive.kind is RealizationKind.CONSTRUCTIVE_SALE
        assert (constructive.at, constructive.qty) == (sale.at, sale.qty)
        assert constructive.amount_realized_per_share == sale.amount_realized_per_share
        assert constructive.basis_per_share == sale.basis_per_share
        assert constructive.gain_total == sale.gain_total


class TestGeneratedScenarios:
    def test_engine_invariants_hold(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(250):
            generated = random_scenario(rng)
            scenario = generated.scenario
            current = run(scenario, regime=Regime.CURRENT)
            proposed = run(scenario, regime=Regime.PROPOSED)

            # Cash is a ledger fact; regimes may not move it.
            assert current.cash_timeline == proposed.cash_timeline
            assert current.final_cash == proposed.final_cash

            # The current regime never realizes anything at a short-sale tick.
            for event in current.events:
                assert event.at not in generated.short_ticks
            assert all(
                e.kind is not RealizationKind.CONSTRUCTIVE_SALE for e in current.events
            )

            # Tax is floored at zero and the statutory tiers never exceed flat.
            for regime_report in (current, proposed):
                for line in regime_report.tax_lines:
                    assert line.tax_due >= Money.zero()
                    if line.net_capital_gain <= Money.zero():
                        assert line.tax_due == Money.zero()
            statutory = run(scenario, schedule=RateSchedule.STATUTORY)
            flat_by_tick = {l.period: l.tax_due for l in current.tax_lines}
            for line in statutory.tax_lines:
                assert line.tax_due <= flat_by_tick[line.period]

            # Scenarios survive a print/parse round trip.
            assert parse_scenario(format_scenario(scenario), name=scenario.name) == scenario

    def test_reports_are_deterministic(self):
        rng = random.Random(7)
        for _ in range(25):
            scenario = random_scenario(rng).scenario
            assert run(scenario).to_dict() == run(scenario).to_dict()
            assert compare(scenario).to_dict() == compare(scenario).to_dict()


class TestBuiltinInvariants:
    def test_regime_ordering_on_appreciated_abc_path(self):
        report = compare(builtin("strategy3"))
        assert report.proposed.total_tax >= report.current.total_tax
        assert report.proposed.total_tax == Money.from_pesos(1_200_000)
        assert report.current.total_tax == Money.from_pesos(500_000)

    @settings(max_examples=40)
    @given(peso_price, peso_price, peso_price)
    def test_regime_ordering_when_trigger_fires_and_short_gains(self, p1, p2, p3):
        path = PricePath.from_table(
            {"ABC": {1: Money.from_pesos(p1), 2: Money.from_pesos(p2), 3: Money.from_pesos(p3)}}
        )
        scenario = Scenario(
            "cycle",
            path,
            (
                Buy(1, "ABC", 100),
                Borrow(2, "ABC", 100),
                ShortSell(2, "ABC", 100),
                CoverByOwnedLot(3, "ABC", 100),
            ),
        )
        report = compare(scenario)
        if p3 <= p2:  # the short cycle ends in a gain
            assert report.proposed.total_tax >= report.current.total_tax


def fold(scenario, regime):
    """Thread the events through the public API, one event at a time: the realization events, the
    ledger and each step's effects."""
    ledger = Ledger(regime is Regime.PROPOSED)
    events, steps = [], []
    for ev in scenario.events:
        ledger, effects = apply_event(ledger, ev, scenario.prices)
        out, ledger = realize(effects, regime, ledger)
        events.extend(out)
        steps.append(effects)
    return events, ledger, steps


class TestRunEqualsPublicFold:
    def test_run_equals_folding_apply_event_and_realize(self):
        rng = random.Random(0xF01D)
        for _ in range(150):
            scenario = random_scenario(rng).scenario
            for regime in Regime:
                report = run(scenario, regime=regime)
                events, ledger, steps = fold(scenario, regime)
                assert report.events == tuple(events)
                assert report.final_cash == cash(steps)
                assert [lot.id for lot in ledger.lots] == sorted(lot.id for lot in ledger.lots)
                owned, outstanding = {}, {}
                for lot in ledger.lots:
                    owned[lot.sec] = owned.get(lot.sec, 0) + lot.qty
                for pos in borrows(ledger):
                    outstanding[pos.sec] = outstanding.get(pos.sec, 0) + qty_outstanding(pos)
                inventory = report.inventory
                assert inventory.owned == tuple(sorted(owned.items()))
                assert inventory.borrowed_outstanding == tuple(sorted(outstanding.items()))
                assert inventory.owner_generation == ledger.owner_generation
