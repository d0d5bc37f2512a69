"""Portfolio state machine: applying events, lot matching, step-up."""

import copy
import dataclasses
import random
from collections import deque

import pytest

from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Money,
    PricePath,
    Regime,
    Scenario,
    SellOwned,
    ShortSell,
    run,
)
from realize.ledger import BorrowPosition, Ledger, LedgerEffects, apply_event
from realize.errors import (
    EngineError,
    InsufficientOwnedShares,
    InvalidQuantity,
    InvariantViolation,
    MissingPrice,
    NoOpenBorrow,
    OverCover,
)
from ledger_views import (
    borrowed_unsold_qty,
    borrows,
    borrows_of,
    cash,
    owned_qty,
    qty_outstanding,
    shorts_of,
    snapshot,
    sold_uncovered_qty,
    unsold_of,
)
from scenario_gen import random_scenario

ABC_PRICES = PricePath.from_table(
    {"ABC": {1: Money.from_pesos(50), 2: Money.from_pesos(100), 3: Money.from_pesos(30)}}
)
A_PRICES = PricePath({("A", 1): Money.from_pesos(10)})


def apply_all(events, path=ABC_PRICES, ledger=None):
    """Apply events to ``ledger``, or to a new one: the ledger after them, and their effects."""
    ledger = Ledger() if ledger is None else ledger
    effects = [apply_event(ledger, ev, path)[1] for ev in events]
    return ledger, effects


TRADES = (Buy, Borrow, ShortSell, SellOwned, CoverByPurchase, CoverByOwnedLot)


class TestTradeEvents:
    """The six trade events share one base but stay distinct value types."""

    @pytest.mark.parametrize("kind", TRADES, ids=lambda k: k.__name__)
    def test_repr_names_the_kind(self, kind):
        assert repr(kind(at=1, sec="A", qty=1)) == f"{kind.__name__}(at=1, sec='A', qty=1)"

    def test_kinds_with_equal_fields_are_unequal(self):
        events = [kind(1, "A", 1) for kind in TRADES]
        for i, a in enumerate(events):
            for j, b in enumerate(events):
                assert (a == b) is (i == j)
        assert len(set(events)) == len(TRADES)
        assert Buy(1, "A", 1) == Buy(1, "A", 1)

    @pytest.mark.parametrize("kind", TRADES, ids=lambda k: k.__name__)
    def test_fields_are_the_trade_fields(self, kind):
        assert kind.__match_args__ == ("at", "sec", "qty")
        assert not dataclasses.is_dataclass(kind)

    @pytest.mark.parametrize("kind", TRADES, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("qty", [0, -1])
    def test_non_positive_quantity_rejected(self, kind, qty):
        with pytest.raises(InvalidQuantity):
            kind(1, "A", qty)

    @pytest.mark.parametrize("kind", TRADES, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("qty", [1.5, 2.0, True, "3", None], ids=repr)
    def test_a_quantity_that_is_not_an_int_is_rejected(self, kind, qty):
        # As Money refuses non-int centavos: a float ended in TypeError at run(), True bought one share.
        with pytest.raises(InvalidQuantity, match="quantity must be an int"):
            kind(1, "A", qty)

    @pytest.mark.parametrize("kind", TRADES, ids=lambda k: k.__name__)
    def test_frozen_and_slotted(self, kind):
        ev = kind(1, "A", 1)
        assert not hasattr(ev, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.qty = 2


class TestBuyAndSell:
    def test_buy_opens_lot_and_spends_cash(self):
        ledger, (eff,) = apply_all([Buy(1, "ABC", 100_000)])
        (lot,) = ledger.lots
        assert lot.qty == 100_000
        assert lot.basis_per_share == Money.from_pesos(50)
        assert eff.cash_centavos == Money.from_pesos(-5_000_000).centavos
        assert eff == LedgerEffects(Buy(1, "ABC", 100_000), lot.basis_per_share, -500_000_000)

    def test_one_buy_one_sell_cash(self):
        ledger, effects = apply_all([Buy(1, "ABC", 100_000), SellOwned(2, "ABC", 100_000)])
        assert not ledger.lots
        assert cash(effects) == (Money.from_pesos(100) - Money.from_pesos(50)) * 100_000

    def test_sell_more_than_owned(self):
        with pytest.raises(InsufficientOwnedShares):
            apply_all([Buy(1, "ABC", 100), SellOwned(2, "ABC", 101)])

    def test_event_quantities_must_be_positive(self):
        with pytest.raises(InvalidQuantity):
            Buy(1, "ABC", 0)
        with pytest.raises(InvalidQuantity):
            SellOwned(1, "ABC", -5)

    def test_missing_price_propagates(self):
        with pytest.raises(MissingPrice):
            apply_all([Buy(9, "ABC", 100)])


class TestBorrowAndShort:
    def test_borrow_then_short_sell(self):
        ledger, effects = apply_all(
            [Borrow(2, "ABC", 100_000), ShortSell(2, "ABC", 100_000)]
        )
        (pos,) = borrows(ledger)
        assert qty_outstanding(pos) == 100_000
        assert pos.qty == 100_000 and shorts_of(ledger, "ABC") == (pos,)
        assert pos.short_proceeds_per_share == Money.from_pesos(100)
        assert cash(effects) == Money.from_pesos(10_000_000)
        ((sold, qty),) = effects[1].shorts
        assert sold == pos and qty == 100_000
        assert sold.short_proceeds_per_share == Money.from_pesos(100)

    def test_short_sell_without_borrow(self):
        with pytest.raises(NoOpenBorrow):
            apply_all([ShortSell(2, "ABC", 1)])

    def test_short_sell_beyond_borrowed(self):
        with pytest.raises(NoOpenBorrow):
            apply_all([Borrow(2, "ABC", 100), ShortSell(2, "ABC", 101)])

    def test_partial_short_splits_position(self):
        ledger, _ = apply_all([Borrow(1, "ABC", 1000), ShortSell(1, "ABC", 400)])
        sold, unsold = borrows(ledger)
        assert sold.qty == 400 and shorts_of(ledger, "ABC") == (sold,)
        assert unsold.qty == 1000 - 400
        assert unsold_of(ledger, "ABC") == (unsold,)
        # A later sale at a different price lands on its own position.
        ledger, _ = apply_all([ShortSell(2, "ABC", 600)], ledger=ledger)
        prices = {p.short_proceeds_per_share for p in borrows(ledger)}
        assert prices == {Money.from_pesos(50), Money.from_pesos(100)}

    @pytest.mark.parametrize("regime", Regime)
    def test_a_short_sale_past_the_unsold_positions_names_their_total(self, regime):
        events = (Borrow(1, "A", 30), Borrow(1, "A", 40), ShortSell(1, "A", 80))
        with pytest.raises(NoOpenBorrow) as info:
            run(Scenario("pin", A_PRICES, events), regime)
        assert str(info.value) == "short sale of 80 A exceeds borrowed-unsold 70"
        assert info.value.event_index == 2

    @pytest.mark.parametrize("regime", Regime)
    def test_an_over_cover_after_a_split_and_a_second_borrow_names_the_open_shorts(self, regime):
        events = (
            Borrow(1, "A", 100), ShortSell(1, "A", 40), CoverByPurchase(1, "A", 40),
            Borrow(1, "A", 10), ShortSell(1, "A", 70), CoverByPurchase(1, "A", 80),
        )
        with pytest.raises(OverCover) as info:
            run(Scenario("pin", A_PRICES, events), regime)
        assert str(info.value) == "cover of 80 A exceeds open sold-short quantity 70"
        assert info.value.event_index == 5
        _, effects = apply_all(events[:5], path=A_PRICES)
        # The first sale's unsold rest became position 1; the second borrow is position 2.
        assert [(p.id, qty) for p, qty in effects[4].shorts] == [(1, 60), (2, 10)]

    def test_borrowed_shares_never_count_as_owned(self):
        ledger, _ = apply_all([Borrow(1, "ABC", 100)])
        assert owned_qty(ledger, "ABC") == 0
        assert borrowed_unsold_qty(ledger, "ABC") == 100


class TestCash:
    def test_each_step_reports_its_cash_as_int_centavos(self):
        events = (Buy(1, "ABC", 10), Borrow(2, "ABC", 10), ShortSell(2, "ABC", 10), SellOwned(2, "ABC", 4),
                  CoverByPurchase(3, "ABC", 5), CoverByOwnedLot(3, "ABC", 5), Death(3))
        _, effects = apply_all(events)
        deltas = [eff.cash_centavos for eff in effects]
        assert all(type(delta) is int for delta in deltas)
        assert deltas == [-50_000, 0, 100_000, 40_000, -15_000, 0, 0]
        assert cash(effects) == Money.from_pesos(-500 + 1_000 + 400 - 150)
        assert run(Scenario("cash", ABC_PRICES, events)).final_cash == cash(effects)


class TestCover:
    def test_cover_by_purchase_closes_position_and_spends_cash(self):
        ledger, effects = apply_all(
            [
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByPurchase(3, "ABC", 100_000),
            ]
        )
        assert borrows(ledger) == ()
        assert cash(effects) == Money.from_pesos(10_000_000 - 3_000_000)
        ((pos, qty),) = effects[2].shorts
        assert qty == 100_000
        assert pos.short_proceeds_per_share == Money.from_pesos(100)

    def test_cover_with_owned_lot_moves_no_cash(self):
        ledger, effects = apply_all(
            [
                Buy(1, "ABC", 100_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByOwnedLot(3, "ABC", 100_000),
            ]
        )
        assert not ledger.lots
        assert borrows(ledger) == ()
        assert cash(effects) == Money.from_pesos(-5_000_000 + 10_000_000)
        eff = effects[3]
        assert eff.cash_centavos == 0
        assert eff.lots_consumed[0][0].basis_per_share == Money.from_pesos(50)
        assert eff.shorts[0][0].short_proceeds_per_share == Money.from_pesos(100)

    def test_cover_with_owned_lot_without_inventory(self):
        with pytest.raises(InsufficientOwnedShares):
            apply_all(
                [
                    Borrow(2, "ABC", 100),
                    ShortSell(2, "ABC", 100),
                    CoverByOwnedLot(3, "ABC", 100),
                ]
            )

    def test_over_cover(self):
        with pytest.raises(OverCover):
            apply_all(
                [
                    Borrow(2, "ABC", 100),
                    ShortSell(2, "ABC", 100),
                    CoverByPurchase(3, "ABC", 101),
                ]
            )

    def test_cover_of_never_sold_borrow_is_rejected(self):
        # Returning borrowed-but-never-sold shares is not a short-sale cover.
        with pytest.raises(OverCover):
            apply_all([Borrow(2, "ABC", 100), CoverByPurchase(3, "ABC", 100)])

    def test_covers_consume_positions_fifo(self):
        ledger, effects = apply_all(
            [
                Borrow(1, "ABC", 100),
                ShortSell(1, "ABC", 100),
                Borrow(2, "ABC", 100),
                ShortSell(2, "ABC", 100),
                CoverByPurchase(3, "ABC", 150),
            ]
        )
        covered = effects[-1].shorts
        assert [qty for _, qty in covered] == [100, 50]
        assert covered[0][0].short_proceeds_per_share == Money.from_pesos(50)
        assert covered[1][0].short_proceeds_per_share == Money.from_pesos(100)
        assert sold_uncovered_qty(ledger, "ABC") == 50


class TestMatchLots:
    PRICES = PricePath.from_table(
        {"ABC": {1: Money.from_pesos(50), 2: Money.from_pesos(80), 3: Money.from_pesos(100)}}
    )
    TWO_LOTS = (Buy(1, "ABC", 60_000), Buy(2, "ABC", 60_000))

    def sold(self, buys, qty):
        _, effects = apply_all([*buys, SellOwned(3, "ABC", qty)], path=self.PRICES)
        return effects[-1].lots_consumed

    def test_single_lot_full_take(self):
        ((lot, qty),) = self.sold([Buy(1, "ABC", 100_000)], 100_000)
        assert (lot.id, qty, lot.basis_per_share) == (0, 100_000, Money.from_pesos(50))

    def test_fifo_spills_into_second_lot(self):
        # Forced by the FIFO definition: the older lot empties first.
        (a, a_qty), (b, b_qty) = self.sold(self.TWO_LOTS, 100_000)
        assert (a.id, a_qty, a.basis_per_share) == (0, 60_000, Money.from_pesos(50))
        assert (b.id, b_qty, b.basis_per_share) == (1, 40_000, Money.from_pesos(80))


class TestEffectPairs:
    """Effects name the ledger's own lots and positions taken, first in first out, as they stood before."""

    def test_a_sale_names_its_lots_as_they_stood_before_it(self):
        ledger, _ = apply_all([Buy(1, "ABC", 30), Buy(2, "ABC", 40), Buy(3, "ABC", 50)])
        first, second, _ = ledger.lots_of("ABC")
        _, (eff,) = apply_all([SellOwned(3, "ABC", 60)], ledger=ledger)
        assert eff.lots_consumed == ((first, 30), (second, 30))
        assert [(lot.id, lot.qty) for lot, _ in eff.lots_consumed] == [(0, 30), (1, 40)]
        assert [(lot.id, lot.qty) for lot in ledger.lots_of("ABC")] == [(1, 10), (2, 50)]

    def test_a_short_sale_names_the_positions_sold_and_a_cover_those_covered(self):
        _, effects = apply_all(
            [Borrow(1, "ABC", 30), Borrow(1, "ABC", 40), ShortSell(2, "ABC", 50), CoverByPurchase(3, "ABC", 40)]
        )
        sale, cover = effects[2:]
        assert [(p.id, p.qty, p.short_proceeds_per_share, qty) for p, qty in sale.shorts] == [
            (0, 30, Money.from_pesos(100), 30), (1, 20, Money.from_pesos(100), 20),
        ]
        # Each covered position as it stood before the cover: as sold, nothing covered yet.
        assert cover.shorts == ((sale.shorts[0][0], 30), (sale.shorts[1][0], 10))

    def test_a_cover_names_a_lot_taken_twice_reserved_pair_first(self):
        ledger, effects = apply_all(
            [Borrow(1, "ABC", 100), ShortSell(1, "ABC", 50), Buy(1, "ABC", 100), ShortSell(2, "ABC", 50)],
            ledger=Ledger(reserving=True),
        )
        (lot,) = ledger.lots_of("ABC")
        # The first short sale came before the buy: only the second one's shares were sold against lot 0.
        assert effects[1].reserved == () and effects[-1].reserved == ((lot, 50),)
        _, (cover,) = apply_all([CoverByOwnedLot(3, "ABC", 100)], ledger=ledger)
        assert cover.reserved == ((lot, 50),) and cover.lots_consumed == ((lot, 50),)
        assert not ledger.lots and not ledger.reserved_by_lot("ABC")


    RESERVING = (Buy(1, "ABC", 30), Buy(1, "ABC", 40), Borrow(1, "ABC", 100), ShortSell(2, "ABC", 50))

    def test_a_reserving_short_sale_names_the_shares_it_reserved_and_consumes_none(self):
        ledger, effects = apply_all(self.RESERVING, ledger=Ledger(reserving=True))
        first, second = ledger.lots_of("ABC")
        assert effects[-1].reserved == ((first, 30), (second, 20)) and effects[-1].lots_consumed == ()
        assert ledger.reserved_by_lot("ABC") == {0: 30, 1: 20}
        _, plain = apply_all(self.RESERVING)
        assert plain[-1].reserved == () and plain[-1].shorts == effects[-1].shorts

    def test_a_cover_by_purchase_names_the_shares_it_freed(self):
        ledger, _ = apply_all(self.RESERVING, ledger=Ledger(reserving=True))
        first, second = ledger.lots_of("ABC")
        _, (cover,) = apply_all([CoverByPurchase(3, "ABC", 40)], ledger=ledger)
        assert cover.reserved == ((first, 30), (second, 10)) and cover.lots_consumed == ()
        assert ledger.reserved_by_lot("ABC") == {1: 10}

    def test_a_cover_with_owned_shares_names_the_reserved_shares_apart_from_those_it_disposes_of(self):
        ledger, _ = apply_all(self.RESERVING, ledger=Ledger(reserving=True))
        first, second = ledger.lots_of("ABC")
        _, (cover,) = apply_all([CoverByOwnedLot(3, "ABC", 50)], ledger=ledger)
        # All 50 shares covered were sold against reserved ones: it disposes of nothing more.
        assert cover.reserved == ((first, 30), (second, 20)) and cover.lots_consumed == ()
        # Ten shares sold short before the buys reserve nothing: covering them disposes of ten free shares.
        ledger, _ = apply_all((Borrow(1, "ABC", 10), ShortSell(1, "ABC", 10)) + self.RESERVING,
                              ledger=Ledger(reserving=True))
        first, second = ledger.lots_of("ABC")
        _, (cover,) = apply_all([CoverByOwnedLot(3, "ABC", 60)], ledger=ledger)
        assert cover.reserved == ((first, 30), (second, 20)) and cover.lots_consumed == ((second, 10),)
        assert [(lot.id, lot.qty) for lot in ledger.lots] == [(1, 10)] and not ledger.reserved_by_lot("ABC")

    def test_a_shortfall_settles_the_first_marks_of_a_position_it_leaves_open(self):
        # Two shares sold short before the buy, then two against the box: one free share is left.  The first
        # with-owned cover takes it; the second, short of free shares, delivers the share reserved against
        # the second position's first share.  Covering that share frees nothing, and covering the last one
        # delivers the share reserved against it.
        path = PricePath({("C", t): Money.from_pesos(10 * t) for t in range(1, 6)})
        ledger, effects = apply_all(
            [Borrow(1, "C", 4), ShortSell(1, "C", 2), Buy(1, "C", 3), CoverByOwnedLot(2, "C", 1),
             ShortSell(2, "C", 2), CoverByOwnedLot(3, "C", 1), CoverByPurchase(4, "C", 1), CoverByOwnedLot(5, "C", 1)],
            path=path, ledger=Ledger(reserving=True),
        )
        shortfall, by_purchase, last = effects[-3:]
        assert [(lot.id, qty) for lot, qty in shortfall.reserved] == [(0, 1)] and shortfall.lots_consumed == ()
        assert by_purchase.reserved == ()
        assert [(lot.id, qty) for lot, qty in last.reserved] == [(0, 1)] and last.lots_consumed == ()
        assert not ledger.lots and not ledger.reserved_by_lot("C")

    def test_a_plain_ledger_never_reserves(self):
        rng = random.Random(0xEFFEC7)
        for _ in range(150):
            scenario = random_scenario(rng).scenario
            _, effects = apply_all(scenario.events, path=scenario.prices)
            assert all(eff.reserved == () for eff in effects), scenario


class TestStepUp:
    DEATH_PRICES = PricePath.from_table(
        {"ABC": {1: Money.from_pesos(50), 3: Money.from_pesos(130)}}
    )

    def step_up(self, ledger, at=3, path=DEATH_PRICES):
        """``ledger`` after a death at ``at``."""
        apply_event(ledger, Death(at), path)
        return ledger

    def test_basis_steps_up_to_death_price(self):
        ledger, _ = apply_all([Buy(1, "ABC", 100_000)], path=self.DEATH_PRICES)
        after = self.step_up(ledger)
        (lot,) = after.lots
        assert lot.basis_per_share == Money.from_pesos(130)
        assert after.owner_generation == 1

    def test_step_up_to_same_price_keeps_value(self):
        path = PricePath.from_table({"ABC": {1: Money.from_pesos(130), 3: Money.from_pesos(130)}})
        ledger, _ = apply_all([Buy(1, "ABC", 100)], path=path)
        (lot,) = self.step_up(ledger, path=path).lots
        assert lot.basis_per_share == Money.from_pesos(130)

    def test_open_borrow_transmits_unchanged(self):
        path = PricePath.from_table(
            {"ABC": {2: Money.from_pesos(100), 3: Money.from_pesos(130)}}
        )
        ledger, _ = apply_all([Borrow(2, "ABC", 100), ShortSell(2, "ABC", 100)], path=path)
        before = borrows(ledger)
        after = self.step_up(ledger, path=path)
        assert borrows(after) == before

    def test_step_up_idempotent_on_price(self):
        ledger, _ = apply_all([Buy(1, "ABC", 100)], path=self.DEATH_PRICES)
        once = [l.basis_per_share for l in self.step_up(ledger).lots]
        twice = [l.basis_per_share for l in self.step_up(ledger).lots]
        assert once == twice

    def test_missing_price_at_death_tick(self):
        ledger, _ = apply_all([Buy(1, "ABC", 100)], path=self.DEATH_PRICES)
        with pytest.raises(MissingPrice):
            self.step_up(ledger, at=2)

    def test_death_event_applies_step_up(self):
        ledger, _ = apply_all([Buy(1, "ABC", 100)], path=self.DEATH_PRICES)
        after, (eff,) = apply_all([Death(3, heir="Y")], self.DEATH_PRICES, ledger=ledger)
        assert after.owner_generation == 1
        assert eff.cash_centavos == 0


THREE_PRICES = PricePath.from_table(
    {sec: {t: Money.from_pesos(10 * t) for t in (1, 2, 3)} for sec in ("AAA", "BBB", "CCC")}
)


class TestPerSecurityLedger:
    OPENING = (Buy(1, "ABC", 10), Borrow(1, "ABC", 100), ShortSell(1, "ABC", 100))

    def test_snapshot_is_never_changed(self):
        # A snapshot shares nothing with its ledger, so an unchanged-ledger check cannot pass vacuously.
        for ev in (Buy(2, "ABC", 5), SellOwned(2, "ABC", 10), CoverByPurchase(2, "ABC", 60),
                   CoverByOwnedLot(2, "ABC", 10), Death(2)):
            ledger, _ = apply_all(self.OPENING)
            state = snapshot(ledger)
            before = copy.deepcopy(state)
            apply_event(ledger, ev, ABC_PRICES)
            assert snapshot(ledger) != state
            assert state == before
        for bad in (SellOwned(2, "ABC", 11), ShortSell(2, "ABC", 1), Buy(9, "ABC", 1),
                    CoverByPurchase(2, "ABC", 101), CoverByOwnedLot(2, "ABC", 50)):
            ledger, _ = apply_all(self.OPENING)
            state = snapshot(ledger)
            with pytest.raises(EngineError):
                apply_event(ledger, bad, ABC_PRICES)
            assert snapshot(ledger) == state

    def test_ledger_is_unchanged_by_an_event_that_raises(self):
        # The cover finds its short positions, then runs out of owned lots.
        ledger, _ = apply_all(self.OPENING)
        before = snapshot(ledger)
        with pytest.raises(InsufficientOwnedShares):
            apply_event(ledger, CoverByOwnedLot(2, "ABC", 50), ABC_PRICES)
        assert snapshot(ledger) == before

    def test_ledger_changes_in_place(self):
        ledger = Ledger()
        after, _ = apply_event(ledger, Buy(1, "ABC", 10), ABC_PRICES)
        assert after is ledger
        assert len(ledger.lots) == 1

    def test_snapshot_orders_lots_by_id_and_borrows_per_security(self):
        ledger, _ = apply_all(
            [
                Buy(1, "AAA", 100),  # lot 0
                Buy(1, "BBB", 100),  # lot 1
                Buy(1, "AAA", 100),  # lot 2
                SellOwned(2, "AAA", 150),  # empties lot 0, halves lot 2
                Borrow(2, "BBB", 100),  # position 0
                Borrow(2, "AAA", 100),  # position 1
                Borrow(2, "BBB", 50),  # position 2
                ShortSell(2, "BBB", 60),  # sells 60 of position 0; its rest is position 3
            ],
            path=THREE_PRICES,
        )
        assert [(lot.id, lot.qty) for lot in ledger.lots] == [(1, 100), (2, 50)]
        assert [p.id for p in borrows_of(ledger, "BBB")] == [0, 3, 2]
        assert [p.id for p in borrows_of(ledger, "AAA")] == [1]
        assert sorted(p.id for p in borrows(ledger)) == [0, 1, 2, 3]

    def test_sales_and_covers_touch_only_their_own_security(self):
        events = [Buy(t, sec, 100) for t in (1, 2, 3) for sec in ("AAA", "BBB", "CCC")]
        events += [
            Borrow(2, "BBB", 100),
            ShortSell(2, "BBB", 100),
            SellOwned(3, "AAA", 150),
            CoverByOwnedLot(3, "BBB", 100),
        ]
        ledger, effects = apply_all(events, path=THREE_PRICES)
        sale, cover = effects[-2:]
        assert [(lot.id, qty) for lot, qty in sale.lots_consumed] == [(0, 100), (3, 50)]
        assert [(lot.id, qty) for lot, qty in cover.lots_consumed] == [(1, 100)]
        assert [(lot.id, lot.qty) for lot in ledger.lots_of("AAA")] == [(3, 50), (6, 100)]
        assert [(lot.id, lot.qty) for lot in ledger.lots_of("BBB")] == [(4, 100), (7, 100)]
        assert [(lot.id, lot.qty) for lot in ledger.lots_of("CCC")] == [(2, 100), (5, 100), (8, 100)]
        assert not borrows_of(ledger, "BBB")

    def test_sold_position_without_price_is_an_engine_error(self):
        # No event makes such a position, so it is planted in the ledger's private shorts queue.
        ledger = Ledger()
        ledger._borrows["ABC"] = deque([BorrowPosition(0, "ABC", 100)]), deque()
        with pytest.raises(InvariantViolation):
            apply_event(ledger, CoverByPurchase(2, "ABC", 100), ABC_PRICES)
