"""Portfolio state machine: applying events, lot matching, step-up."""

import dataclasses

import pytest

from realize import (
    AcquisitionMethod,
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Ledger,
    Lot,
    Money,
    PortfolioState,
    PricePath,
    SellOwned,
    ShortSell,
    apply_event,
)
from realize.ledger import BorrowPosition
from realize.errors import (
    EngineError,
    InsufficientOwnedShares,
    InvalidQuantity,
    InvariantViolation,
    MissingPrice,
    NoOpenBorrow,
    OverCover,
)

ABC_PRICES = PricePath.from_table(
    {"ABC": {1: Money.from_pesos(50), 2: Money.from_pesos(100), 3: Money.from_pesos(30)}}
)


def apply_all(events, path=ABC_PRICES, state=None):
    """Apply events to a ledger seeded from ``state``: its snapshot after them, and their effects."""
    ledger = Ledger(state)
    effects = [apply_event(ledger, ev, path)[1] for ev in events]
    return ledger.snapshot(), effects


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
    def test_dataclass_tools_keep_the_kind(self, kind):
        ev = kind(1, "A", 5)
        assert [f.name for f in dataclasses.fields(kind)] == ["at", "sec", "qty"]
        changed = dataclasses.replace(ev, qty=7)
        assert type(changed) is kind and changed == kind(1, "A", 7)
        with pytest.raises(InvalidQuantity):
            dataclasses.replace(ev, qty=0)

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
        state, (eff,) = apply_all([Buy(1, "ABC", 100_000)])
        (lot,) = state.lots
        assert lot.qty == 100_000
        assert lot.basis_per_share == Money.from_pesos(50)
        assert lot.method is AcquisitionMethod.PURCHASE
        assert state.cash == Money.from_pesos(-5_000_000)
        assert eff.lot_created == lot

    def test_one_buy_one_sell_cash(self):
        state, _ = apply_all([Buy(1, "ABC", 100_000), SellOwned(2, "ABC", 100_000)])
        assert state.lots == ()
        assert state.cash == (Money.from_pesos(100) - Money.from_pesos(50)) * 100_000

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
        state, effects = apply_all(
            [Borrow(2, "ABC", 100_000), ShortSell(2, "ABC", 100_000)]
        )
        (pos,) = state.borrows
        assert pos.qty_outstanding == 100_000
        assert pos.qty_sold_short == 100_000
        assert pos.short_proceeds_per_share == Money.from_pesos(100)
        assert pos.sold_at == 2
        assert state.cash == Money.from_pesos(10_000_000)
        assert effects[1].shorts_sold[0].proceeds_per_share == Money.from_pesos(100)

    def test_short_sell_without_borrow(self):
        with pytest.raises(NoOpenBorrow):
            apply_all([ShortSell(2, "ABC", 1)])

    def test_short_sell_beyond_borrowed(self):
        with pytest.raises(NoOpenBorrow):
            apply_all([Borrow(2, "ABC", 100), ShortSell(2, "ABC", 101)])

    def test_partial_short_splits_position(self):
        state, _ = apply_all([Borrow(1, "ABC", 1000), ShortSell(1, "ABC", 400)])
        sold, unsold = state.borrows
        assert sold.qty_borrowed == sold.qty_sold_short == 400
        assert unsold.qty_borrowed == 1000 - 400
        assert unsold.qty_sold_short == 0
        # A later sale at a different price lands on its own position.
        state, _ = apply_all([ShortSell(2, "ABC", 600)], state=state)
        prices = {p.short_proceeds_per_share for p in state.borrows}
        assert prices == {Money.from_pesos(50), Money.from_pesos(100)}

    def test_borrowed_shares_never_count_as_owned(self):
        state, _ = apply_all([Borrow(1, "ABC", 100)])
        assert state.owned_qty("ABC") == 0
        assert state.borrowed_unsold_qty("ABC") == 100


class TestCash:
    def test_cash_is_read_only_and_sums_the_cash_deltas(self):
        ledger = Ledger()
        events = (Buy(1, "ABC", 10), Borrow(2, "ABC", 10), ShortSell(2, "ABC", 10), SellOwned(2, "ABC", 4),
                  CoverByPurchase(3, "ABC", 5), CoverByOwnedLot(3, "ABC", 5), Death(3))
        deltas = [apply_event(ledger, ev, ABC_PRICES)[1].cash_delta for ev in events]
        assert ledger.cash == sum(deltas, Money.zero()) == Money.from_pesos(-500 + 1_000 + 400 - 150)
        with pytest.raises(AttributeError):
            ledger.cash = Money.zero()

    def test_seeding_keeps_the_state_cash(self):
        ledger = Ledger(PortfolioState(cash=Money(-12_345)))
        assert ledger.cash == Money(-12_345)
        apply_event(ledger, Buy(1, "ABC", 1), ABC_PRICES)
        assert ledger.cash == ledger.snapshot().cash == Money(-12_345 - 5_000)


class TestCover:
    def test_cover_by_purchase_closes_position_and_spends_cash(self):
        state, effects = apply_all(
            [
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByPurchase(3, "ABC", 100_000),
            ]
        )
        assert state.borrows == ()
        assert state.cash == Money.from_pesos(10_000_000 - 3_000_000)
        (slice_,) = effects[2].shorts_covered
        assert slice_.proceeds_per_share == Money.from_pesos(100)

    def test_cover_with_owned_lot_moves_no_cash(self):
        state, effects = apply_all(
            [
                Buy(1, "ABC", 100_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByOwnedLot(3, "ABC", 100_000),
            ]
        )
        assert state.lots == ()
        assert state.borrows == ()
        assert state.cash == Money.from_pesos(-5_000_000 + 10_000_000)
        eff = effects[3]
        assert eff.cash_delta == Money.zero()
        assert eff.lots_consumed[0].basis_per_share == Money.from_pesos(50)
        assert eff.shorts_covered[0].proceeds_per_share == Money.from_pesos(100)

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
        state, effects = apply_all(
            [
                Borrow(1, "ABC", 100),
                ShortSell(1, "ABC", 100),
                Borrow(2, "ABC", 100),
                ShortSell(2, "ABC", 100),
                CoverByPurchase(3, "ABC", 150),
            ]
        )
        covered = effects[-1].shorts_covered
        assert [s.qty for s in covered] == [100, 50]
        assert covered[0].proceeds_per_share == Money.from_pesos(50)
        assert covered[1].proceeds_per_share == Money.from_pesos(100)
        assert state.sold_uncovered_qty("ABC") == 50


class TestMatchLots:
    def two_lot_state(self):
        return PortfolioState(
            lots=(
                Lot(0, "ABC", 60_000, Money.from_pesos(50), 1),
                Lot(1, "ABC", 60_000, Money.from_pesos(80), 2),
            ),
            next_lot_id=2,
        )

    def sold(self, state, qty):
        _, (effects,) = apply_all([SellOwned(2, "ABC", qty)], state=state)
        return effects.lots_consumed

    def test_single_lot_full_take(self):
        state = PortfolioState(lots=(Lot(0, "ABC", 100_000, Money.from_pesos(50), 1),))
        (s,) = self.sold(state, 100_000)
        assert (s.lot_id, s.qty, s.basis_per_share) == (0, 100_000, Money.from_pesos(50))

    def test_fifo_spills_into_second_lot(self):
        # Forced by the FIFO definition: the older lot empties first.
        a, b = self.sold(self.two_lot_state(), 100_000)
        assert (a.lot_id, a.qty, a.basis_per_share) == (0, 60_000, Money.from_pesos(50))
        assert (b.lot_id, b.qty, b.basis_per_share) == (1, 40_000, Money.from_pesos(80))


class TestStepUp:
    DEATH_PRICES = PricePath.from_table(
        {"ABC": {1: Money.from_pesos(50), 3: Money.from_pesos(130)}}
    )

    def step_up(self, state, at=3, path=DEATH_PRICES):
        ledger = Ledger(state)
        ledger.step_up(at, path)
        return ledger.snapshot()

    def test_basis_steps_up_to_death_price(self):
        state, _ = apply_all([Buy(1, "ABC", 100_000)], path=self.DEATH_PRICES)
        after = self.step_up(state)
        (lot,) = after.lots
        assert lot.basis_per_share == Money.from_pesos(130)
        assert lot.method is AcquisitionMethod.INHERITANCE
        assert lot.acquired_at == 3
        assert after.owner_generation == 1

    def test_step_up_to_same_price_keeps_value(self):
        state = PortfolioState(lots=(Lot(0, "ABC", 100, Money.from_pesos(130), 1),))
        after = self.step_up(state)
        assert after.lots[0].basis_per_share == Money.from_pesos(130)

    def test_open_borrow_transmits_unchanged(self):
        path = PricePath.from_table(
            {"ABC": {2: Money.from_pesos(100), 3: Money.from_pesos(130)}}
        )
        state, _ = apply_all([Borrow(2, "ABC", 100), ShortSell(2, "ABC", 100)], path=path)
        after = self.step_up(state, path=path)
        assert after.borrows == state.borrows

    def test_step_up_idempotent_on_price(self):
        state, _ = apply_all([Buy(1, "ABC", 100)], path=self.DEATH_PRICES)
        once = self.step_up(state)
        twice = self.step_up(once)
        assert [l.basis_per_share for l in once.lots] == [l.basis_per_share for l in twice.lots]

    def test_missing_price_at_death_tick(self):
        state, _ = apply_all([Buy(1, "ABC", 100)], path=self.DEATH_PRICES)
        with pytest.raises(MissingPrice):
            self.step_up(state, at=2)

    def test_death_event_applies_step_up(self):
        state, _ = apply_all([Buy(1, "ABC", 100)], path=self.DEATH_PRICES)
        after, (eff,) = apply_all([Death(3, heir="Y")], self.DEATH_PRICES, state)
        assert after.owner_generation == 1
        assert eff.cash_delta == Money.zero()


THREE_PRICES = PricePath.from_table(
    {sec: {t: Money.from_pesos(10 * t) for t in (1, 2, 3)} for sec in ("AAA", "BBB", "CCC")}
)


class TestPerSecurityLedger:
    def test_snapshot_is_never_changed(self):
        state, _ = apply_all([Buy(1, "ABC", 10), Borrow(1, "ABC", 100), ShortSell(1, "ABC", 100)])
        before = PortfolioState(
            state.lots, state.borrows, state.cash, state.owner_generation,
            state.next_lot_id, state.next_borrow_id,
        )
        for ev in (Buy(2, "ABC", 5), SellOwned(2, "ABC", 10), CoverByPurchase(2, "ABC", 60),
                   CoverByOwnedLot(2, "ABC", 10), Death(2)):
            seeded = Ledger(state)
            apply_event(seeded, ev, ABC_PRICES)
            assert seeded.snapshot() != state
            assert state == before
        for bad in (SellOwned(2, "ABC", 11), ShortSell(2, "ABC", 1), Buy(9, "ABC", 1),
                    CoverByPurchase(2, "ABC", 101), CoverByOwnedLot(2, "ABC", 50)):
            seeded = Ledger(state)
            with pytest.raises(EngineError):
                apply_event(seeded, bad, ABC_PRICES)
            assert seeded.snapshot() == state == before

    def test_ledger_is_unchanged_by_an_event_that_raises(self):
        # The cover finds its short positions, then runs out of owned lots.
        ledger = Ledger()
        for ev in (Buy(1, "ABC", 10), Borrow(1, "ABC", 100), ShortSell(1, "ABC", 100)):
            apply_event(ledger, ev, ABC_PRICES)
        before = ledger.snapshot()
        with pytest.raises(InsufficientOwnedShares):
            apply_event(ledger, CoverByOwnedLot(2, "ABC", 50), ABC_PRICES)
        assert ledger.snapshot() == before

    def test_ledger_changes_in_place(self):
        ledger = Ledger()
        after, _ = apply_event(ledger, Buy(1, "ABC", 10), ABC_PRICES)
        assert after is ledger
        assert len(ledger.lots) == 1

    def test_snapshot_orders_lots_by_id_and_borrows_per_security(self):
        state, _ = apply_all(
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
        assert [(lot.id, lot.qty) for lot in state.lots] == [(1, 100), (2, 50)]
        assert [p.id for p in state.borrows_of("BBB")] == [0, 3, 2]
        assert [p.id for p in state.borrows_of("AAA")] == [1]
        assert sorted(p.id for p in state.borrows) == [0, 1, 2, 3]

    def test_sales_and_covers_touch_only_their_own_security(self):
        events = [Buy(t, sec, 100) for t in (1, 2, 3) for sec in ("AAA", "BBB", "CCC")]
        events += [
            Borrow(2, "BBB", 100),
            ShortSell(2, "BBB", 100),
            SellOwned(3, "AAA", 150),
            CoverByOwnedLot(3, "BBB", 100),
        ]
        state, effects = apply_all(events, path=THREE_PRICES)
        sale, cover = effects[-2:]
        assert [(s.lot_id, s.qty) for s in sale.lots_consumed] == [(0, 100), (3, 50)]
        assert [(s.lot_id, s.qty) for s in cover.lots_consumed] == [(1, 100)]
        assert [(lot.id, lot.qty) for lot in state.lots_of("AAA")] == [(3, 50), (6, 100)]
        assert [(lot.id, lot.qty) for lot in state.lots_of("BBB")] == [(4, 100), (7, 100)]
        assert [(lot.id, lot.qty) for lot in state.lots_of("CCC")] == [(2, 100), (5, 100), (8, 100)]
        assert not state.borrows_of("BBB")

    def test_sold_position_without_price_is_an_engine_error(self):
        state = PortfolioState(borrows=(BorrowPosition(0, "ABC", 100, 1, qty_sold_short=100),))
        with pytest.raises(InvariantViolation):
            apply_event(Ledger(state), CoverByPurchase(2, "ABC", 100), ABC_PRICES)
