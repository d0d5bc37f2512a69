"""Regime semantics: which realization events each ledger effect produces."""

import pytest

from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Money,
    PricePath,
    RealizationEvent,
    RealizationKind,
    Regime,
    Scenario,
    SellOwned,
    ShortSell,
    compare,
    run,
)
from realize.errors import EngineError, InsufficientOwnedShares, OverCover
from realize.ledger import Ledger, LedgerEffects, apply_event
from realize.realization import realize
from ledger_views import borrows, owned_qty, snapshot

ABC_PRICES = PricePath.from_table(
    {"ABC": {1: Money.from_pesos(50), 2: Money.from_pesos(100), 3: Money.from_pesos(30)}}
)


def run_events(events, regime, path=ABC_PRICES, ledger=None):
    """Thread events through ledger and realization, like the runner does."""
    ledger = Ledger(regime is Regime.PROPOSED) if ledger is None else ledger
    out = []
    for ev in events:
        ledger, effects = apply_event(ledger, ev, path)
        events_out, ledger = realize(effects, regime, ledger)
        out.extend(events_out)
    return out, ledger


def unreserved(ledger, sec="ABC"):
    """Owned shares of ``sec`` that no short sale has reserved."""
    return owned_qty(ledger, sec) - sum(ledger.reserved_by_lot(sec).values())


STRATEGY3 = (
    Buy(1, "ABC", 100_000),
    Borrow(2, "ABC", 100_000),
    ShortSell(2, "ABC", 100_000),
    CoverByOwnedLot(3, "ABC", 100_000),
)


class TestCurrentRegime:
    def test_ordinary_sale_realizes_at_sale(self):
        events, _ = run_events([Buy(1, "ABC", 100_000), SellOwned(2, "ABC", 100_000)], Regime.CURRENT)
        (sale,) = events
        assert sale.kind is RealizationKind.ORDINARY_SALE
        assert sale.at == 2
        assert sale.amount_realized_per_share == Money.from_pesos(100)
        assert sale.basis_per_share == Money.from_pesos(50)
        assert sale.gain_total == Money.from_pesos(5_000_000)

    def test_short_sell_realizes_nothing(self):
        events, _ = run_events(
            [Borrow(2, "ABC", 100_000), ShortSell(2, "ABC", 100_000)], Regime.CURRENT
        )
        assert events == []

    def test_cover_by_purchase_realizes_whole_cycle_at_cover(self):
        events, _ = run_events(
            [
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByPurchase(3, "ABC", 100_000),
            ],
            Regime.CURRENT,
        )
        (cover,) = events
        assert cover.kind is RealizationKind.SHORT_COVER
        assert cover.at == 3
        assert cover.amount_realized_per_share == Money.from_pesos(100)
        assert cover.basis_per_share == Money.from_pesos(30)
        assert cover.gain_total == Money.from_pesos(7_000_000)

    def test_cover_by_owned_lot_emits_exactly_two_events(self):
        events, _ = run_events(STRATEGY3, Regime.CURRENT)
        assert len(events) == 2
        disposal, cover = events
        assert disposal.kind is RealizationKind.OWNED_DISPOSAL_AT_COVER
        assert disposal.at == cover.at == 3
        # Deemed proceeds of the owned lot equal the replacement price.
        assert disposal.amount_realized_per_share == Money.from_pesos(30)
        assert disposal.gain_per_share == Money.from_pesos(-20)
        assert cover.kind is RealizationKind.SHORT_COVER
        assert cover.gain_per_share == Money.from_pesos(70)

    def test_same_tick_buy_sell_zero_gain(self):
        events, _ = run_events([Buy(1, "ABC", 100), SellOwned(1, "ABC", 100)], Regime.CURRENT)
        (sale,) = events
        assert sale.gain_per_share == Money.zero()
        assert sale.gain_total == Money.zero()

    def test_death_scenario_events(self):
        path = PricePath.from_table(
            {
                "ABC": {
                    1: Money.from_pesos(50),
                    2: Money.from_pesos(100),
                    3: Money.from_pesos(130),
                    4: Money.from_pesos(130),
                }
            }
        )
        events, _ = run_events(
            [
                Buy(1, "ABC", 100_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                Death(3),
                CoverByOwnedLot(4, "ABC", 100_000),
            ],
            Regime.CURRENT,
            path=path,
        )
        disposal, cover = events
        assert disposal.gain_per_share == Money.zero()
        assert cover.gain_per_share == Money.from_pesos(-30)
        assert cover.gain_total == Money.from_pesos(-3_000_000)

    def test_cover_price_cancels_in_owned_cover_net(self):
        events, _ = run_events(STRATEGY3, Regime.CURRENT)
        disposal, cover = events
        net = disposal.gain_total + cover.gain_total
        # short proceeds 100 less original basis 50, independent of the 30 cover price
        assert net == (Money.from_pesos(100) - Money.from_pesos(50)) * 100_000


class TestProposedRegime:
    def test_short_against_owned_realizes_constructively(self):
        events, ledger = run_events(STRATEGY3[:3], Regime.PROPOSED)
        (constructive,) = events
        assert constructive.kind is RealizationKind.CONSTRUCTIVE_SALE
        assert constructive.at == 2
        assert constructive.amount_realized_per_share == Money.from_pesos(100)
        assert constructive.basis_per_share == Money.from_pesos(50)
        assert constructive.gain_total == Money.from_pesos(5_000_000)
        assert sum(ledger.reserved_by_lot("ABC").values()) == 100_000

    def test_cover_emits_only_the_short_cover(self):
        events, ledger = run_events(STRATEGY3, Regime.PROPOSED)
        assert [e.kind for e in events] == [
            RealizationKind.CONSTRUCTIVE_SALE,
            RealizationKind.SHORT_COVER,
        ]
        cover = events[1]
        assert cover.at == 3
        assert cover.amount_realized_per_share == Money.from_pesos(100)
        assert cover.basis_per_share == Money.from_pesos(30)
        assert cover.gain_total == Money.from_pesos(7_000_000)
        assert ledger.reserved_by_lot("ABC") == {}
        assert not ledger.lots

    def test_short_without_owned_shares_follows_current_rule(self):
        events, ledger = run_events(
            [Borrow(2, "ABC", 100), ShortSell(2, "ABC", 100)], Regime.PROPOSED
        )
        assert events == []
        assert ledger.reserved_by_lot("ABC") == {}

    def test_constructive_sale_matches_ordinary_sale_of_same_lot(self):
        proposed, _ = run_events(STRATEGY3[:3], Regime.PROPOSED)
        current, _ = run_events(
            [Buy(1, "ABC", 100_000), SellOwned(2, "ABC", 100_000)], Regime.CURRENT
        )
        (constructive,) = proposed
        (sale,) = current
        assert constructive.amount_realized_per_share == sale.amount_realized_per_share
        assert constructive.basis_per_share == sale.basis_per_share
        assert constructive.gain_total == sale.gain_total
        assert constructive.at == sale.at

    def test_partial_ownership_splits_per_share(self):
        # Own 60,000 and short 100,000: the first 60,000 realize now, the
        # remaining 40,000 follow the current rule and realize at cover.
        # Hand-computed slices: constructive (100-50)*60k = 3,000,000 at t2;
        # cover (100-30)*100k = 7,000,000 at t3.
        events, ledger = run_events(
            [
                Buy(1, "ABC", 60_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
            ],
            Regime.PROPOSED,
        )
        (constructive,) = events
        assert constructive.qty == 60_000
        assert constructive.gain_total == Money.from_pesos(3_000_000)
        assert sum(ledger.reserved_by_lot("ABC").values()) == 60_000

        events, _ = run_events(
            [
                Buy(1, "ABC", 60_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByPurchase(3, "ABC", 100_000),
            ],
            Regime.PROPOSED,
        )
        cover_events = [e for e in events if e.kind is RealizationKind.SHORT_COVER]
        assert sum(e.gain_total.centavos for e in cover_events) == Money.from_pesos(
            7_000_000
        ).centavos

    def test_mixed_cover_with_owned_emits_disposal_for_unreserved_slice(self):
        # Own 60,000 at the short, buy 40,000 more later, cover all 100,000
        # with owned shares: the reserved 60,000 emit no owned-side event,
        # the late 40,000 follow the current two-event rule.
        events, ledger = run_events(
            [
                Buy(1, "ABC", 60_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                Buy(3, "ABC", 40_000),
                CoverByOwnedLot(3, "ABC", 100_000),
            ],
            Regime.PROPOSED,
        )
        kinds = [e.kind for e in events]
        assert kinds == [  # owned disposals first, then the short cover
            RealizationKind.CONSTRUCTIVE_SALE,
            RealizationKind.OWNED_DISPOSAL_AT_COVER,
            RealizationKind.SHORT_COVER,
        ]
        disposal = next(e for e in events if e.kind is RealizationKind.OWNED_DISPOSAL_AT_COVER)
        assert disposal.qty == 40_000
        assert disposal.basis_per_share == Money.from_pesos(30)
        assert ledger.reserved_by_lot("ABC") == {}
        assert not ledger.lots

    def test_reserved_shares_cannot_be_sold(self):
        with pytest.raises(InsufficientOwnedShares):
            run_events(
                [
                    Buy(1, "ABC", 100_000),
                    Borrow(2, "ABC", 100_000),
                    ShortSell(2, "ABC", 100_000),
                    SellOwned(3, "ABC", 1),
                ],
                Regime.PROPOSED,
            )

    def test_unreserved_remainder_can_be_sold(self):
        events, _ = run_events(
            [
                Buy(1, "ABC", 100_000),
                Borrow(2, "ABC", 60_000),
                ShortSell(2, "ABC", 60_000),
                SellOwned(3, "ABC", 40_000),
            ],
            Regime.PROPOSED,
        )
        sale = next(e for e in events if e.kind is RealizationKind.ORDINARY_SALE)
        assert sale.qty == 40_000

    def test_cover_by_purchase_releases_reservation(self):
        events, ledger = run_events(
            [
                Buy(1, "ABC", 100_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByPurchase(3, "ABC", 100_000),
                SellOwned(3, "ABC", 100_000),
            ],
            Regime.PROPOSED,
        )
        assert ledger.reserved_by_lot("ABC") == {}
        sale = next(e for e in events if e.kind is RealizationKind.ORDINARY_SALE)
        assert sale.qty == 100_000

    def test_partial_purchase_cover_releases_then_owned_cover_consumes(self):
        # Cover 40,000 by purchase (releases that much reservation), then the
        # remaining 60,000 with owned shares; 40,000 shares stay owned and
        # sellable afterwards.
        events, ledger = run_events(
            [
                Buy(1, "ABC", 100_000),
                Borrow(2, "ABC", 100_000),
                ShortSell(2, "ABC", 100_000),
                CoverByPurchase(3, "ABC", 40_000),
                CoverByOwnedLot(3, "ABC", 60_000),
                SellOwned(3, "ABC", 40_000),
            ],
            Regime.PROPOSED,
        )
        kinds = [e.kind for e in events]
        assert kinds == [
            RealizationKind.CONSTRUCTIVE_SALE,
            RealizationKind.SHORT_COVER,
            RealizationKind.SHORT_COVER,
            RealizationKind.ORDINARY_SALE,
        ]
        assert ledger.reserved_by_lot("ABC") == {}
        assert not ledger.lots
        assert borrows(ledger) == ()

    def test_all_other_kinds_match_current(self):
        for seq in (
            [Buy(1, "ABC", 100)],
            [Buy(1, "ABC", 100), SellOwned(2, "ABC", 100)],
            [Borrow(2, "ABC", 100)],
        ):
            current, _ = run_events(seq, Regime.CURRENT)
            proposed, _ = run_events(seq, Regime.PROPOSED)
            assert current == proposed


class TestReservationOrder:
    def test_delivery_follows_reservation_order_not_lot_id_order(self):
        # Lot 0's first reservation is released at tick 5 and made again at
        # tick 6, after lot 1's; the tick-7 delivery takes lot 1, the older
        # reservation, so lot 0 (basis 10) is the lot that stays and is sold.
        prices = (10, 20, 30, 40, 35, 45, 50, 55, 60)
        path = PricePath.from_table(
            {"ABC": {t: Money.from_pesos(p) for t, p in enumerate(prices, start=1)}}
        )
        events, ledger = run_events(
            [
                Buy(1, "ABC", 100),
                Buy(2, "ABC", 100),
                Borrow(3, "ABC", 100),
                ShortSell(3, "ABC", 100),
                Borrow(4, "ABC", 100),
                ShortSell(4, "ABC", 100),
                CoverByPurchase(5, "ABC", 100),
                Borrow(6, "ABC", 100),
                ShortSell(6, "ABC", 100),
                CoverByOwnedLot(7, "ABC", 100),
                CoverByPurchase(8, "ABC", 100),
                SellOwned(9, "ABC", 100),
            ],
            Regime.PROPOSED,
            path=path,
        )
        K = RealizationKind
        assert events == [
            RealizationEvent(at, kind, "ABC", 100, Money.from_pesos(sold), Money.from_pesos(basis))
            for at, kind, sold, basis in (
                (3, K.CONSTRUCTIVE_SALE, 30, 10),
                (4, K.CONSTRUCTIVE_SALE, 40, 20),
                (5, K.SHORT_COVER, 30, 35),
                (6, K.CONSTRUCTIVE_SALE, 45, 10),
                (7, K.SHORT_COVER, 40, 50),
                (8, K.SHORT_COVER, 45, 55),
                (9, K.ORDINARY_SALE, 60, 10),
            )
        ]
        assert ledger.reserved_by_lot("ABC") == {}
        assert not ledger.lots and borrows(ledger) == ()


# Six quotes that rise and fall; the only owned share is bought at 6 and sold short against at 13.
A_SIX = PricePath.from_table({"A": {t: Money.from_pesos(p) for t, p in enumerate((10, 17, 6, 13, 9, 12), start=1)}})
NAKED_FIRST = (Borrow(1, "A", 2), ShortSell(2, "A", 1), Buy(3, "A", 1), ShortSell(4, "A", 1), CoverByOwnedLot(5, "A", 1))


def pesos_event(at, kind, qty, amount, basis):
    return RealizationEvent(at, kind, "A", qty, Money.from_pesos(amount), Money.from_pesos(basis))


class TestWithOwnedCoverOfAnOlderPosition:
    """Short of unreserved shares, a cover with owned shares delivers the oldest shares reserved against
    the positions it leaves open.  They were disposed of at their short sale, so they realize nothing
    more, and those positions lose as many constructive marks."""

    def test_the_naked_position_is_covered_with_the_share_reserved_against_the_later_one(self):
        events, ledger = run_events(NAKED_FIRST, Regime.PROPOSED, path=A_SIX)
        K = RealizationKind
        assert events == [pesos_event(4, K.CONSTRUCTIVE_SALE, 1, 13, 6), pesos_event(5, K.SHORT_COVER, 1, 17, 9)]
        assert not ledger.lots and ledger.reserved_by_lot("A") == {} and not any(ledger._runs.values())
        assert [(p.qty, p.short_proceeds_per_share) for p in borrows(ledger)] == [(1, Money.from_pesos(13))]
        current = run(Scenario("naked_first", A_SIX, NAKED_FIRST), Regime.CURRENT)
        proposed = run(Scenario("naked_first", A_SIX, NAKED_FIRST), Regime.PROPOSED)
        assert (proposed.cash_timeline, proposed.inventory) == (current.cash_timeline, current.inventory)
        assert compare(Scenario("naked_first", A_SIX, NAKED_FIRST)).proposed == proposed

    def test_the_position_left_open_is_then_covered_as_a_naked_one(self):
        events, _ = run_events(NAKED_FIRST + (Buy(6, "A", 1), CoverByOwnedLot(6, "A", 1)), Regime.PROPOSED, path=A_SIX)
        K = RealizationKind
        assert events[2:] == [pesos_event(6, K.OWNED_DISPOSAL_AT_COVER, 1, 12, 12), pesos_event(6, K.SHORT_COVER, 1, 13, 12)]

    def test_a_partly_covered_position_gives_up_the_marks_it_keeps(self):
        # The cover takes the naked position's share and one of the next position's two, which settles one
        # of its marks; with no free share, it delivers that position's other reserved share as well.
        events, ledger = run_events(
            (Borrow(1, "A", 3), ShortSell(1, "A", 1), Buy(2, "A", 2), ShortSell(2, "A", 2), CoverByOwnedLot(3, "A", 2)),
            Regime.PROPOSED, path=A_SIX,
        )
        K = RealizationKind
        assert events == [
            pesos_event(2, K.CONSTRUCTIVE_SALE, 2, 17, 17),
            pesos_event(3, K.SHORT_COVER, 1, 10, 6),
            pesos_event(3, K.SHORT_COVER, 1, 17, 6),
        ]
        assert not ledger.lots and ledger.reserved_by_lot("A") == {} and not any(ledger._runs.values())
        assert [(p.qty, p.short_proceeds_per_share) for p in borrows(ledger)] == [(1, Money.from_pesos(17))]

    def test_a_position_that_gave_up_its_first_marks_is_covered_naked_first(self):
        # The shortfall at 4 delivers the share reserved against the second position's first share.  Covering
        # that share by purchase frees nothing; the last share's own reserved share then covers it and realizes
        # nothing more, so each of the three shares bought is disposed of once.  Once the shortfall settled
        # the position's first mark, its remaining mark used to count as covered first: the purchase freed the
        # last reserved share and the final cover disposed of it a second time.
        events, ledger = run_events(
            (Borrow(1, "A", 4), ShortSell(1, "A", 2), Buy(1, "A", 3), CoverByOwnedLot(2, "A", 1),
             ShortSell(3, "A", 2), CoverByOwnedLot(4, "A", 1), CoverByPurchase(5, "A", 1), CoverByOwnedLot(6, "A", 1)),
            Regime.PROPOSED, path=A_SIX,
        )
        K = RealizationKind
        assert events == [
            pesos_event(2, K.OWNED_DISPOSAL_AT_COVER, 1, 17, 10),
            pesos_event(2, K.SHORT_COVER, 1, 10, 17),
            pesos_event(3, K.CONSTRUCTIVE_SALE, 2, 6, 10),
            pesos_event(4, K.SHORT_COVER, 1, 10, 13),
            pesos_event(5, K.SHORT_COVER, 1, 6, 9),
            pesos_event(6, K.SHORT_COVER, 1, 6, 12),
        ]
        assert not ledger.lots and ledger.reserved_by_lot("A") == {} and not any(ledger._runs.values())


class TestRaisingRealizeLeavesBookUnchanged:
    """An event that raises leaves the ledger, reservations included, as it was."""

    OPENING = [Buy(1, "ABC", 100), Borrow(2, "ABC", 100), ShortSell(2, "ABC", 100)]

    def assert_unchanged_by(self, opening, event, error, rest):
        _, ledger = run_events(opening, Regime.PROPOSED)
        before = snapshot(ledger)
        with pytest.raises(error):
            apply_event(ledger, event, ABC_PRICES)
        assert snapshot(ledger) == before
        # The ledger goes on exactly like one that never saw the failed event.
        resumed, _ = run_events(rest, Regime.PROPOSED, ledger=ledger)
        opened, _ = run_events(opening, Regime.PROPOSED)
        assert run_events(opening + rest, Regime.PROPOSED)[0] == opened + resumed

    def test_reserved_shares_sold_through_plain_fifo(self):
        self.assert_unchanged_by(
            self.OPENING, SellOwned(3, "ABC", 1), InsufficientOwnedShares,
            [CoverByPurchase(3, "ABC", 60), SellOwned(3, "ABC", 60)],
        )

    def test_cover_that_runs_out_after_delivering_reserved_shares(self):
        # The cover settles its 100 reserved shares, then finds no others.
        self.assert_unchanged_by(
            self.OPENING + [Borrow(3, "ABC", 100), ShortSell(3, "ABC", 100)],
            CoverByOwnedLot(3, "ABC", 200), InsufficientOwnedShares,
            [CoverByOwnedLot(3, "ABC", 100)],
        )


class TestHandBuiltEffects:
    def test_sale_effects_without_price_raise_an_engine_error(self):
        effects = LedgerEffects(event=SellOwned(2, "ABC", 100), price=None, cash_centavos=0)
        for regime in Regime:
            with pytest.raises(EngineError):
                realize(effects, regime, Ledger())


class TestRegimeArgument:
    def test_only_the_proposed_regime_reserves_at_a_short_sale(self):
        # Any regime but PROPOSED used to fall through to the constructive-sale rule.
        events, ledger = run_events(STRATEGY3[:3], "proposed")
        assert events == [] and unreserved(ledger) == 100_000


class TestTriggerCheck:
    """Owned shares a short sale can still reserve: those not reserved already."""

    def test_fully_unreserved(self):
        _, ledger = run_events([Buy(1, "ABC", 100_000)], Regime.PROPOSED)
        assert unreserved(ledger) == 100_000

    def test_fully_reserved(self):
        _, ledger = run_events(STRATEGY3[:3], Regime.PROPOSED)
        assert unreserved(ledger) == 0

    def test_partial_reservation(self):
        _, ledger = run_events(
            [Buy(1, "ABC", 100_000), Borrow(2, "ABC", 60_000), ShortSell(2, "ABC", 60_000)],
            Regime.PROPOSED,
        )
        assert unreserved(ledger) == 40_000

    def test_other_security_untouched(self):
        path = PricePath.from_table(
            {
                "ABC": {1: Money.from_pesos(50), 2: Money.from_pesos(100)},
                "XYZ": {1: Money.from_pesos(10), 2: Money.from_pesos(20)},
            }
        )
        _, ledger = run_events(
            [
                Buy(1, "ABC", 100),
                Buy(1, "XYZ", 100),
                Borrow(2, "ABC", 100),
                ShortSell(2, "ABC", 100),
            ],
            Regime.PROPOSED,
            path=path,
        )
        assert unreserved(ledger, "ABC") == 0
        assert unreserved(ledger, "XYZ") == 100


class TestReservationsSurviveDeath:
    def test_heir_delivers_the_reserved_shares(self):
        # The step-up keeps lot ids, so the reservation made before the death
        # is what the cover after it delivers; it realizes nothing more.
        path = PricePath.from_table(
            {"ABC": {t: Money.from_pesos(p) for t, p in ((1, 50), (2, 100), (3, 130), (4, 120))}}
        )
        opening = [Buy(1, "ABC", 100), Borrow(2, "ABC", 100), ShortSell(2, "ABC", 100), Death(3)]
        _, ledger = run_events(opening, Regime.PROPOSED, path=path)
        (lot,) = ledger.lots
        assert lot.basis_per_share == Money.from_pesos(130)
        assert ledger.reserved_by_lot("ABC") == {lot.id: 100}
        events, ledger = run_events([CoverByOwnedLot(4, "ABC", 100)], Regime.PROPOSED, path, ledger)
        assert [(e.kind, e.qty) for e in events] == [(RealizationKind.SHORT_COVER, 100)]
        assert ledger.reserved_by_lot("ABC") == {} and not ledger.lots


A_PRICES = PricePath.from_table({"A": {1: Money.from_pesos(10), 2: Money.from_pesos(20)}})


class TestInfeasibleEventsFailAlike:
    """The same infeasible event fails with the same error under both regimes."""

    @pytest.mark.parametrize("events, error, message, index", [
        (
            (Borrow(1, "A", 100), ShortSell(1, "A", 100), CoverByOwnedLot(2, "A", 200)),
            OverCover, "cover of 200 A exceeds open sold-short quantity 100", 2,
        ),
        (
            (Borrow(1, "A", 100), ShortSell(1, "A", 100), CoverByOwnedLot(2, "A", 100)),
            InsufficientOwnedShares, "need 100 shares of A, only 0 available", 2,
        ),
        (
            (Buy(1, "A", 50), Borrow(1, "A", 100), ShortSell(1, "A", 100),
             CoverByOwnedLot(2, "A", 100)),
            InsufficientOwnedShares, "need 100 shares of A, only 50 available", 3,
        ),
        (
            (Borrow(1, "A", 3), ShortSell(1, "A", 2), Buy(1, "A", 1), ShortSell(1, "A", 1),
             CoverByOwnedLot(2, "A", 2)),
            InsufficientOwnedShares, "need 2 shares of A, only 1 available", 4,
        ),
    ], ids=["over_cover", "no_owned_shares", "short_of_owned_shares", "short_of_shares_reserved_elsewhere"])
    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_same_class_message_and_event_index(self, regime, events, error, message, index):
        with pytest.raises(error) as info:
            run(Scenario("infeasible", A_PRICES, events), regime)
        assert type(info.value) is error
        assert str(info.value) == message
        assert info.value.event_index == index


class TestEventInvariants:
    def test_gain_fields_are_consistent(self):
        events, _ = run_events(STRATEGY3, Regime.CURRENT)
        for e in events:
            assert e.gain_per_share == e.amount_realized_per_share - e.basis_per_share
            assert e.gain_total == e.gain_per_share * e.qty

    def test_current_never_dates_an_event_at_a_short_tick(self):
        events, _ = run_events(STRATEGY3, Regime.CURRENT)
        assert all(e.at != 2 for e in events)
