"""DSL parsing, built-ins, and the scenario runner."""

import json

import pytest

from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    Death,
    Money,
    Regime,
    SellOwned,
    ShortSell,
    builtin,
    compare,
    format_scenario,
    parse_scenario,
    run,
)
from realize.errors import (
    InsufficientOwnedShares,
    InvalidQuantity,
    NonMonotonicTick,
    ParseError,
    UndefinedPrice,
    UnknownDirective,
    UnknownScenario,
)
from realize.scenario import BUILTIN_NAMES

STRATEGY3_SCRIPT = """\
price ABC 1 50
price ABC 2 100
price ABC 3 30
at 1 buy ABC 100000
at 2 borrow ABC 100000
at 2 short-sell ABC 100000
at 3 cover ABC 100000 with-owned
"""


class TestParser:
    def test_documented_script_equals_builtin(self):
        parsed = parse_scenario(STRATEGY3_SCRIPT, name="strategy3")
        assert parsed == builtin("strategy3")

    def test_negative_quantity(self):
        with pytest.raises(InvalidQuantity) as exc:
            parse_scenario("price ABC 2 100\nat 2 buy ABC -5\n")
        assert exc.value.line == 2
        assert exc.value.col == 14

    def test_prices_without_events_are_valid(self):
        s = parse_scenario("price ABC 1 50\n")
        assert s.events == ()
        assert s.prices.price_at("ABC", 1) == Money.from_pesos(50)

    def test_comments_and_blank_lines_ignored(self):
        s = parse_scenario("# a comment\n\nprice ABC 1 50  # trailing\nat 1 buy ABC 10\n")
        assert len(s.events) == 1

    def test_unknown_directive(self):
        with pytest.raises(UnknownDirective) as exc:
            parse_scenario("quote ABC 1 50\n")
        assert (exc.value.line, exc.value.col) == (1, 1)

    def test_unknown_verb(self):
        with pytest.raises(UnknownDirective) as exc:
            parse_scenario("price ABC 1 50\nat 1 shortsell ABC 5\n")
        assert (exc.value.line, exc.value.col) == (2, 6)

    def test_missing_token_reports_expected(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("price ABC 1\n")
        assert "expected price" in str(exc.value)
        assert exc.value.line == 1

    def test_bad_tick(self):
        with pytest.raises(ParseError):
            parse_scenario("price ABC x 50\n")
        with pytest.raises(ParseError):
            parse_scenario("price ABC -1 50\n")

    def test_bad_price(self):
        with pytest.raises(ParseError):
            parse_scenario("price ABC 1 1.234\n")

    @pytest.mark.parametrize(
        "text, col",
        [
            ("price ABC \uff11 50\n", 11),  # full-width digits
            ("price ABC 1 \uff15\uff10\n", 13),
            ("price ABC 1 5\u0660\n", 13),
            ("price ABC 1 50\nat \uff11 buy ABC 100\n", 4),
            ("price ABC 1 50\nat 1 buy ABC \uff11\uff10\uff10\n", 14),
        ],
        ids=["tick", "price", "arabic-indic-price", "event-tick", "quantity"],
    )
    def test_non_ascii_digits_rejected_with_position(self, text, col):
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert exc.value.line == text.count("\n")
        assert exc.value.col == col

    def test_bad_cover_mode(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("price ABC 1 50\nat 1 cover ABC 5 somehow\n")
        assert "by-purchase" in str(exc.value)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("price ABC 1 50 extra\n")

    def test_duplicate_price_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("price ABC 1 50\nprice ABC 1 60\n")

    def test_non_monotonic_ticks(self):
        text = "price ABC 1 50\nprice ABC 2 100\nat 2 buy ABC 5\nat 1 buy ABC 5\n"
        with pytest.raises(NonMonotonicTick) as exc:
            parse_scenario(text)
        assert exc.value.line == 4

    def test_undefined_price_for_event(self):
        with pytest.raises(UndefinedPrice) as exc:
            parse_scenario("price ABC 1 50\nat 1 buy XYZ 5\n")
        assert exc.value.line == 2

    def test_death_with_heir(self):
        s = parse_scenario("price ABC 1 50\nat 1 buy ABC 5\nat 2 death heir Y\n")
        assert s.events[-1] == Death(at=2, heir="Y")
        assert s.heir_label == "Y"

    def test_death_bad_keyword(self):
        with pytest.raises(ParseError):
            parse_scenario("price ABC 1 50\nat 2 death inherit Y\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_round_trips_through_printer(self, name):
        s = builtin(name)
        assert parse_scenario(format_scenario(s), name=s.name) == s

    def test_fractional_prices_round_trip(self):
        s = parse_scenario("price ABC 1 50.25\nprice ABC 2 50.2\nat 1 buy ABC 5\n", name="x")
        assert parse_scenario(format_scenario(s), name="x") == s


class TestBuiltins:
    def test_strategy3_event_shape(self):
        s = builtin("strategy3")
        assert [type(e) for e in s.events] == [Buy, Borrow, ShortSell, CoverByOwnedLot]
        assert [e.at for e in s.events] == [1, 2, 2, 3]
        assert s.prices.price_at("ABC", 1) == Money.from_pesos(50)
        assert s.prices.price_at("ABC", 2) == Money.from_pesos(100)
        assert s.prices.price_at("ABC", 3) == Money.from_pesos(30)

    def test_death_avoidance_has_death_at_130_tick(self):
        s = builtin("death_avoidance")
        death = next(e for e in s.events if isinstance(e, Death))
        assert s.prices.price_at("ABC", death.at) == Money.from_pesos(130)
        assert s.events[-1] == CoverByOwnedLot(at=4, sec="ABC", qty=100_000)

    def test_unknown_name(self):
        with pytest.raises(UnknownScenario):
            builtin("nope")

    def test_proposed_demo_reuses_strategy3_events(self):
        assert builtin("proposed_demo").events == builtin("strategy3").events

    def test_offset_grid_prices_only(self):
        s = builtin("offset_grid")
        assert s.events == ()
        assert len(s.prices.securities()) == 7


class TestRun:
    def test_strategy3_current_report(self):
        report = run(builtin("strategy3"))
        assert report.total_tax == Money.from_pesos(500_000)
        assert report.tax_lines[0].period == 3
        # Cash arrives at the short-sale tick, before any tax accrues.
        t2 = next(p for p in report.cash_timeline if p.at == 2)
        assert t2.delta == Money.from_pesos(10_000_000)
        assert report.final_cash == Money.from_pesos(5_000_000)

    def test_death_avoidance_current_report(self):
        report = run(builtin("death_avoidance"))
        assert report.total_tax == Money.zero()
        (line,) = report.tax_lines
        assert line.net_capital_gain == Money.from_pesos(-3_000_000)
        assert report.inventory.owner_generation == 1

    def test_strategy1_same_under_both_regimes(self):
        current = run(builtin("strategy1"), regime=Regime.CURRENT)
        proposed = run(builtin("strategy1"), regime=Regime.PROPOSED)
        assert current.events == proposed.events
        assert current.tax_lines == proposed.tax_lines

    def test_report_serialization_is_deterministic(self):
        a = json.dumps(run(builtin("strategy3")).to_dict())
        b = json.dumps(run(builtin("strategy3")).to_dict())
        assert a == b

    def test_errors_carry_the_event_index(self):
        s = parse_scenario("price ABC 1 50\nat 1 sell ABC 5\n", name="broken")
        with pytest.raises(InsufficientOwnedShares) as exc:
            run(s)
        assert exc.value.event_index == 0


class TestCompare:
    def test_strategy3_totals(self):
        report = compare(builtin("strategy3"))
        assert report.current.total_tax == Money.from_pesos(500_000)
        assert report.proposed.total_tax == Money.from_pesos(1_200_000)
        assert report.total_delta == Money.from_pesos(700_000)
        by_tick = {d.at: d for d in report.tax_deltas}
        assert by_tick[2].proposed_tax == Money.from_pesos(500_000)
        assert by_tick[2].current_tax == Money.zero()
        assert by_tick[3].proposed_tax == Money.from_pesos(700_000)
        assert by_tick[3].current_tax == Money.from_pesos(500_000)

    def test_strategy1_zero_delta(self):
        report = compare(builtin("strategy1"))
        assert report.total_delta == Money.zero()
        assert all(d.delta == Money.zero() for d in report.tax_deltas)

    def test_death_avoidance_delta(self):
        # Hand-applied proposal on the death path: constructive gain
        # (100-50)*100k at tick 2 taxed 500,000; the tick-4 cover is a
        # 100-130 loss, taxed nothing.
        report = compare(builtin("death_avoidance"))
        assert report.current.total_tax == Money.zero()
        assert report.proposed.total_tax == Money.from_pesos(500_000)
        t2 = next(d for d in report.tax_deltas if d.at == 2)
        assert t2.proposed_tax == Money.from_pesos(500_000)

    def test_cash_identical_across_regimes(self):
        report = compare(builtin("strategy3"))
        assert report.current.cash_timeline == report.proposed.cash_timeline
