"""DSL parsing, built-ins, and the scenario runner."""

import copy
import json
import pickle
import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    Death,
    Money,
    PricePath,
    RateSchedule,
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
from realize.errors import (
    EngineError,
    InsufficientOwnedShares,
    InvalidQuantity,
    InvalidSymbol,
    NonMonotonicTick,
    ParseError,
    UndefinedPrice,
    UnknownDirective,
    UnknownScenario,
)
from realize.ledger import Ledger, apply_event
from realize.dsl import _int
from realize.scenario import BUILTIN_NAMES
from ledger_views import borrows, borrows_of, quoted_securities
from scenario_gen import random_scenario

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

    @pytest.mark.parametrize(
        "token, centavos", [("50", 5000), ("50.25", 5025), ("50.2", 5020), ("-0", 0), ("-0.00", 0)]
    )
    def test_a_price_reads_as_exact_centavos(self, token, centavos):
        assert parse_scenario(f"price ABC 1 {token}\n").prices.price_at("ABC", 1) == Money(centavos)

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

    def test_death_bad_keyword(self):
        with pytest.raises(ParseError):
            parse_scenario("price ABC 1 50\nat 2 death inherit Y\n")


class TestValidation:
    """``Scenario`` alone checks tick order and quotes; the DSL re-raises at the event's line."""

    PRICES = "price ABC 1 50\nprice ABC 2 100\n"

    @pytest.mark.parametrize(
        "dsl, events, error, message",
        [
            (
                "at 2 buy ABC 5\nat 1 sell ABC 5\n",
                (Buy(2, "ABC", 5), SellOwned(1, "ABC", 5)),
                NonMonotonicTick,
                "event tick 1 precedes earlier tick 2",
            ),
            (
                "at 1 buy ABC 5\nat 1 buy XYZ 5\n",
                (Buy(1, "ABC", 5), Buy(1, "XYZ", 5)),
                UndefinedPrice,
                "no price for XYZ at tick 1",
            ),
        ],
        ids=["non-monotonic", "undefined-price"],
    )
    def test_built_scenario_names_the_event_with_the_dsl_message(self, dsl, events, error, message):
        prices = parse_scenario(self.PRICES).prices
        with pytest.raises(error) as built:
            Scenario("s", prices, events)
        assert (str(built.value), built.value.event_index) == (message, 1)
        with pytest.raises(error) as parsed:
            parse_scenario(self.PRICES + dsl)
        assert str(parsed.value) == f"line 4, col 1: {message}"
        assert not hasattr(parsed.value, "event_index")

    # A symbol or label that is not a str used to pass, then broke format_scenario and the JSON writer.
    @pytest.mark.parametrize(
        "quotes, event, message",
        [
            ({}, Buy(1, 5, 10), "security symbol must be a str, got int 5"),
            ({("ABC", 1): Money(100)}, SellOwned(1, b"ABC", 10), "security symbol must be a str, got bytes b'ABC'"),
            ({("ABC", 1): Money(100)}, Death(1, 7), "heir label must be a str, got int 7"),
        ],
        ids=["int-security", "bytes-security", "int-heir"],
    )
    def test_an_event_symbol_or_label_that_is_not_a_str_is_refused_at_its_index(self, quotes, event, message):
        events = (Buy(1, "ABC", 10), event)
        with pytest.raises(InvalidSymbol) as exc:
            Scenario("s", PricePath({("ABC", 1): Money(100), **quotes}), events)
        assert (str(exc.value), exc.value.event_index) == (message, 1)

    # A tick that is not an int used to end in a bare TypeError from ``<``, or to run and then fail to print.
    @pytest.mark.parametrize("tick", [None, "1", 1.0, True], ids=repr)
    @pytest.mark.parametrize("index", [0, 1], ids=["first", "later"])
    def test_an_event_tick_that_is_not_an_int_is_refused_at_its_index(self, tick, index):
        events = [Buy(1, "A", 5), Buy(1, "A", 5)]
        events[index] = Buy(tick, "A", 5)
        with pytest.raises(NonMonotonicTick) as exc:
            Scenario("x", PricePath({("A", 1): Money(100)}), tuple(events))
        assert str(exc.value) == f"event tick must be an int, got {type(tick).__name__} {tick!r}"
        assert exc.value.event_index == index

    def test_a_death_tick_that_is_not_an_int_is_refused_at_its_index(self):
        with pytest.raises(NonMonotonicTick) as exc:
            Scenario("x", PricePath({("A", 1): Money(100)}), (Buy(1, "A", 5), Death(None)))
        assert (str(exc.value), exc.value.event_index) == ("event tick must be an int, got NoneType None", 1)

    @pytest.mark.parametrize("key", [(5, 1), "AB", 5, ("ABC", 1, 2)], ids=repr)
    def test_a_quote_key_that_is_not_a_str_security_and_a_tick_is_refused(self, key):
        with pytest.raises(InvalidSymbol) as exc:
            Scenario("s", PricePath({("ABC", 1): Money(100), key: Money(100)}), (Buy(1, "ABC", 10),))
        assert str(exc.value) == f"a quote key must be a (str security symbol, tick) pair, got {key!r}"
        assert not hasattr(exc.value, "event_index")

    @pytest.mark.parametrize("key", [(5, 1), "AB", 5, ("ABC", 1, 2)], ids=repr)
    def test_a_bare_price_path_with_a_bad_quote_key_is_refused(self, key):
        with pytest.raises(InvalidSymbol) as exc:
            PricePath({("ABC", 1): Money(100), key: Money(100)})
        assert str(exc.value) == f"a quote key must be a (str security symbol, tick) pair, got {key!r}"
        assert not hasattr(exc.value, "event_index")
        with pytest.raises(InvalidSymbol, match=r"got \(5, 1\)"):
            PricePath.from_table({5: {1: Money(100)}})

    # 1.0 and True hash as 1: such a key used to stand for tick 1, so a buy at 1 paid the later price.
    @pytest.mark.parametrize("tick", [1.0, True, None, "1"], ids=repr)
    def test_a_quote_tick_that_is_not_an_int_is_refused(self, tick):
        with pytest.raises(NonMonotonicTick) as exc:
            PricePath({("A", tick): Money(100), ("A", True): Money(5)})
        assert str(exc.value) == f"quote tick must be an int, got {type(tick).__name__} {tick!r}"
        with pytest.raises(NonMonotonicTick, match="quote tick must be an int, got float 2.0"):
            PricePath.from_table({"A": {1: Money(100), 2.0: Money(100)}})

    @pytest.mark.parametrize(
        "event, message",
        [
            (Buy(1, "ABC\x1b[2J", 10), "security symbol must be printable, got 'ABC\\x1b[2J'"),
            (SellOwned(1, "AB\u202eC", 10), "security symbol must be printable, got 'AB\\u202eC'"),
            (Death(1, "heir\x00"), "heir label must be printable, got 'heir\\x00'"),
            (Death(1, "bell\x07 heir"), "heir label must be printable, got 'bell\\x07 heir'"),
        ],
        ids=["escape-security", "bidi-security", "nul-heir", "bell-heir"],
    )
    def test_an_event_symbol_or_label_that_is_not_printable_is_refused_at_its_index(self, event, message):
        quotes = {("ABC", 1): Money(100), (getattr(event, "sec", "ABC"), 1): Money(100)}
        with pytest.raises(InvalidSymbol) as exc:
            Scenario("s", PricePath(quotes), (Buy(1, "ABC", 10), event))
        assert (str(exc.value), exc.value.event_index) == (message, 1)

    # A name that is not a printable str used to build and run, then broke the direct JSON writer or
    # reached the table header raw.
    @pytest.mark.parametrize(
        "name, message",
        [
            (123, "scenario name must be a str, got int 123"),
            ("esc\x1b[1m", "scenario name must be printable, got 'esc\\x1b[1m'"),
            ("bad\udcff", "scenario name must be printable, got 'bad\\udcff'"),
        ],
        ids=["int", "escape", "surrogate"],
    )
    def test_a_name_that_is_not_a_printable_str_is_refused_with_no_index(self, name, message):
        with pytest.raises(InvalidSymbol) as exc:
            Scenario(name, PricePath({("A", 1): Money(100)}), (Buy(1, "A", 5),))
        assert str(exc.value) == message
        assert not hasattr(exc.value, "event_index")

    def test_an_empty_name_and_whitespace_in_a_name_are_kept(self):
        assert [Scenario(name, PricePath({})).name for name in ("", "my\tscenario")] == ["", "my\tscenario"]

    def test_a_price_path_keeps_its_own_copy_of_the_quotes(self):
        # It kept the caller's dict, so a later change reached every scenario on it past the path's checks.
        quotes = {("A", 1): Money(100)}
        path = PricePath(quotes)
        quotes[("A", 1)], quotes[("A", 2)] = "junk", Money(5)
        scenario = Scenario("x", path, (Buy(1, "A", 5),))
        assert path.quotes == {("A", 1): Money(100)}
        assert run(scenario).cash_timeline[0].delta == Money(-500)
        assert format_scenario(scenario) == "price A 1 1\nat 1 buy A 5\n"
        assert path == PricePath({("A", 1): Money(100)}) == copy.copy(path) == pickle.loads(pickle.dumps(path))
        with pytest.raises(TypeError, match="unhashable"):
            hash(path)

    def test_a_generator_of_events_is_kept_as_a_tuple(self):
        # Validation consumed the generator, so run() reported no event and no cash, with no error.
        path = PricePath({("A", 1): Money(100), ("A", 2): Money(150)})
        events = (Buy(1, "A", 5), SellOwned(2, "A", 5))
        scenario = Scenario("x", path, (ev for ev in events))
        assert scenario.events == events and type(scenario.events) is tuple
        assert run(scenario) == run(Scenario("x", path, events))
        assert run(scenario).final_cash == Money(250)

    def test_a_list_of_events_is_copied_before_it_is_checked(self):
        # The scenario kept the caller's list, so a tick appended out of order ended in MissingPrice in run().
        path = PricePath({("A", 1): Money(100)})
        events = [Buy(1, "A", 5)]
        scenario = Scenario("x", path, events)
        events.append(Buy(0, "A", 5))
        assert scenario == Scenario("x", path, (Buy(1, "A", 5),))
        assert run(scenario).inventory.owned == (("A", 5),)
        with pytest.raises(NonMonotonicTick) as exc:
            Scenario("x", path, events)
        assert exc.value.event_index == 1

    @pytest.mark.parametrize("prices", [{("A", 1): Money(100)}, None], ids=["dict", "none"])
    def test_prices_that_are_not_a_price_path_are_refused_by_name(self, prices):
        # They ended in AttributeError: ... has no attribute 'quotes'.
        with pytest.raises(TypeError) as exc:
            Scenario("x", prices, (Buy(1, "A", 5),))
        assert str(exc.value) == f"prices must be a PricePath, got {type(prices).__name__} {prices!r}"

    @pytest.mark.parametrize("call, message", [
        (lambda: run(None), "scenario must be a Scenario, got NoneType None"),
        (lambda: compare({}), "scenario must be a Scenario, got dict {}"),
        (lambda: format_scenario(None), "s must be a Scenario, got NoneType None"),
        (lambda: parse_scenario(None), "text must be a str, got NoneType None"),
        (lambda: parse_scenario(b""), "text must be a str, got bytes b''"),
        (lambda: PricePath.from_table(None), "table must be a Mapping, got NoneType None"),
        (lambda: PricePath.from_table({"A": None}), "table['A'] must be a Mapping, got NoneType None"),
        (lambda: builtin([]), "name must be a str, got list []"),
        (lambda: Scenario("x", builtin("strategy3").prices, 5), "events must be iterable, got int 5"),
        (lambda: Money.from_pesos(True), "pesos must be int, got bool True"),
        (lambda: Money.from_pesos(None), "pesos must be int, got NoneType None"),
        (lambda: Money.from_pesos(1.5), "pesos must be int, got float 1.5"),
        (lambda: Money.from_pesos("5"), "pesos must be int, got str '5'"),
        (lambda: PricePath(None), "quotes must be a Mapping, got NoneType None"),
        (lambda: PricePath([("A", 1)]), "quotes must be a Mapping, got list [('A', 1)]"),
        (lambda: PricePath(5), "quotes must be a Mapping, got int 5"),
    ], ids=["run", "compare", "format_scenario", "parse_scenario-none", "parse_scenario-bytes", "from_table",
            "from_table-value", "builtin", "scenario-events", "from_pesos-bool", "from_pesos-none",
            "from_pesos-float", "from_pesos-str", "price_path-none", "price_path-list", "price_path-int"])
    def test_library_arguments_of_the_wrong_type_are_refused_by_name(self, call, message):
        # Each ended in an AttributeError, or a TypeError from inside the engine that named no argument or
        # another one (``centavos`` for ``pesos``); ``from_pesos(True)`` returned ₱1.00.
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == message

    def test_whitespace_in_a_built_symbol_or_label_is_kept(self):
        # The writers quote it (tests/test_writers.py); only the DSL cannot spell it.
        events = (Buy(1, "a\nb", 10), Death(1, "c\rd e"))
        s = Scenario("s", PricePath({("a\nb", 1): Money(100)}), events)
        assert s.events == events

    def test_a_quote_symbol_that_is_not_printable_is_not_written(self):
        s = Scenario("s", PricePath({("ABC", 1): Money(100), ("A\x1b", 1): Money(100)}), (Buy(1, "ABC", 10),))
        with pytest.raises(EngineError, match=r"'A\\x1b' cannot be written as one scenario token"):
            format_scenario(s)

    def test_a_str_subclass_and_a_missing_heir_pass(self):
        class Symbol(str):
            pass

        s = Scenario("s", PricePath({(Symbol("ABC"), 1): Money(100)}), (Buy(1, Symbol("ABC"), 10), Death(1)))
        assert format_scenario(s) == "price ABC 1 1\nat 1 buy ABC 10\nat 1 death\n"


def with_comments(text):
    """Every line with a trailing comment."""
    return "".join(f"{line} # x\n" for line in text.splitlines())


# Each case is (text, (class, message, line, col)).  The expected values are
# literals, so a parser change cannot move an error without a test noticing.
PARSE_ERROR_CASES = {
    "zero-qty": (
        "price ABC 2 100\nat 2 buy ABC 0\n",
        (InvalidQuantity, "line 2, col 14: quantity must be positive, got 0", 2, 14),
    ),
    "negative-qty": (
        "price ABC 2 100\nat 2 buy ABC -5\n",
        (InvalidQuantity, "line 2, col 14: quantity must be positive, got -5", 2, 14),
    ),
    "full-width-qty": (
        "price ABC 1 50\nat 1 buy ABC \uff11\uff10\n",
        (ParseError, "line 2, col 14: expected share quantity, got '\uff11\uff10'", 2, 14),
    ),
    "zero-cover": (
        "price ABC 1 50\nat 1 cover ABC 0 by-purchase\n",
        (InvalidQuantity, "line 2, col 16: quantity must be positive, got 0", 2, 16),
    ),
    "bad-cover-mode": (
        "price ABC 1 50\nat 1 cover ABC 5 somehow\n",
        (ParseError, "line 2, col 18: expected 'by-purchase' or 'with-owned', got 'somehow'", 2, 18),
    ),
    "missing-cover-mode": (
        "price ABC 1 50\nat 1 cover ABC 5\n",
        (ParseError, "line 2, col 17: expected 'by-purchase' or 'with-owned'", 2, 17),
    ),
    "trade-trailing": (
        "price ABC 1 50\nat 1 buy ABC 5 extra\n",
        (ParseError, "line 2, col 16: unexpected trailing tokens", 2, 16),
    ),
    "cover-trailing": (
        "price ABC 1 50\nat 1 cover ABC 5 with-owned extra\n",
        (ParseError, "line 2, col 29: unexpected trailing tokens", 2, 29),
    ),
    "unknown-verb": (
        "price ABC 1 50\nat 1 shortsell ABC 5\n",
        (UnknownDirective, "line 2, col 6: unknown event verb 'shortsell'", 2, 6),
    ),
    "negative-event-tick": (
        "price ABC 1 50\nat -1 buy ABC 5\n",
        (ParseError, "line 2, col 4: tick must be non-negative, got -1", 2, 4),
    ),
    "full-width-event-tick": (
        "price ABC 1 50\nat \uff11 buy ABC 5\n",
        (ParseError, "line 2, col 4: expected tick, got '\uff11'", 2, 4),
    ),
    "negative-price": (
        "price ABC 1 -5\n",
        (ParseError, "line 1, col 13: price must not be negative", 1, 13),
    ),
    "negative-fractional-price": (
        "price ABC 1 -1.25\n",
        (ParseError, "line 1, col 13: price must not be negative", 1, 13),
    ),
    "letters-price": (
        "price ABC 1 abc\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got 'abc'", 1, 13),
    ),
    "comma-price": (
        "price ABC 1 1,000\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '1,000'", 1, 13),
    ),
    "double-minus-price": (
        "price ABC 1 --5\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '--5'", 1, 13),
    ),
    "two-points-price": (
        "price ABC 1 1.2.3\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '1.2.3'", 1, 13),
    ),
    "plus-price": (
        "price ABC 1 +5\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '+5'", 1, 13),
    ),
    "underscore-price": (
        "price ABC 1 1_000\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '1_000'", 1, 13),
    ),
    "three-decimals": (
        "price ABC 1 1.234\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '1.234'", 1, 13),
    ),
    "bare-point": (
        "price ABC 1 5.\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '5.'", 1, 13),
    ),
    "leading-point": (
        "price ABC 1 .5\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '.5'", 1, 13),
    ),
    "arabic-indic-price": (
        "price ABC 1 5\u0660\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '5\u0660'", 1, 13),
    ),
    "superscript-price": (
        "price ABC 1 \u00b2\n",
        (ParseError, "line 1, col 13: expected peso price with at most two decimals, got '\u00b2'", 1, 13),
    ),
    "full-width-tick": (
        "price ABC \uff11 50\n",
        (ParseError, "line 1, col 11: expected tick, got '\uff11'", 1, 11),
    ),
    "duplicate-price": (
        "price ABC 1 50\nprice ABC 1 60\n",
        (ParseError, "line 2, col 1: duplicate price for ABC at tick 1", 2, 1),
    ),
    "price-trailing": (
        "price ABC 1 50 extra\n",
        (ParseError, "line 1, col 16: unexpected trailing tokens", 1, 16),
    ),
    "price-missing": (
        "price ABC 1\n",
        (ParseError, "line 1, col 12: expected price", 1, 12),
    ),
    "control-price-symbol": (
        "price ABC\x1b[2J 1 50\n",
        (ParseError, "line 1, col 7: security symbol must be printable, got 'ABC\\x1b[2J'", 1, 7),
    ),
    "control-event-symbol": (
        "price ABC 1 50\nat 1 sell AB\u202eC 5\n",
        (ParseError, "line 2, col 11: security symbol must be printable, got 'AB\\u202eC'", 2, 11),
    ),
    "control-heir": (
        "price ABC 1 50\nat 1 death heir B\x00\n",
        (ParseError, "line 2, col 17: heir label must be printable, got 'B\\x00'", 2, 17),
    ),
    "unknown-directive": (
        "quote ABC 1 50\n",
        (UnknownDirective, "line 1, col 1: unknown directive 'quote'", 1, 1),
    ),
    "non-monotonic": (
        "price ABC 1 50\nprice ABC 2 100\nat 2 buy ABC 5\n  at 1 buy ABC 5\n",
        (NonMonotonicTick, "line 4, col 3: event tick 1 precedes earlier tick 2", 4, 3),
    ),
    "undefined-price": (
        "price ABC 1 50\n\tat 1 buy XYZ 5\n",
        (UndefinedPrice, "line 2, col 2: no price for XYZ at tick 1", 2, 2),
    ),
    "plus-qty": (
        "price ABC 2 100\nat 2 buy ABC +5\n",
        (ParseError, "line 2, col 14: expected share quantity, got '+5'", 2, 14),
    ),
    "underscore-qty": (
        "price ABC 2 100\nat 2 buy ABC 1_000\n",
        (ParseError, "line 2, col 14: expected share quantity, got '1_000'", 2, 14),
    ),
    "plus-event-tick": (
        "price ABC 1 50\nat +1 buy ABC 5\n",
        (ParseError, "line 2, col 4: expected tick, got '+1'", 2, 4),
    ),
    "plus-tick": (
        "price ABC +1 50\nat 1 sell ABC 5\n",
        (ParseError, "line 1, col 11: expected tick, got '+1'", 1, 11),
    ),
    "price-missing-symbol": (
        "price\n",
        (ParseError, "line 1, col 6: expected security symbol", 1, 6),
    ),
    "price-missing-tick": (
        "price ABC  \n",
        (ParseError, "line 1, col 10: expected tick", 1, 10),
    ),
    "event-missing-tick": (
        "at\n",
        (ParseError, "line 1, col 3: expected tick", 1, 3),
    ),
    "event-missing-verb": (
        "price ABC 1 50\nat 1\n",
        (ParseError, "line 2, col 5: expected event verb", 2, 5),
    ),
    "trade-missing-symbol": (
        "price ABC 1 50\nat 1 buy\n",
        (ParseError, "line 2, col 9: expected security symbol", 2, 9),
    ),
    "trade-missing-qty": (
        "price ABC 1 50\nat 1 sell ABC\n",
        (ParseError, "line 2, col 14: expected share quantity", 2, 14),
    ),
    "cover-missing-symbol": (
        "price ABC 1 50\nat 1 cover\n",
        (ParseError, "line 2, col 11: expected security symbol", 2, 11),
    ),
    "cover-missing-qty": (
        "price ABC 1 50\nat 1 cover ABC\n",
        (ParseError, "line 2, col 15: expected share quantity", 2, 15),
    ),
    "death-missing-heir": (
        "price ABC 1 50\nat 1 death heir\n",
        (ParseError, "line 2, col 16: expected heir label", 2, 16),
    ),
    "death-heir-trailing": (
        "price ABC 1 50\nat 1 death heir Y extra\n",
        (ParseError, "line 2, col 19: unexpected trailing tokens", 2, 19),
    ),
    "glued-comment": (
        "price A 1 50#x\nprice A 1 60\n",
        (ParseError, "line 2, col 1: duplicate price for A at tick 1", 2, 1),
    ),
    "glued-comment-bad-price": (
        "price A 1 5.#x\n",
        (ParseError, "line 1, col 11: expected peso price with at most two decimals, got '5.'", 1, 11),
    ),
    "nbsp-separator": (
        "price ABC 1 50\nat\u00a01 buy\u00a0ABC\u00a00\n",
        (InvalidQuantity, "line 2, col 14: quantity must be positive, got 0", 2, 14),
    ),
    "ideographic-separator": (
        "price\u3000ABC\u30001\u3000-5\n",
        (ParseError, "line 1, col 13: price must not be negative", 1, 13),
    ),
    "tab-separator": (
        "price ABC 1 50\nat\t1\tcover\tABC\t5\tsomehow\n",
        (ParseError, "line 2, col 18: expected 'by-purchase' or 'with-owned', got 'somehow'", 2, 18),
    ),
    "mixed-indent-non-monotonic": (
        "price ABC 1 50\nprice ABC 2 100\nat 2 buy ABC 5\n\u3000\u00a0\tat 1 buy ABC 5\n",
        (NonMonotonicTick, "line 4, col 4: event tick 1 precedes earlier tick 2", 4, 4),
    ),
    "death-bad-keyword": (
        "price ABC 1 50\nat 1 death inherit Y\n",
        (ParseError, "line 2, col 12: expected 'heir', got 'inherit'", 2, 12),
    ),
    "bad-tick-before-missing-verb": (
        "at x\n",
        (ParseError, "line 1, col 4: expected tick, got 'x'", 1, 4),
    ),
    "missing-price-before-bad-tick": (
        "price ABC x\n",
        (ParseError, "line 1, col 12: expected price", 1, 12),
    ),
    "trailing-before-bad-qty": (
        "price ABC 1 50\nat 1 buy ABC x extra\n",
        (ParseError, "line 2, col 16: unexpected trailing tokens", 2, 16),
    ),
    "bad-qty-before-bad-mode": (
        "price ABC 1 50\nat 1 cover ABC 0 somehow\n",
        (InvalidQuantity, "line 2, col 16: quantity must be positive, got 0", 2, 16),
    ),
    "bad-tick-before-unknown-verb": (
        "at x frob\n",
        (ParseError, "line 1, col 4: expected tick, got 'x'", 1, 4),
    ),
    "mixed-separator-missing": (
        "price ABC 1 50\n\u00a0at\u30001\tbuy\u00a0ABC\u3000\n",
        (ParseError, "line 2, col 14: expected share quantity", 2, 14),
    ),
}


# Ticks and quantities are spelled -?[0-9]+ in ASCII, as prices are; leading
# zeros are accepted on both paths.
INT_SPELLINGS = {
    "zero-padded": "price ABC 0001 50\nat 01 cover ABC 005 with-owned\n",
}


def parse_failure(text):
    with pytest.raises(EngineError) as exc:
        parse_scenario(text)
    err = exc.value
    return type(err), str(err), err.line, err.col


# Every code point ``str.splitlines`` breaks at but ``open()`` does not.
INLINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    """A line ends where ``open()`` ends it: at ``\\n``, ``\\r\\n`` or ``\\r``; any other break is whitespace."""

    @pytest.mark.parametrize("brk", INLINE_BREAKS, ids=repr)
    def test_an_inline_break_does_not_shift_the_line_of_an_error(self, brk):
        with pytest.raises(UnknownDirective) as exc:
            parse_scenario(f"price A 1 10{brk}\nat 1 buy A 5\nat 1 bogus A 9\n")
        assert str(exc.value) == "line 3, col 6: unknown event verb 'bogus'"

    @pytest.mark.parametrize("brk", INLINE_BREAKS, ids=repr)
    def test_an_inline_break_does_not_start_a_second_event(self, brk):
        with pytest.raises(ParseError) as exc:
            parse_scenario(f"price A 1 10\nat 1 buy A 5 {brk} at 1 sell A 9\n")
        assert str(exc.value) == "line 2, col 16: unexpected trailing tokens"

    @pytest.mark.parametrize("brk", INLINE_BREAKS, ids=repr)
    def test_an_inline_break_is_whitespace_between_tokens(self, brk):
        assert parse_scenario(f"price A 1 10\nat 1 buy{brk}A 5{brk}\n").events == (Buy(1, "A", 5),)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=repr)
    def test_each_line_end_that_open_reads_ends_a_line(self, end):
        with pytest.raises(UnknownDirective) as exc:
            parse_scenario(end.join(["price A 1 10", "at 1 buy A 5", "at 1 bogus A 9"]))
        assert str(exc.value) == "line 3, col 6: unknown event verb 'bogus'"


class TestPlainLineParser:
    """A trailing comment changes nothing: each line gives the same value or the same error."""

    def test_generated_scenarios_parse_equal_on_both_paths(self):
        rng = random.Random(0x5EED)
        for _ in range(150):
            s = random_scenario(rng).scenario
            text = format_scenario(s)
            assert parse_scenario(text, name=s.name) == s
            assert parse_scenario(with_comments(text), name=s.name) == s

    def test_fractional_prices_and_indentation_parse_equal_on_both_paths(self):
        text = (
            "price ABC 1 50.25\nprice ABC 2 0.5\n  price ABC 3 007\nprice ABC 4 0.05\n"
            "at 1 buy ABC 5\n\tat 2 borrow ABC 3\nat 2 short-sell ABC 3\n"
            "at 3 cover ABC 2 by-purchase\nat 3 sell ABC 1\nat 4 cover ABC 1 with-owned\n"
        )
        plain = parse_scenario(text)
        assert plain == parse_scenario(with_comments(text))
        assert [plain.prices.price_at("ABC", t).centavos for t in (1, 2, 3, 4)] == [5025, 50, 700, 5]
        assert [type(ev) for ev in plain.events][-2:] == [SellOwned, CoverByOwnedLot]

    @pytest.mark.parametrize("text", INT_SPELLINGS.values(), ids=INT_SPELLINGS.keys())
    def test_int_spellings_parse_equal_on_both_paths(self, text):
        assert parse_scenario(text) == parse_scenario(with_comments(text))

    @pytest.mark.parametrize(
        "text, expected", PARSE_ERROR_CASES.values(), ids=PARSE_ERROR_CASES.keys()
    )
    def test_errors_match_on_both_paths(self, text, expected):
        assert parse_failure(text) == expected
        assert parse_failure(with_comments(text)) == expected

    def test_error_positions_are_those_of_the_full_parser(self):
        assert parse_failure(PARSE_ERROR_CASES["zero-qty"][0])[1:] == (
            "line 2, col 14: quantity must be positive, got 0", 2, 14,
        )
        assert parse_failure(PARSE_ERROR_CASES["non-monotonic"][0])[2:] == (4, 3)
        assert parse_failure(PARSE_ERROR_CASES["undefined-price"][0])[2:] == (2, 2)
        assert parse_failure(PARSE_ERROR_CASES["duplicate-price"][0])[2:] == (2, 1)

    def test_signs_and_underscores_are_rejected_as_in_prices(self):
        assert parse_failure(PARSE_ERROR_CASES["plus-qty"][0])[:2] == (
            ParseError, "line 2, col 14: expected share quantity, got '+5'",
        )
        assert parse_failure(PARSE_ERROR_CASES["underscore-qty"][0])[1] == (
            "line 2, col 14: expected share quantity, got '1_000'"
        )
        assert parse_failure(PARSE_ERROR_CASES["plus-tick"][0])[1] == (
            "line 1, col 11: expected tick, got '+1'"
        )
        # A minus sign still reaches the range checks and their messages.
        assert parse_failure(PARSE_ERROR_CASES["negative-qty"][0])[1] == (
            "line 2, col 14: quantity must be positive, got -5"
        )
        assert parse_failure(PARSE_ERROR_CASES["negative-event-tick"][0])[1] == (
            "line 2, col 4: tick must be non-negative, got -1"
        )


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # int()'s digit limit, 0 for none

# Number tokens drawn from ASCII digits, digits of other scripts (Arabic-Indic,
# full-width, superscript) and the signs, points, underscores and exponents
# that int() or float() would take.
NUMBER_TOKENS = st.text(alphabet="0123456789\u0660\u0665\uff11\u00b2.-+_e", min_size=1, max_size=8)


def outcome(call):
    """``call()`` with its type, or the error it raises as (class, message, line, col)."""
    try:
        value = call()
    except EngineError as err:
        return type(err), str(err), err.line, err.col
    return type(value), value


# The price grammar, stated apart from the parser: sign, whole pesos, then one or two centavo digits.
PRICE_RE = re.compile(r"(-?)([0-9]+)(?:\.([0-9]{1,2}))?")


class TestNumberTokens:
    """A price token reads as ``PRICE_RE`` says, and a tick or quantity as ``_int`` alone reads it."""

    @given(NUMBER_TOKENS)
    def test_price(self, token):
        def alone():
            m = PRICE_RE.fullmatch(token)
            if m is None:
                raise ParseError(f"expected peso price with at most two decimals, got {token!r}", 1, 13)
            sign, whole, cents = m.groups()
            centavos = int(whole) * 100 + int((cents or "0").ljust(2, "0"))
            if sign and centavos:
                raise ParseError("price must not be negative", 1, 13)
            return centavos

        code = f"price ABC 1 {token}"
        assert outcome(lambda: parse_scenario(code).prices.price_at("ABC", 1).centavos) == outcome(alone)

    @given(NUMBER_TOKENS)
    def test_price_tick(self, token):
        code = f"price ABC {token} 5"

        def alone():
            t = _int(code.split(), 2, "tick", code, 1, LIMIT or sys.maxsize)
            if t < 0:
                raise ParseError(f"tick must be non-negative, got {t}", 1, 11)
            return t

        assert outcome(lambda: next(iter(parse_scenario(code).prices.quotes))[1]) == outcome(alone)

    @given(NUMBER_TOKENS)
    def test_event_tick(self, token):
        code = f"at {token} death"

        def alone():
            t = _int(code.split(), 1, "tick", code, 1, LIMIT or sys.maxsize)
            if t < 0:
                raise ParseError(f"tick must be non-negative, got {t}", 1, 4)
            return t

        assert outcome(lambda: parse_scenario(code).events[0].at) == outcome(alone)

    @given(NUMBER_TOKENS)
    def test_quantity(self, token):
        code = f"at 1 buy ABC {token}"

        def alone():
            qty = _int(code.split(), 4, "share quantity", code, 2, LIMIT or sys.maxsize)
            if qty <= 0:
                raise InvalidQuantity(f"quantity must be positive, got {qty}", 2, 14)
            return qty

        assert outcome(lambda: parse_scenario(f"price ABC 1 5\n{code}").events[0].qty) == outcome(alone)


class TestValueRoundTrip:
    """Slotted records have no ``__dict__``; pickling and copying still give equal values."""

    @staticmethod
    def open_state():
        s = builtin("strategy3")
        ledger = Ledger()
        for ev in (Buy(1, "ABC", 100), Borrow(2, "ABC", 60), ShortSell(2, "ABC", 40), Death(3, "Y")):
            _, effects = apply_event(ledger, ev, s.prices)
        return ledger, effects

    def values(self):
        ledger, effects = self.open_state()
        return [
            run(builtin("strategy3"), Regime.PROPOSED),
            compare(builtin("death_avoidance"), RateSchedule.STATUTORY),
            tuple(ledger.lots),
            borrows(ledger),
            effects,
        ]

    def test_pickle_and_deepcopy_give_equal_objects(self):
        for value in self.values():
            assert pickle.loads(pickle.dumps(value)) == value
            assert copy.deepcopy(value) == value

    def test_per_event_records_have_no_dict(self):
        report = run(builtin("strategy3"))
        ledger, _ = self.open_state()
        prices = builtin("strategy3").prices
        lot, position = ledger.lots_of("ABC")[0], borrows_of(ledger, "ABC")[0]
        _, short = apply_event(ledger, ShortSell(3, "ABC", 20), prices)
        _, sale = apply_event(ledger, SellOwned(3, "ABC", 10), prices)
        records = [
            report.events[0], report.tax_lines[0], report.cash_timeline[0], report.total_tax,
            lot, position, short, short.shorts[0][0], sale.lots_consumed[0][0],
            builtin("strategy3").events[0],
        ]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_round_trips_through_printer(self, name):
        s = builtin(name)
        assert parse_scenario(format_scenario(s), name=s.name) == s

    def test_fractional_prices_round_trip(self):
        s = parse_scenario("price ABC 1 50.25\nprice ABC 2 50.2\nat 1 buy ABC 5\n", name="x")
        assert parse_scenario(format_scenario(s), name="x") == s

    def test_prices_keep_their_centavos_and_drop_a_bare_00(self):
        s = parse_scenario("price ABC 1 50.25\nprice ABC 2 50.2\nprice ABC 3 1234567\n", name="x")
        assert format_scenario(s) == "price ABC 1 50.25\nprice ABC 2 50.20\nprice ABC 3 1234567\n"

    def test_death_without_heir_and_with_an_empty_heir(self):
        prices = builtin("strategy3").prices
        assert format_scenario(Scenario("x", prices, (Death(1, None),))).endswith("at 1 death\n")
        with pytest.raises(EngineError) as exc:
            format_scenario(Scenario("x", prices, (Buy(1, "ABC", 5), Death(1, ""))))
        assert exc.value.event_index == 1

    @pytest.mark.parametrize(
        "event", [Death(1, "a b"), Buy(1, "A#b", 5), Buy(1, "A B", 5)], ids=["heir", "hash", "space"]
    )
    def test_a_name_that_would_not_read_back_names_its_event(self, event):
        quotes = {("ABC", 1): Money(100), ("A#b", 1): Money(100), ("A B", 1): Money(100)}
        s = Scenario("x", PricePath(quotes), (Buy(1, "ABC", 5), event))
        run(s)  # the engine itself takes any name
        with pytest.raises(EngineError) as exc:
            format_scenario(s)
        assert exc.value.event_index == 1

    def test_a_price_symbol_with_a_space_is_refused(self):
        s = Scenario("x", PricePath({("A B", 1): Money(100)}))
        with pytest.raises(EngineError, match="'A B' cannot be written as one scenario token"):
            format_scenario(s)

    def test_a_negative_price_is_refused_naming_its_quote(self):
        # It used to print "price A 1 -0.05", which the parser refuses: "price must not be negative".
        s = Scenario("x", PricePath({("A", 1): Money(-5)}), (Buy(1, "A", 1),))
        run(s)  # the engine itself takes a negative price
        with pytest.raises(EngineError, match=r"quote \('A', 1\) of -0\.05 cannot be written") as exc:
            format_scenario(s)
        assert not hasattr(exc.value, "event_index")

    def test_a_negative_tick_is_refused_naming_its_event(self):
        # It used to print "at -1 buy A 1", which the parser refuses: "tick must be non-negative".
        s = Scenario("x", PricePath({("A", -1): Money(5)}), (Buy(-1, "A", 1),))
        run(s)
        with pytest.raises(EngineError, match="tick must be a non-negative int to be written, got -1") as exc:
            format_scenario(s)
        assert exc.value.event_index == 0
        with pytest.raises(EngineError, match=r"quote \('A', -1\) of 0\.05 cannot be written"):
            format_scenario(Scenario("x", s.prices))


TOO_LONG, PRICE_TOO_LONG = f"has more than {LIMIT:,} digits", f"has more than {LIMIT - 2:,} digits before the point"


@pytest.mark.skipif(not LIMIT, reason="int() has no digit limit")
class TestIntDigitLimit:
    """A number token of more digits than int() reads is a ParseError at its column, never a ValueError,
    and the printer refuses exactly the numbers the parser would refuse."""

    @pytest.mark.parametrize(
        "text, message, col",
        [
            ("price ABC 1 50\nat 1 buy ABC " + "9" * (LIMIT + 1), "share quantity " + TOO_LONG, 14),
            ("price ABC 1 50\nat 1 buy ABC -" + "9" * (LIMIT + 1), "share quantity " + TOO_LONG, 14),
            ("price ABC 1 50\nat " + "1" * (LIMIT + 1) + " buy ABC 5", "tick " + TOO_LONG, 4),
            ("price ABC " + "1" * (LIMIT + 1) + " 50", "tick " + TOO_LONG, 11),
            ("price ABC 1 " + "9" * (LIMIT - 1), "price " + PRICE_TOO_LONG, 13),
            ("price ABC 1 " + "9" * (LIMIT - 1) + ".50", "price " + PRICE_TOO_LONG, 13),
            ("price ABC 1 -" + "9" * (LIMIT - 1), "price " + PRICE_TOO_LONG, 13),
            ("price ABC 1 -" + "0" * (LIMIT - 1), "price " + PRICE_TOO_LONG, 13),
        ],
        ids=["qty", "negative-qty", "event-tick", "price-tick", "price", "fractional-price", "negative-price",
             "negative-zero-price"],
    )
    def test_one_digit_too_many_is_refused_at_its_column(self, text, message, col):
        line = text.count("\n") + 1
        with pytest.raises(ParseError) as exc:
            parse_scenario(text + "\n")
        assert (str(exc.value), exc.value.line, exc.value.col) == (f"line {line}, col {col}: {message}", line, col)

    def test_the_longest_numbers_round_trip(self):
        top = 10**LIMIT - 1  # LIMIT nines
        s = Scenario("x", PricePath({("A", top): Money(top)}), (Buy(top, "A", top),))
        text = format_scenario(s)
        assert text == f"price A {top} {top // 100}.99\nat {top} buy A {top}\n"
        assert parse_scenario(text, name="x") == s

    @pytest.mark.parametrize("field", ["tick", "qty", "price"])
    def test_one_digit_more_is_refused_by_the_printer(self, field):
        top, over = 10**LIMIT - 1, 10**LIMIT
        tick, qty, price = (over if field == name else top for name in ("tick", "qty", "price"))
        s = Scenario("x", PricePath({("A", tick): Money(price)}), (Buy(tick, "A", qty),))
        with pytest.raises(EngineError, match=f"more than {LIMIT:,} digits") as exc:
            format_scenario(s)
        assert getattr(exc.value, "event_index", None) == (None if field == "price" else 0)


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

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_built_once(self, name):
        assert builtin(name) is builtin(name)

    def test_proposed_demo_reuses_strategy3_events(self):
        assert builtin("proposed_demo").events == builtin("strategy3").events

    def test_offset_grid_prices_only(self):
        s = builtin("offset_grid")
        assert s.events == ()
        assert len(quoted_securities(s.prices)) == 7


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

    @pytest.mark.parametrize("argument, kwargs", [
        ("regime", {"regime": "current"}),
        ("regime", {"regime": None}),
        ("schedule", {"schedule": "paper"}),
        ("window", {"window": "whole-run"}),
    ])
    def test_a_setting_that_is_not_its_enum_member_is_refused(self, argument, kwargs):
        # "current" used to run the proposed rule (1,200,000.00 of tax on strategy3) and its to_dict to fail.
        with pytest.raises(TypeError, match=f"^{argument} must be a "):
            run(builtin("strategy3"), **kwargs)


class TestCashTimeline:
    """One point per tick at which some event moved cash, in tick order, folded in event order."""

    PRICES = PricePath({("A", t): Money.from_pesos(10) for t in (1, 2, 3)})

    def timeline(self, events, regime=Regime.CURRENT):
        return [(p.at, p.delta.centavos, p.cumulative.centavos)
                for p in run(Scenario("cash", self.PRICES, events), regime).cash_timeline]

    def test_a_tick_whose_deltas_sum_to_zero_keeps_its_point(self):
        events = (Buy(1, "A", 5), SellOwned(1, "A", 5), Buy(2, "A", 1))
        assert self.timeline(events) == [(1, 0, 0), (2, -1_000, -1_000)]

    @pytest.mark.parametrize("regime", Regime)
    def test_a_tick_with_only_zero_cash_events_gets_none(self, regime):
        events = (Buy(1, "A", 2), Borrow(1, "A", 1), ShortSell(1, "A", 1),
                  CoverByOwnedLot(2, "A", 1), Borrow(2, "A", 1), Death(2), SellOwned(3, "A", 1))
        assert self.timeline(events, regime) == [(1, -1_000, -1_000), (3, 1_000, 0)]


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

    @pytest.mark.parametrize("argument, args", [
        ("schedule", ("paper",)),
        ("window", (RateSchedule.STATUTORY, "whole-run")),
    ])
    def test_a_setting_that_is_not_its_enum_member_is_refused(self, argument, args):
        # "paper" used to select the statutory tiers: 495,000.00 of tax on strategy1 instead of 500,000.00.
        with pytest.raises(TypeError, match=f"^{argument} must be a "):
            compare(builtin("strategy1"), *args)

    def test_cash_identical_across_regimes(self):
        report = compare(builtin("strategy3"))
        assert report.current.cash_timeline == report.proposed.cash_timeline
