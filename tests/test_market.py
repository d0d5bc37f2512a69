"""Money, the tax rate's rounding, and price-path behavior."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realize import Money, PricePath
from realize.errors import MissingPrice
from realize.market import pesos
from realize.taxation import _rated
from ledger_views import quoted_securities, quoted_ticks

ABC_PRICES = PricePath.from_table(
    {"ABC": {1: Money.from_pesos(50), 2: Money.from_pesos(100), 3: Money.from_pesos(30)}}
)


class TestMoney:
    def test_arithmetic_is_integer_exact(self):
        a = Money(5025)
        b = Money(4975)
        assert a + b == Money(10000)
        assert a - b == Money(50)
        assert -a == Money(-5025)
        assert a * 3 == Money(15075)
        assert 3 * a == Money(15075)

    def test_rejects_non_integer_centavos(self):
        with pytest.raises(TypeError):
            Money(1.5)

    @pytest.mark.parametrize("bad", [True, False, "1", None])
    def test_rejects_bools_and_other_types(self, bad):
        with pytest.raises(TypeError):
            Money(bad)

    @pytest.mark.parametrize("other", [1, 1.5, "1", None])
    def test_non_money_operand_is_a_type_error(self, other):
        m = Money(100)
        for op in (lambda: m + other, lambda: other + m, lambda: m - other, lambda: other - m):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("factor", [1.5, "2", Money(2)])
    def test_non_int_factor_is_a_type_error(self, factor):
        with pytest.raises(TypeError):
            Money(100) * factor
        with pytest.raises(TypeError):
            factor * Money(100)

    def test_int_and_bool_factors_keep_exact_ints(self):
        products = {
            Money(5) * True: 5, True * Money(5): 5, Money(5) * False: 0,
            Money(5) * 2: 10, 2 * Money(5): 10, Money(-7) * 3: -21,
        }
        for product, centavos in products.items():
            assert type(product) is Money and type(product.centavos) is int
            assert product.centavos == centavos

    def test_is_a_slotted_frozen_value(self):
        m = Money(5)
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.centavos = 6
        assert hash(m) == hash(Money(2) + Money(3)) and m == Money(2) + Money(3)

    def test_ordering(self):
        assert Money(-1) < Money(0) < Money(1)

    def test_str_uses_thousands_separators(self):
        assert str(Money.from_pesos(5_000_000)) == "5,000,000.00"
        assert str(Money(-12345)) == "-123.45"


# The size of each amount, written with its centavos and with cents=False.
PESO_TEXT = {
    0: ("0.00", "0"),
    5: ("0.05", "0.05"),
    100: ("1.00", "1"),
    99_999: ("999.99", "999.99"),
    100_000: ("1,000.00", "1,000"),
    1_234_550: ("12,345.50", "12,345.50"),
    10**9: ("10,000,000.00", "10,000,000"),
}


@pytest.mark.parametrize("symbol", ["", "₱"])
@pytest.mark.parametrize("parens", [False, True])
@pytest.mark.parametrize("cents", [True, False])
@pytest.mark.parametrize(
    "centavos", [0, 5, -5, 100, -100, 99_999, -99_999, 100_000, -100_000, 1_234_550, -1_234_550, 10**9]
)
def test_pesos(centavos, cents, parens, symbol):
    with_cents, without = PESO_TEXT[abs(centavos)]
    body = symbol + (with_cents if cents else without)
    if parens:
        expected = f"({body})"
    else:
        expected = f"-{body}" if centavos < 0 else body
    assert pesos(centavos, symbol=symbol, cents=cents, parens=parens) == expected
    if not (parens or symbol or not cents):
        assert str(Money(centavos)) == expected


@given(st.integers(-(10**15), 10**15), st.booleans(), st.booleans(), st.sampled_from(["", "₱"]))
def test_pesos_matches_one_grouped_format(centavos, cents, parens, symbol):
    a = abs(centavos)
    body = f"{symbol}{a // 100:,}" + (f".{a % 100:02d}" if cents or a % 100 else "")
    expected = f"({body})" if parens else ("-" + body if centavos < 0 else body)
    assert pesos(centavos, symbol=symbol, cents=cents, parens=parens) == expected


class TestApplyRate:
    """``taxation._rated``: a whole percent of int centavos, rounded half-to-even."""

    def test_paper_ordinary_sale_tax(self):
        # 10% of the 5,000,000 gain in the worked ordinary-sale table.
        assert _rated(Money.from_pesos(5_000_000).centavos, 10) == Money.from_pesos(500_000).centavos

    def test_zero_base(self):
        assert _rated(0, 10) == 0

    def test_half_to_even_rounds_down_to_even(self):
        # Oracle by hand in exact rationals: 25 centavos * 10/100 = 2.5
        # centavos; ties go to the even centavo, so 2.
        assert _rated(25, 10) == 2

    def test_half_to_even_rounds_up_to_even(self):
        # 15 * 10/100 = 1.5 centavos; the even neighbor is 2.
        assert _rated(15, 10) == 2

    def test_half_to_even_at_the_lower_tier_rate(self):
        # 5% of 10, 30 and 50 centavos is 0.5, 1.5 and 2.5: each tie goes to its even neighbor.
        assert [_rated(c, 5) for c in (10, 30, 50)] == [0, 2, 2]

    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=100))
    def test_matches_exact_rational_half_to_even(self, centavos, percent):
        # round() of a Fraction rounds half to even, exactly.
        assert _rated(centavos, percent) == round(Fraction(centavos * percent, 100))

    @given(st.integers(min_value=0, max_value=10**9))
    def test_zero_and_full_rate_identities(self, centavos):
        assert _rated(centavos, 0) == 0
        assert _rated(centavos, 100) == centavos

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=100),
    )
    def test_additive_on_exact_multiples(self, ka, kb, percent):
        # Whenever both amounts are exact multiples of 100 centavos, no
        # rounding occurs and the rate distributes over +.
        a, b = ka * 100, kb * 100
        assert _rated(a + b, percent) == _rated(a, percent) + _rated(b, percent)

    @given(st.integers(min_value=0, max_value=10**8), st.integers(min_value=0, max_value=10**8))
    def test_monotone_in_amount(self, a, b):
        lo, hi = sorted((a, b))
        assert _rated(lo, 10) <= _rated(hi, 10)


class TestPricePath:
    def test_abc_prices(self):
        assert ABC_PRICES.price_at("ABC", 1) == Money.from_pesos(50)
        assert ABC_PRICES.price_at("ABC", 2) == Money.from_pesos(100)
        assert ABC_PRICES.price_at("ABC", 3) == Money.from_pesos(30)

    def test_missing_tick(self):
        with pytest.raises(MissingPrice):
            ABC_PRICES.price_at("ABC", 9)

    def test_missing_security(self):
        with pytest.raises(MissingPrice):
            ABC_PRICES.price_at("XYZ", 1)

    def test_lookup_is_repeatable(self):
        first = ABC_PRICES.price_at("ABC", 2)
        for _ in range(10):
            assert ABC_PRICES.price_at("ABC", 2) == first

    def test_securities_and_ticks(self):
        assert quoted_securities(ABC_PRICES) == ("ABC",)
        assert quoted_ticks(ABC_PRICES, "ABC") == (1, 2, 3)

    @pytest.mark.parametrize("price", [10, 10.5, "10", None], ids=repr)
    def test_a_quote_that_is_not_money_is_refused_naming_its_key(self, price):
        # An int quote used to build and end run() in AttributeError: 'int' object has no attribute 'centavos'.
        with pytest.raises(TypeError, match=r"^the quote for \('A', 1\) must be Money, got "):
            PricePath({("A", 2): Money(100), ("A", 1): price})
