"""Netting windows, rate schedules, and tax timelines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realize import (
    Money,
    NettingWindow,
    RateSchedule,
    RealizationKind,
    RealizationEvent,
    Regime,
    builtin,
    run,
)
from realize.taxation import FLAT_RATE, LOWER_TIER_RATE, UPPER_TIER_RATE, tax_timeline


def event(at, gain_pesos, qty=100_000):
    """A realization event whose total gain is gain_pesos, via per-share amounts."""
    per_share = Money((gain_pesos * 100) // qty)
    assert per_share * qty == Money.from_pesos(gain_pesos)
    return RealizationEvent(
        at=at,
        kind=RealizationKind.ORDINARY_SALE,
        sec="ABC",
        qty=qty,
        amount_realized_per_share=per_share,
        basis_per_share=Money.zero(),
    )


def nets(events, window=NettingWindow.PER_TICK):
    """(period, net capital gain) of each line ``tax_timeline`` makes of ``events``."""
    return [(line.period, line.net_capital_gain) for line in tax_timeline(events, window)]


def tax_on(net, schedule):
    """The tax ``tax_timeline`` puts on a one-event input whose net capital gain is ``net``."""
    gain, loss = Money(max(net.centavos, 0)), Money(max(-net.centavos, 0))
    ev = RealizationEvent(1, RealizationKind.ORDINARY_SALE, "ABC", 1, gain, loss)
    (line,) = tax_timeline([ev], NettingWindow.PER_TICK, schedule)
    assert line.net_capital_gain == net
    return line.tax_due


class TestTimelineNets:
    def test_gain_and_loss_net_in_same_tick(self):
        events = [event(3, 7_000_000), event(3, -2_000_000)]
        assert nets(events) == [(3, Money.from_pesos(5_000_000))]

    def test_zero_gain_and_loss_stay_a_net_loss(self):
        events = [event(3, 0), event(3, -3_000_000)]
        assert nets(events) == [(3, Money.from_pesos(-3_000_000))]

    def test_empty(self):
        assert nets([]) == []
        assert nets([], NettingWindow.WHOLE_RUN) == []

    def test_separate_ticks_stay_separate(self):
        events = [event(2, 5_000_000), event(3, 7_000_000)]
        assert nets(events) == [
            (2, Money.from_pesos(5_000_000)),
            (3, Money.from_pesos(7_000_000)),
        ]

    def test_whole_run_window_nets_everything_at_last_tick(self):
        events = [event(2, 5_000_000), event(3, -2_000_000)]
        assert nets(events, NettingWindow.WHOLE_RUN) == [
            (3, Money.from_pesos(3_000_000))
        ]


class TestTimelineTax:
    def test_the_rates_are_the_papers_and_the_statutes_whole_percents(self):
        # 10% flat in the worked examples; Sec 24(C) NIRC: 5% up to the tier limit, 10% above it.
        assert (FLAT_RATE, LOWER_TIER_RATE, UPPER_TIER_RATE) == (10, 5, 10)
        assert all(type(rate) is int for rate in (FLAT_RATE, LOWER_TIER_RATE, UPPER_TIER_RATE))

    def test_paper_flat_on_strategy_gain(self):
        assert tax_on(Money.from_pesos(5_000_000), RateSchedule.PAPER_FLAT) == Money.from_pesos(
            500_000
        )

    def test_no_tax_on_losses(self):
        assert tax_on(Money.from_pesos(-2_000_000), RateSchedule.PAPER_FLAT) == Money.zero()
        assert tax_on(Money.from_pesos(-2_000_000), RateSchedule.STATUTORY) == Money.zero()

    def test_statutory_tiers(self):
        # Direct tier arithmetic: 5% of 100,000 is 5,000 and 10% of the
        # 4,900,000 excess is 490,000, so 495,000 in total.
        assert tax_on(Money.from_pesos(5_000_000), RateSchedule.STATUTORY) == Money.from_pesos(
            495_000
        )

    def test_statutory_below_tier_limit(self):
        assert tax_on(Money.from_pesos(100_000), RateSchedule.STATUTORY) == Money.from_pesos(
            5_000
        )

    @given(st.integers(min_value=-(10**8), max_value=0))
    def test_zero_floor(self, centavos):
        assert tax_on(Money(centavos), RateSchedule.PAPER_FLAT) == Money.zero()
        assert tax_on(Money(centavos), RateSchedule.STATUTORY) == Money.zero()

    @given(st.integers(min_value=1, max_value=10**7))
    def test_positive_on_whole_peso_gains(self, pesos):
        assert tax_on(Money.from_pesos(pesos), RateSchedule.PAPER_FLAT) > Money.zero()
        assert tax_on(Money.from_pesos(pesos), RateSchedule.STATUTORY) > Money.zero()

    @given(st.integers(min_value=-(10**9), max_value=10**9), st.integers(min_value=-(10**9), max_value=10**9))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        for schedule in RateSchedule:
            assert tax_on(Money(lo), schedule) <= tax_on(Money(hi), schedule)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_statutory_never_exceeds_flat(self, centavos):
        net = Money(centavos)
        assert tax_on(net, RateSchedule.STATUTORY) <= tax_on(net, RateSchedule.PAPER_FLAT)


class TestTaxTimeline:
    def test_strategy3_current(self):
        report = run(builtin("strategy3"))
        (line,) = report.tax_lines
        assert line.period == 3
        assert line.net_capital_gain == Money.from_pesos(5_000_000)
        assert line.tax_due == Money.from_pesos(500_000)

    def test_abc_path_proposed(self):
        report = run(builtin("proposed_demo"), regime=Regime.PROPOSED)
        assert [
            (l.period, l.net_capital_gain, l.tax_due) for l in report.tax_lines
        ] == [
            (2, Money.from_pesos(5_000_000), Money.from_pesos(500_000)),
            (3, Money.from_pesos(7_000_000), Money.from_pesos(700_000)),
        ]
        assert report.total_tax == Money.from_pesos(1_200_000)

    def test_empty(self):
        assert tax_timeline([]) == []

    def test_loss_period_owes_nothing(self):
        lines = tax_timeline([event(3, -3_000_000)])
        (line,) = lines
        assert line.tax_due == Money.zero()
        assert line.net_capital_gain == Money.from_pesos(-3_000_000)

    @pytest.mark.parametrize("argument, args", [
        ("window", ("whole-run",)),
        ("schedule", (NettingWindow.WHOLE_RUN, "statutory")),
    ])
    def test_a_setting_that_is_not_its_enum_member_is_refused(self, argument, args):
        # Each rule tests one member, so any other value used to select the other rule.
        with pytest.raises(TypeError, match=f"^{argument} must be a "):
            tax_timeline([event(1, 200_000)], *args)
