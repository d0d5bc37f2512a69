"""The CLI's column-wise report writers against row-wise references.

Each reference renders the same report the way the CLI did before its
writers worked by column: JSON through ``json.dumps(to_dict(), indent=2)``,
CSV through ``csv.writer``, and tables one row at a time with a peso
formatter of its own.  They share no rendering code with ``realize.cli``.
"""

import csv
import io
import json
import random

import pytest

from realize import (
    Buy,
    Money,
    NettingWindow,
    PricePath,
    RateSchedule,
    Regime,
    Scenario,
    SellOwned,
    compare,
    parse_scenario,
    run,
)
from realize.cli import (
    _render_compare_csv,
    _render_compare_json,
    _render_compare_table,
    _render_grid_csv,
    _render_grid_json,
    _render_run_csv,
    _render_run_json,
    _render_run_table,
)
from realize.scenario import offset_grid_rows

from scenario_gen import random_scenario

SETTINGS = [(s, w) for s in RateSchedule for w in NettingWindow]


def ref_pesos(centavos):
    a = abs(centavos)
    body = f"₱{a // 100:,}.{a % 100:02d}"
    return "-" + body if centavos < 0 else body


def ref_layout(rows):
    line = "  ".join(f"{{:>{max(map(len, column))}}}" for column in zip(*rows)).format
    return [line(*r).rstrip() for r in rows]


def ref_section(title, header, rows, empty):
    return ["", title, *(ref_layout([header, *rows]) if rows else [f"  {empty}"])]


def ref_run_table(report):
    events = [
        (str(e.at), e.kind.value, e.sec, f"{e.qty:,}", ref_pesos(e.amount_realized_per_share.centavos),
         ref_pesos(e.basis_per_share.centavos), ref_pesos(e.gain_per_share.centavos),
         ref_pesos(e.gain_total.centavos))
        for e in report.events
    ]
    taxes = [
        (str(t.period), ref_pesos(t.net_capital_gain.centavos), ref_pesos(t.tax_due.centavos))
        for t in report.tax_lines
    ]
    cash = [
        (str(p.at), ref_pesos(p.delta.centavos), ref_pesos(p.cumulative.centavos))
        for p in report.cash_timeline
    ]
    inv = report.inventory
    owned = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.owned) or "none"
    borrowed = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.borrowed_outstanding) or "none"
    lines = [
        f"scenario: {report.scenario}   regime: {report.regime.value}   "
        f"rates: {report.schedule.value}   window: {report.window.value}",
        *ref_section(
            "REALIZATION EVENTS",
            ("tick", "kind", "security", "qty", "amount/sh", "basis/sh", "gain/sh", "gain total"),
            events,
            "(none)",
        ),
        *ref_section("TAX TIMELINE", ("tick", "net capital gain", "tax due"), taxes, "(no realization, no tax)"),
        *ref_section("CASH TIMELINE (PRE-TAX)", ("tick", "delta", "cumulative"), cash, "(no cash movement)"),
        "",
        "TOTALS",
        f"  total tax:      {ref_pesos(report.total_tax.centavos)}",
        f"  final cash:     {ref_pesos(report.final_cash.centavos)}",
        f"  owned shares:   {owned}",
        f"  open borrows:   {borrowed}",
        f"  owner generation: {inv.owner_generation}",
    ]
    return "\n".join(lines) + "\n"


def ref_csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def ref_run_csv(report):
    rows = [[
        "record", "tick", "kind", "security", "qty",
        "amount_per_share", "basis_per_share", "gain_per_share", "gain_total",
        "net_capital_gain", "tax_due", "cash_delta", "cash_cumulative",
    ]]
    rows += [
        ["event", e.at, e.kind.value, e.sec, e.qty, e.amount_realized_per_share.centavos,
         e.basis_per_share.centavos, e.gain_per_share.centavos, e.gain_total.centavos, "", "", "", ""]
        for e in report.events
    ]
    rows += [
        ["tax", t.period, "", "", "", "", "", "", "", t.net_capital_gain.centavos, t.tax_due.centavos, "", ""]
        for t in report.tax_lines
    ]
    rows += [
        ["cash", p.at, "", "", "", "", "", "", "", "", "", p.delta.centavos, p.cumulative.centavos]
        for p in report.cash_timeline
    ]
    rows.append(["total", "", "", "", "", "", "", "", "", "", report.total_tax.centavos, "",
                 report.final_cash.centavos])
    return ref_csv(rows)


def ref_compare_rows(report):
    rows = [(d.at, d.current_tax.centavos, d.proposed_tax.centavos, d.delta.centavos) for d in report.tax_deltas]
    totals = report.current.total_tax, report.proposed.total_tax, report.total_delta
    return [*rows, ("total", *(m.centavos for m in totals))]


def ref_compare_table(report):
    rows = [("tick", "current tax", "proposed tax", "delta")]
    rows += [(str(tick), *map(ref_pesos, taxes)) for tick, *taxes in ref_compare_rows(report)]
    lines = [
        f"scenario: {report.scenario}   rates: {report.schedule.value}   window: {report.window.value}",
        "",
        "TAX BY TICK (CURRENT VS PROPOSED)",
        *ref_layout(rows),
        "",
    ]
    for label, r in (("current regime: ", report.current), ("proposed regime:", report.proposed)):
        lines.append(
            f"{label} total tax {ref_pesos(r.total_tax.centavos)}, final cash {ref_pesos(r.final_cash.centavos)}"
        )
    return "\n".join(lines) + "\n"


def ref_compare_csv(report):
    return ref_csv([("tick", "current_tax", "proposed_tax", "delta"), *ref_compare_rows(report)])


def as_json(report):
    return json.dumps(report.to_dict(), indent=2)


def assert_run_writers_match(report):
    assert _render_run_table(report) == ref_run_table(report)
    assert _render_run_csv(report) == ref_run_csv(report)
    assert _render_run_json(report) == as_json(report)


def assert_compare_writers_match(report):
    assert _render_compare_table(report) == ref_compare_table(report)
    assert _render_compare_csv(report) == ref_compare_csv(report)
    assert _render_compare_json(report) == as_json(report)
    for r in (report.current, report.proposed):
        assert_run_writers_match(r)


GENERATED = [random_scenario(random.Random(seed), name=f"gen{seed}").scenario for seed in range(40)]


@pytest.mark.parametrize("schedule, window", SETTINGS, ids=lambda v: v.value)
def test_generated_scenarios_render_as_their_references(schedule, window):
    for scenario in GENERATED:
        assert_compare_writers_match(compare(scenario, schedule, window))


# Symbols a CSV or JSON writer must quote or escape, and peso amounts of every
# shape: a loss, a zero gain, a centavo loss, a seven-figure price and gain.
HOSTILE = """\
price A,B 1 10.05
price A,B 2 0.5
price "Q" 1 1000000
price "Q" 2 999999.99
price back\\slash 1 7
price back\\slash 2 9
price Ñ 1 3
price Ñ 2 3
price ₱ 1 0.01
price ₱ 2 2
price 😀 1 50
price 😀 2 25
at 1 buy A,B 1000
at 1 buy "Q" 3
at 1 borrow back\\slash 10
at 1 short-sell back\\slash 10
at 1 buy Ñ 5
at 1 buy ₱ 2000000
at 1 buy 😀 6
at 1 borrow 😀 4
at 2 sell A,B 400
at 2 cover back\\slash 4 by-purchase
at 2 sell "Q" 3
at 2 sell Ñ 5
at 2 sell ₱ 1000000
at 2 short-sell 😀 2
"""

NAMES = ["hostile", 'say "hi"', "back\\slash", "Ñandú ₱ 😀", "tab\tand\nnewline"]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("schedule, window", SETTINGS, ids=lambda v: v.value)
def test_hostile_symbols_and_names_render_as_their_references(name, schedule, window):
    report = compare(parse_scenario(HOSTILE, name=name), schedule, window)
    assert_compare_writers_match(report)
    csv_text = _render_run_csv(report.proposed)
    assert '"A,B"' in csv_text and '"""Q"""' in csv_text
    totals = {e.sec: e.gain_total.centavos for e in report.current.events}
    assert totals["A,B"] < 0 and totals["Ñ"] == 0 and totals['"Q"'] == -3 and totals["₱"] >= 100_000_000
    assert report.proposed.inventory.owned and report.proposed.inventory.borrowed_outstanding


def test_built_symbols_with_line_breaks_are_quoted_as_csv_quotes_them():
    # Only the API can make such a symbol; the DSL splits tokens at whitespace.
    secs = ("a\nb", "c\rd", "e,f", "")
    prices = PricePath({(sec, t): Money(100 * t) for sec in secs for t in (1, 2)})
    events = (*(Buy(1, sec, 5) for sec in secs), *(SellOwned(2, sec, 2) for sec in secs))
    assert_compare_writers_match(compare(Scenario("built", prices, events)))


EMPTY_PARTS = {
    "no events": "price A 1 10\n",
    "cash only": "price A 1 10\nat 1 buy A 5\n",
    "no tax": "price A 1 10\nprice A 2 5\nat 1 buy A 5\nat 2 sell A 5\n",
    "no cash": "price A 1 10\nat 1 borrow A 5\n",
}


@pytest.mark.parametrize("text", EMPTY_PARTS.values(), ids=EMPTY_PARTS.keys())
def test_reports_with_empty_parts_render_as_their_references(text):
    report = compare(parse_scenario(text))
    assert_compare_writers_match(report)
    for regime in Regime:
        assert_run_writers_match(run(parse_scenario(text), regime))


def test_empty_containers_are_written_as_json_writes_them():
    out = _render_run_json(run(parse_scenario(EMPTY_PARTS["no events"])))
    assert '"events": [],' in out and '"owned": {},' in out and '"borrowed_outstanding": {},' in out


def test_grid_writers_match_their_references():
    rows = [
        {
            "future_price": row.future_price.centavos,
            "present_price": row.present_price.centavos,
            "ordinary_gain_per_share": row.ordinary_gain_per_share.centavos,
            "short_gain_per_share": row.short_gain_per_share.centavos,
        }
        for row in offset_grid_rows()
    ]
    assert _render_grid_json() == json.dumps(rows, indent=2)
    assert _render_grid_csv() == ref_csv([list(rows[0]), *(row.values() for row in rows)])


def test_every_render_of_one_report_is_the_same_text():
    # No cache survives a call: ``realize check`` renders twice to prove determinism.
    report = compare(parse_scenario(HOSTILE))
    for render in (_render_compare_table, _render_compare_csv, _render_compare_json):
        assert render(report) == render(report)
