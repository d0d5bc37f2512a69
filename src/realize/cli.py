"""Command-line front end.

Subcommands: ``run``, ``compare``, ``paper-tables``, ``grid``, ``check``.
Exit codes are a stable scripting contract: 0 success, 1 golden-suite
mismatch from ``check``, 2 scenario or parse errors, 64 usage errors.
The REALIZE_FORMAT environment variable overrides the default output format.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import EngineError, UnreadableScenario
from .realization import Regime
from .scenario import (
    BUILTIN_NAMES,
    ComparisonReport,
    RunReport,
    Scenario,
    builtin,
    compare,
    offset_grid_rows,
    parse_scenario,
    run,
)
from .tables import paper_tables
from .taxation import NettingWindow, RateSchedule

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SCENARIO_ERROR = 2
EXIT_USAGE = 64

FORMATS = ("table", "csv", "json")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_format() -> str:
    return os.environ.get("REALIZE_FORMAT", "table")


def _peso(centavos: int) -> str:
    sign = "-" if centavos < 0 else ""
    a = abs(centavos)
    return f"{sign}₱{a // 100:,}.{a % 100:02d}"


def _layout(rows: list[tuple[str, ...]]) -> list[str]:
    """Right-align every column to its widest cell, two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip() for r in rows]


def _load_scenario(target: str) -> Scenario:
    if target in BUILTIN_NAMES:
        return builtin(target)
    path = Path(target)
    if not path.exists():
        raise EngineError(f"no such file or built-in scenario: {target}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise UnreadableScenario(f"{target}: not UTF-8 text (bad byte at offset {err.start})") from None
    except OSError as err:
        raise UnreadableScenario(f"{target}: {err.strerror or err}") from None
    return parse_scenario(text, name=path.stem)


def _render_run_table(report: RunReport) -> str:
    lines = [
        f"scenario: {report.scenario}   regime: {report.regime.value}   "
        f"rates: {report.schedule.value}   window: {report.window.value}",
        "",
        "REALIZATION EVENTS",
    ]
    if report.events:
        rows = [("tick", "kind", "security", "qty", "amount/sh", "basis/sh", "gain/sh", "gain total")]
        for e in report.events:
            gain_per_share, gain_total = e.gain_centavos
            rows.append(
                (
                    str(e.at),
                    e.kind.value,
                    e.sec,
                    f"{e.qty:,}",
                    _peso(e.amount_realized_per_share.centavos),
                    _peso(e.basis_per_share.centavos),
                    _peso(gain_per_share),
                    _peso(gain_total),
                )
            )
        lines += _layout(rows)
    else:
        lines.append("  (none)")

    lines += ["", "TAX TIMELINE"]
    if report.tax_lines:
        rows = [("tick", "net capital gain", "tax due")]
        for t in report.tax_lines:
            rows.append((str(t.period), _peso(t.net_capital_gain.centavos), _peso(t.tax_due.centavos)))
        lines += _layout(rows)
    else:
        lines.append("  (no realization, no tax)")

    lines += ["", "CASH TIMELINE (PRE-TAX)"]
    if report.cash_timeline:
        rows = [("tick", "delta", "cumulative")]
        for p in report.cash_timeline:
            rows.append((str(p.at), _peso(p.delta.centavos), _peso(p.cumulative.centavos)))
        lines += _layout(rows)
    else:
        lines.append("  (no cash movement)")

    inv = report.inventory
    owned = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.owned) or "none"
    borrowed = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.borrowed_outstanding) or "none"
    lines += [
        "",
        "TOTALS",
        f"  total tax:      {_peso(report.total_tax.centavos)}",
        f"  final cash:     {_peso(report.final_cash.centavos)}",
        f"  owned shares:   {owned}",
        f"  open borrows:   {borrowed}",
        f"  owner generation: {inv.owner_generation}",
    ]
    return "\n".join(lines) + "\n"


def _render_run_csv(report: RunReport) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "record", "tick", "kind", "security", "qty",
            "amount_per_share", "basis_per_share", "gain_per_share", "gain_total",
            "net_capital_gain", "tax_due", "cash_delta", "cash_cumulative",
        ]
    )
    for e in report.events:
        writer.writerow(
            [
                "event", e.at, e.kind.value, e.sec, e.qty,
                e.amount_realized_per_share.centavos, e.basis_per_share.centavos,
                *e.gain_centavos, "", "", "", "",
            ]
        )
    for t in report.tax_lines:
        writer.writerow(
            ["tax", t.period, "", "", "", "", "", "", "",
             t.net_capital_gain.centavos, t.tax_due.centavos, "", ""]
        )
    for p in report.cash_timeline:
        writer.writerow(
            ["cash", p.at, "", "", "", "", "", "", "", "", "",
             p.delta.centavos, p.cumulative.centavos]
        )
    writer.writerow(
        ["total", "", "", "", "", "", "", "", "", "",
         report.total_tax.centavos, "", report.final_cash.centavos]
    )
    return buf.getvalue()


def _render_compare_table(report: ComparisonReport) -> str:
    lines = [
        f"scenario: {report.scenario}   rates: {report.schedule.value}   "
        f"window: {report.window.value}",
        "",
        "TAX BY TICK (CURRENT VS PROPOSED)",
    ]
    rows = [("tick", "current tax", "proposed tax", "delta")]
    for d in report.tax_deltas:
        rows.append(
            (str(d.at), _peso(d.current_tax.centavos), _peso(d.proposed_tax.centavos), _peso(d.delta.centavos))
        )
    current, proposed = report.current, report.proposed
    rows.append(
        ("total", _peso(current.total_tax.centavos), _peso(proposed.total_tax.centavos),
         _peso(report.total_delta.centavos))
    )
    lines += _layout(rows)
    lines += [
        "",
        f"current regime:  total tax {_peso(current.total_tax.centavos)}, "
        f"final cash {_peso(current.final_cash.centavos)}",
        f"proposed regime: total tax {_peso(proposed.total_tax.centavos)}, "
        f"final cash {_peso(proposed.final_cash.centavos)}",
    ]
    return "\n".join(lines) + "\n"


def _render_compare_csv(report: ComparisonReport) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tick", "current_tax", "proposed_tax", "delta"])
    for d in report.tax_deltas:
        writer.writerow([d.at, d.current_tax.centavos, d.proposed_tax.centavos, d.delta.centavos])
    writer.writerow(
        ["total", report.current.total_tax.centavos, report.proposed.total_tax.centavos,
         report.total_delta.centavos]
    )
    return buf.getvalue()


def _render_grid_table() -> str:
    from .tables import offset_grid_table

    return "\n".join(offset_grid_table()) + "\n"


def _render_grid_csv() -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["future_price", "present_price", "ordinary_gain_per_share", "short_gain_per_share"]
    )
    for row in offset_grid_rows():
        writer.writerow(
            [row.future_price.centavos, row.present_price.centavos,
             row.ordinary_gain_per_share.centavos, row.short_gain_per_share.centavos]
        )
    return buf.getvalue()


def _grid_dict() -> list[dict]:
    return [
        {
            "future_price": row.future_price.centavos,
            "present_price": row.present_price.centavos,
            "ordinary_gain_per_share": row.ordinary_gain_per_share.centavos,
            "short_gain_per_share": row.short_gain_per_share.centavos,
        }
        for row in offset_grid_rows()
    ]


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        print(f"realize: error: unknown format {fmt!r} (choose from {', '.join(FORMATS)})",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return fmt


def _fixture_text() -> str:
    return resources.files("realize").joinpath("fixtures/paper_tables.txt").read_text(
        encoding="utf-8"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    report = run(
        scenario,
        regime=Regime(args.regime),
        schedule=RateSchedule(args.rates),
        window=NettingWindow(args.window),
    )
    fmt = _check_format(args.format)
    if fmt == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    elif fmt == "csv":
        sys.stdout.write(_render_run_csv(report))
    else:
        sys.stdout.write(_render_run_table(report))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    report = compare(
        scenario, schedule=RateSchedule(args.rates), window=NettingWindow(args.window)
    )
    fmt = _check_format(args.format)
    if fmt == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    elif fmt == "csv":
        sys.stdout.write(_render_compare_csv(report))
    else:
        sys.stdout.write(_render_compare_table(report))
    return EXIT_OK


def _cmd_paper_tables(_args: argparse.Namespace) -> int:
    sys.stdout.write(paper_tables())
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    fmt = _check_format(args.format)
    if fmt == "json":
        import json

        print(json.dumps(_grid_dict(), indent=2))
    elif fmt == "csv":
        sys.stdout.write(_render_grid_csv())
    else:
        sys.stdout.write(_render_grid_table())
    return EXIT_OK


def _cmd_check(_args: argparse.Namespace) -> int:
    expected = _fixture_text()
    first = paper_tables()
    second = paper_tables()
    failed = False
    if first != expected:
        print("check: paper tables do not match the checked-in fixture", file=sys.stderr)
        for i, (got, want) in enumerate(zip(first.splitlines(), expected.splitlines()), start=1):
            if got != want:
                print(f"  first difference at line {i}:", file=sys.stderr)
                print(f"    fixture: {want}", file=sys.stderr)
                print(f"    got:     {got}", file=sys.stderr)
                break
        failed = True
    else:
        print("check: paper tables match the checked-in fixture")
    if first != second:
        print("check: paper tables are not deterministic across runs", file=sys.stderr)
        failed = True
    else:
        print("check: repeated rendering is byte-identical")
    return EXIT_MISMATCH if failed else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="realize",
        description="Simulate capital-gains-tax realization for ordinary and short sales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, with_regime: bool) -> None:
        if with_regime:
            p.add_argument("--regime", choices=[r.value for r in Regime], default="current")
        p.add_argument("--rates", choices=[s.value for s in RateSchedule], default="paper")
        p.add_argument("--window", choices=[w.value for w in NettingWindow], default="per-tick")
        p.add_argument("--format", default=_default_format(),
                       help="table, csv, or json (default from REALIZE_FORMAT)")

    p_run = sub.add_parser("run", help="run one scenario under one regime")
    p_run.add_argument("scenario", help="built-in name or scenario file path")
    add_common(p_run, with_regime=True)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run both regimes side by side")
    p_cmp.add_argument("scenario", help="built-in name or scenario file path")
    add_common(p_cmp, with_regime=False)
    p_cmp.set_defaults(func=_cmd_compare)

    p_tables = sub.add_parser("paper-tables", help="print every golden table")
    p_tables.set_defaults(func=_cmd_paper_tables)

    p_grid = sub.add_parser("grid", help="print the offsetting-effect grid")
    p_grid.add_argument("--format", default=_default_format(),
                        help="table, csv, or json (default from REALIZE_FORMAT)")
    p_grid.set_defaults(func=_cmd_grid)

    p_check = sub.add_parser("check", help="diff golden tables against the fixture")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except EngineError as err:
        index = getattr(err, "event_index", None)
        where = f" (event {index})" if index is not None else ""
        print(f"realize: error{where}: {err}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
