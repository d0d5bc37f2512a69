"""Command-line front end.

Subcommands: ``run``, ``compare``, ``paper-tables``, ``grid``, ``check``.
Exit codes are a stable scripting contract: 0 success, 1 golden-suite
mismatch from ``check``, 2 scenario or parse errors and output that cannot
be written (a closed pipe, a full disk), 64 usage errors.
The REALIZE_FORMAT environment variable overrides the default output format.

Each call is a fresh interpreter, so what only one command needs (the
golden tables, ``json``, ``csv``, the fixture reader) is imported inside it.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .errors import EngineError, UnreadableScenario
from .market import pesos
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
from .taxation import NettingWindow, RateSchedule

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SCENARIO_ERROR = 2
EXIT_USAGE = 64

FORMATS = ("table", "csv", "json")
PESO = "₱"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _layout(rows: list[tuple[str, ...]]) -> list[str]:
    """Right-align every column to its widest cell, two spaces apart."""
    line = "  ".join(f"{{:>{max(map(len, column))}}}" for column in zip(*rows)).format
    return [line(*r).rstrip() for r in rows]


def _load_scenario(target: str) -> Scenario:
    if target in BUILTIN_NAMES:
        return builtin(target)
    if not os.path.exists(target):
        raise EngineError(f"no such file or built-in scenario: {target}")
    try:
        with open(target, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as err:
        raise UnreadableScenario(f"{target}: not UTF-8 text (bad byte at offset {err.start})") from None
    except OSError as err:
        raise UnreadableScenario(f"{target}: {err.strerror or err}") from None
    name = os.path.basename(target)
    dot = name.rfind(".")
    return parse_scenario(text, name=name[:dot] if 0 < dot < len(name) - 1 else name)  # Path.stem


def _section(title: str, header: tuple[str, ...], rows: list[tuple[str, ...]], empty: str) -> list[str]:
    """A blank line, the title, then the rows laid out under the header, or ``empty`` if there are none."""
    return ["", title, *(_layout([header, *rows]) if rows else [f"  {empty}"])]


def _csv(*groups) -> str:
    """Each group of rows in turn as CSV; a generator group is written row by row, never held."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for rows in groups:
        writer.writerows(rows)
    return buf.getvalue()


def _render_run_table(report: RunReport) -> str:
    events = []
    for e in report.events:
        gain_per_share, gain_total = e.gain_centavos
        events.append((
            str(e.at), e.kind.value, e.sec, f"{e.qty:,}",
            pesos(e.amount_realized_per_share.centavos, symbol=PESO),
            pesos(e.basis_per_share.centavos, symbol=PESO),
            pesos(gain_per_share, symbol=PESO),
            pesos(gain_total, symbol=PESO),
        ))
    taxes = [
        (str(t.period), pesos(t.net_capital_gain.centavos, symbol=PESO), pesos(t.tax_due.centavos, symbol=PESO))
        for t in report.tax_lines
    ]
    cash = [
        (str(p.at), pesos(p.delta.centavos, symbol=PESO), pesos(p.cumulative.centavos, symbol=PESO))
        for p in report.cash_timeline
    ]
    inv = report.inventory
    owned = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.owned) or "none"
    borrowed = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.borrowed_outstanding) or "none"
    lines = [
        f"scenario: {report.scenario}   regime: {report.regime.value}   "
        f"rates: {report.schedule.value}   window: {report.window.value}",
        *_section(
            "REALIZATION EVENTS",
            ("tick", "kind", "security", "qty", "amount/sh", "basis/sh", "gain/sh", "gain total"),
            events,
            "(none)",
        ),
        *_section("TAX TIMELINE", ("tick", "net capital gain", "tax due"), taxes, "(no realization, no tax)"),
        *_section("CASH TIMELINE (PRE-TAX)", ("tick", "delta", "cumulative"), cash, "(no cash movement)"),
        "",
        "TOTALS",
        f"  total tax:      {pesos(report.total_tax.centavos, symbol=PESO)}",
        f"  final cash:     {pesos(report.final_cash.centavos, symbol=PESO)}",
        f"  owned shares:   {owned}",
        f"  open borrows:   {borrowed}",
        f"  owner generation: {inv.owner_generation}",
    ]
    return "\n".join(lines) + "\n"


def _render_run_csv(report: RunReport) -> str:
    header = [
        "record", "tick", "kind", "security", "qty",
        "amount_per_share", "basis_per_share", "gain_per_share", "gain_total",
        "net_capital_gain", "tax_due", "cash_delta", "cash_cumulative",
    ]
    events = (
        ["event", e.at, e.kind.value, e.sec, e.qty,
         e.amount_realized_per_share.centavos, e.basis_per_share.centavos,
         *e.gain_centavos, "", "", "", ""]
        for e in report.events
    )
    taxes = (
        ["tax", t.period, "", "", "", "", "", "", "",
         t.net_capital_gain.centavos, t.tax_due.centavos, "", ""]
        for t in report.tax_lines
    )
    cash = (
        ["cash", p.at, "", "", "", "", "", "", "", "", "", p.delta.centavos, p.cumulative.centavos]
        for p in report.cash_timeline
    )
    total = ["total", "", "", "", "", "", "", "", "", "", report.total_tax.centavos, "", report.final_cash.centavos]
    return _csv([header], events, taxes, cash, [total])


def _compare_rows(report: ComparisonReport) -> list[tuple]:
    """(tick, current tax, proposed tax, delta) in centavos, per tick and then the totals."""
    totals = report.current.total_tax, report.proposed.total_tax, report.total_delta
    rows = [(d.at, d.current_tax.centavos, d.proposed_tax.centavos, d.delta.centavos) for d in report.tax_deltas]
    return [*rows, ("total", *(m.centavos for m in totals))]


def _render_compare_table(report: ComparisonReport) -> str:
    rows = [("tick", "current tax", "proposed tax", "delta")]
    rows += [(str(tick), *(pesos(c, symbol=PESO) for c in taxes)) for tick, *taxes in _compare_rows(report)]
    lines = [
        f"scenario: {report.scenario}   rates: {report.schedule.value}   "
        f"window: {report.window.value}",
        "",
        "TAX BY TICK (CURRENT VS PROPOSED)",
        *_layout(rows),
        "",
    ]
    for label, run_report in (("current regime: ", report.current), ("proposed regime:", report.proposed)):
        lines.append(
            f"{label} total tax {pesos(run_report.total_tax.centavos, symbol=PESO)}, "
            f"final cash {pesos(run_report.final_cash.centavos, symbol=PESO)}"
        )
    return "\n".join(lines) + "\n"


def _render_compare_csv(report: ComparisonReport) -> str:
    return _csv([("tick", "current_tax", "proposed_tax", "delta")], _compare_rows(report))


def _render_grid_table() -> str:
    from .tables import offset_grid_table

    return "\n".join(offset_grid_table()) + "\n"


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


def _render_grid_csv() -> str:
    rows = _grid_dict()
    return _csv([list(rows[0])], (row.values() for row in rows))


def _fixture_text() -> str:
    from importlib import resources

    fixture = resources.files("realize").joinpath("fixtures/paper_tables.txt")
    try:
        return fixture.read_text(encoding="utf-8")
    except OSError as err:  # here, not in main, where an OSError means stdout failed
        raise EngineError(f"cannot read the golden fixture: {err.strerror or err}") from None


def paper_tables() -> str:
    """Every golden table, rendered by ``realize.tables``, which loads on this first call."""
    from .tables import paper_tables as render

    return render()


def _emit(fmt: str, data, render_csv, render_table) -> int:
    """Print ``data()`` as indented JSON, ``render_csv()`` or ``render_table()``, as ``fmt`` asks."""
    if fmt == "json":
        import json

        print(json.dumps(data(), indent=2))
    elif fmt == "csv":
        sys.stdout.write(render_csv())
    else:
        sys.stdout.write(render_table())
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    report = run(
        _load_scenario(args.scenario),
        regime=Regime(args.regime),
        schedule=RateSchedule(args.rates),
        window=NettingWindow(args.window),
    )
    return _emit(
        args.format, report.to_dict, lambda: _render_run_csv(report), lambda: _render_run_table(report)
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare(
        _load_scenario(args.scenario), schedule=RateSchedule(args.rates), window=NettingWindow(args.window)
    )
    return _emit(
        args.format, report.to_dict, lambda: _render_compare_csv(report), lambda: _render_compare_table(report)
    )


def _cmd_paper_tables(_args: argparse.Namespace) -> int:
    sys.stdout.write(paper_tables())
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    return _emit(args.format, _grid_dict, _render_grid_csv, _render_grid_table)


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

    def add_format(p: _Parser) -> None:
        p.add_argument("--format", default=os.environ.get("REALIZE_FORMAT", "table"),
                       help="table, csv, or json (default from REALIZE_FORMAT)")

    def add_common(p: _Parser, with_regime: bool) -> None:
        if with_regime:
            p.add_argument("--regime", choices=[r.value for r in Regime], default="current")
        p.add_argument("--rates", choices=[s.value for s in RateSchedule], default="paper")
        p.add_argument("--window", choices=[w.value for w in NettingWindow], default="per-tick")
        add_format(p)

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
    add_format(p_grid)
    p_grid.set_defaults(func=_cmd_grid)

    p_check = sub.add_parser("check", help="diff golden tables against the fixture")
    p_check.set_defaults(func=_cmd_check)

    return parser


def _unwritable(err: OSError) -> int:
    """Report a failed write to stdout once; what stdout still holds goes to the null device."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())  # so the interpreter's exit flush cannot fail again
    os.close(devnull)
    if not isinstance(err, BrokenPipeError):  # a closed pipe is the reader's choice, not an error
        print(f"realize: error: cannot write output: {err.strerror or err}", file=sys.stderr)
    return EXIT_SCENARIO_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "format" in args and args.format not in FORMATS:  # reported before any scenario is read
            print(f"realize: error: unknown format {args.format!r} (choose from {', '.join(FORMATS)})",
                  file=sys.stderr)
            return EXIT_USAGE
        code = args.func(args)
        sys.stdout.flush()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except EngineError as err:
        index = getattr(err, "event_index", None)
        where = f" (event {index})" if index is not None else ""
        print(f"realize: error{where}: {err}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    except OSError as err:
        return _unwritable(err)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
