"""Command-line front end.

Subcommands: ``run``, ``compare``, ``paper-tables``, ``grid``, ``check``.
Exit codes are a stable scripting contract: 0 success, 1 golden-suite
mismatch from ``check``, 2 scenario or parse errors and output that cannot
be written (a closed pipe, a full disk), 64 usage errors.
The REALIZE_FORMAT environment variable overrides the default output format.

Each call is a fresh interpreter, so what only one command needs (the golden tables, the DSL, ``csv``, the
fixture reader) is imported inside it.  A well-formed argv is read straight from ``_COMMANDS``; ``argparse``
loads, with its parser built from the same table, only for any other argv: help, usage errors,
abbreviations.
Reports are written from their columns; JSON is ``json.dumps(to_dict(), indent=2)`` to the byte, and ``json``
loads only for a string that must be escaped.
"""

from __future__ import annotations

import io
import os
import sys
from functools import partial
from types import SimpleNamespace

from .errors import EngineError, UnreadableScenario
from .market import pesos
from .realization import Regime
from .scenario import (
    BUILTIN_NAMES,
    ComparisonReport,
    RunReport,
    Scenario,
    _columns,
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


def _load_scenario(target: str) -> tuple[Scenario, str | None]:
    if target in BUILTIN_NAMES:
        return builtin(target), None
    shown = target if target.isprintable() and target.strip() else repr(target)  # quote escapes, bad bytes, blanks
    if not os.path.exists(target):
        raise EngineError(f"no such file or built-in scenario: {shown}")
    try:
        with open(target, encoding="utf-8") as f:
            text = f.read().removeprefix("\ufeff")  # a byte-order mark is no token; offsets count it
    except UnicodeDecodeError as err:
        raise UnreadableScenario(f"{shown}: not UTF-8 text (bad byte at offset {err.start})") from None
    except OSError as err:
        raise UnreadableScenario(f"{shown}: {err.strerror or err}") from None
    name = os.path.basename(target)
    dot = name.rfind(".")
    return parse_scenario(text, name=name[:dot] if 0 < dot < len(name) - 1 else name), text  # Path.stem


def _from_text(text: str | None, call, *args):
    """``call(*args)``, with an error at an event read from ``text`` placed at that event's first token, as a
    parse error is (the parser's event lines are read again only then); a built-in's keeps its index."""
    try:
        return call(*args)
    except EngineError as err:
        if text is None or getattr(err, "event_index", None) is None:
            raise
        from .dsl import _col, _lines, _parse

        line = _parse(text, "")[1][err.event_index]
        raise EngineError(str(err), line, _col(_lines(text)[line - 1], 0)) from None


_peso = partial(pesos, symbol=PESO)


def _cells(column: list, text) -> list[str]:
    """``column`` with every value replaced by ``text(value)``, each distinct value converted once per call."""
    memo = {value: text(value) for value in set(column)}
    return list(map(memo.__getitem__, column))


def _priced(ticks: list, *amounts: list) -> list[list[str]]:
    """A tick column and columns of centavos as table cells."""
    return [_cells(ticks, str), *(_cells(column, _peso) for column in amounts)]


def _layout(header: tuple[str, ...], columns: list[list[str]], empty: str = "") -> list[str]:
    """The header over the rows of ``columns``, each right-aligned to its widest cell, two spaces apart, or
    ``empty`` if there are no rows.  Only the header is stripped: a data row ends in a peso, never blank."""
    if not columns[0]:
        return [f"  {empty}"]
    line = "  ".join(f"%{max(len(h), *map(len, c))}s" for h, c in zip(header, columns))
    return [(line % header).rstrip(), *map(line.__mod__, zip(*columns))]


def _render_run_table(report: RunReport) -> str:
    (ticks, kinds, secs, qtys, *amounts), taxes, cash = _columns(report)
    events = [_cells(ticks, str), kinds, secs, _cells(qtys, "{:,}".format), *(_cells(c, _peso) for c in amounts)]
    inv = report.inventory
    owned = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.owned) or "none"
    borrowed = ", ".join(f"{sec}:{qty:,}" for sec, qty in inv.borrowed_outstanding) or "none"
    lines = [
        f"scenario: {report.scenario}   regime: {report.regime.value}   "
        f"rates: {report.schedule.value}   window: {report.window.value}",
        "",
        "REALIZATION EVENTS",
        *_layout(("tick", "kind", "security", "qty", "amount/sh", "basis/sh", "gain/sh", "gain total"),
                 events, "(none)"),
        "",
        "TAX TIMELINE",
        *_layout(("tick", "net capital gain", "tax due"), _priced(*taxes), "(no realization, no tax)"),
        "",
        "CASH TIMELINE (PRE-TAX)",
        *_layout(("tick", "delta", "cumulative"), _priced(*cash), "(no cash movement)"),
        "",
        "TOTALS",
        f"  total tax:      {_peso(report.total_tax.centavos)}",
        f"  final cash:     {_peso(report.final_cash.centavos)}",
        f"  owned shares:   {owned}",
        f"  open borrows:   {borrowed}",
        f"  owner generation: {inv.owner_generation}",
    ]
    return "\n".join(lines) + "\n"


def _csv_cell(symbol: str) -> str:
    """A symbol, any ``\\S+`` token, as ``csv.writer`` writes it; ``csv`` loads only for one it must quote."""
    if "," not in symbol and '"' not in symbol and "\n" not in symbol and "\r" not in symbol:
        return symbol
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([symbol])
    return buf.getvalue()[:-1]


def _render_run_csv(report: RunReport) -> str:
    (ticks, kinds, secs, *rest), taxes, cash = _columns(report)
    return "".join((
        "record,tick,kind,security,qty,amount_per_share,basis_per_share,gain_per_share,gain_total,"
        "net_capital_gain,tax_due,cash_delta,cash_cumulative\n",
        *map("event,%s,%s,%s,%s,%s,%s,%s,%s,,,,\n".__mod__, zip(ticks, kinds, _cells(secs, _csv_cell), *rest)),
        *map("tax,%s,,,,,,,,%s,%s,,\n".__mod__, zip(*taxes)),
        *map("cash,%s,,,,,,,,,,%s,%s\n".__mod__, zip(*cash)),
        f"total,,,,,,,,,,{report.total_tax.centavos},,{report.final_cash.centavos}\n",
    ))


def _json_list(pad: str, keys: tuple[str, ...], rows) -> str:
    """Rows of ints and escaped strings as ``json.dumps(indent=2)`` writes a list of objects nested at ``pad``."""
    fields = ",\n".join(f'{pad}    "{key}": %s' for key in keys)
    body = ",\n".join(map(f"{pad}  {{\n{fields}\n{pad}  }}".__mod__, rows))
    return f"[\n{body}\n{pad}]" if body else "[]"


def _json_str(s: str) -> str:
    """``s`` as ``json.dumps`` writes it; ``json`` loads only for a string it escapes (not printable ASCII, or
    holding ``"`` or ``\\``), as ``_csv_cell`` loads ``csv``."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(s)


def _json_object(pad: str, fields: dict) -> str:
    """``fields`` as ``json.dumps(indent=2)`` writes a dict nested at ``pad``; values are ints or written text."""
    body = ",\n".join(f"{pad}  {_json_str(key)}: {value}" for key, value in fields.items())
    return f"{{\n{body}\n{pad}}}" if body else "{}"


def _render_run_json(report: RunReport, pad: str = "") -> str:
    """``json.dumps(report.to_dict(), indent=2)``, written from the report's columns, nested at ``pad``."""
    (ticks, kinds, secs, *rest), taxes, cash = _columns(report)
    events = zip(ticks, _cells(kinds, _json_str), _cells(secs, _json_str), *rest)
    p, pp, ppp = pad + "  ", pad + "    ", pad + "      "
    inv = report.inventory
    inventory = {
        "owned": _json_object(ppp, dict(inv.owned)),
        "borrowed_outstanding": _json_object(ppp, dict(inv.borrowed_outstanding)),
        "owner_generation": inv.owner_generation,
    }
    totals = {"total_tax": report.total_tax.centavos, "final_cash": report.final_cash.centavos,
              "inventory": _json_object(pp, inventory)}
    return _json_object(pad, {
        "scenario": _json_str(report.scenario), "regime": _json_str(report.regime.value),
        "schedule": _json_str(report.schedule.value), "window": _json_str(report.window.value),
        "events": _json_list(p, ("tick", "kind", "security", "qty", "amount_realized_per_share", "basis_per_share",
                                 "gain_per_share", "gain_total"), events),
        "tax": _json_list(p, ("tick", "net_capital_gain", "tax_due"), zip(*taxes)),
        "cash": _json_list(p, ("tick", "delta", "cumulative"), zip(*cash)),
        "totals": _json_object(p, totals),
    })


def _compare_rows(report: ComparisonReport) -> list[tuple]:
    """(tick, current tax, proposed tax, delta) in centavos, per tick and then the totals."""
    totals = report.current.total_tax, report.proposed.total_tax, report.total_delta
    rows = [(d.at, d.current_tax.centavos, d.proposed_tax.centavos, d.delta.centavos) for d in report.tax_deltas]
    return [*rows, ("total", *(m.centavos for m in totals))]


def _render_compare_table(report: ComparisonReport) -> str:
    lines = [
        f"scenario: {report.scenario}   rates: {report.schedule.value}   window: {report.window.value}",
        "",
        "TAX BY TICK (CURRENT VS PROPOSED)",
        *_layout(("tick", "current tax", "proposed tax", "delta"), _priced(*zip(*_compare_rows(report)))),
        "",
        *(f"{label} total tax {_peso(r.total_tax.centavos)}, final cash {_peso(r.final_cash.centavos)}"
          for label, r in (("current regime: ", report.current), ("proposed regime:", report.proposed))),
    ]
    return "\n".join(lines) + "\n"


def _render_compare_csv(report: ComparisonReport) -> str:
    return "tick,current_tax,proposed_tax,delta\n" + "".join(map("%s,%s,%s,%s\n".__mod__, _compare_rows(report)))


def _render_compare_json(report: ComparisonReport) -> str:
    """``json.dumps(report.to_dict(), indent=2)``, written from the report."""
    return _json_object("", {
        "scenario": _json_str(report.scenario), "schedule": _json_str(report.schedule.value),
        "window": _json_str(report.window.value),
        "current": _render_run_json(report.current, "  "), "proposed": _render_run_json(report.proposed, "  "),
        "deltas": _json_list("  ", ("tick", "current_tax", "proposed_tax", "delta"), _compare_rows(report)[:-1]),
        "total_delta": report.total_delta.centavos,
    })


_GRID_KEYS = ("future_price", "present_price", "ordinary_gain_per_share", "short_gain_per_share")


def _grid_rows() -> list[tuple[int, ...]]:
    return [tuple(getattr(row, key).centavos for key in _GRID_KEYS) for row in offset_grid_rows()]


def _render_grid_table() -> str:
    from .tables import offset_grid_table

    return "\n".join(offset_grid_table()) + "\n"


def _render_grid_csv() -> str:
    return ",".join(_GRID_KEYS) + "\n" + "".join(map("%s,%s,%s,%s\n".__mod__, _grid_rows()))


def _render_grid_json() -> str:
    return _json_list("", _GRID_KEYS, _grid_rows())


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


def _too_long(*reports) -> None:
    """Raise ``EngineError`` at the tick of the first event, tax line or cash point of ``reports`` holding an
    int of more digits than ``int()`` writes; return if there is none."""
    from .dsl import _max_digits

    bound = 10 ** limit if (limit := _max_digits()) else float("inf")
    for report in reports:
        for r in (report.current, report.proposed) if isinstance(report, ComparisonReport) else (report,):
            for group in _columns(r):
                for tick, *row in zip(*group):
                    if any(type(v) is int and abs(v) >= bound for v in row):
                        raise EngineError(f"a figure at tick {tick} has more than {limit:,} digits to print")


def _emit(fmt: str, render_json, render_csv, render_table, *args) -> int:
    """Print ``render_json(*args)``, ``render_csv(*args)`` or ``render_table(*args)``, as ``fmt`` asks."""
    try:
        text = (render_json if fmt == "json" else render_csv if fmt == "csv" else render_table)(*args)
    except ValueError:
        _too_long(*args)
        raise
    sys.stdout.write(text + "\n" if fmt == "json" else text)
    return EXIT_OK


def _cmd_run(args: SimpleNamespace) -> int:
    scenario, text = _load_scenario(args.scenario)
    report = _from_text(text, run, scenario, Regime(args.regime), RateSchedule(args.rates), NettingWindow(args.window))
    return _emit(args.format, _render_run_json, _render_run_csv, _render_run_table, report)


def _cmd_compare(args: SimpleNamespace) -> int:
    scenario, text = _load_scenario(args.scenario)
    report = _from_text(text, compare, scenario, RateSchedule(args.rates), NettingWindow(args.window))
    return _emit(args.format, _render_compare_json, _render_compare_csv, _render_compare_table, report)


def _cmd_paper_tables(_args: SimpleNamespace) -> int:
    sys.stdout.write(paper_tables())
    return EXIT_OK


def _cmd_grid(args: SimpleNamespace) -> int:
    return _emit(args.format, _render_grid_json, _render_grid_csv, _render_grid_table)


def _cmd_check(_args: SimpleNamespace) -> int:
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


# Each option: its flag, its choices (None: any value, which ``main`` checks), its default and its help line.
_REGIME = ("--regime", tuple(r.value for r in Regime), "current", None)
_RATES = ("--rates", tuple(s.value for s in RateSchedule), "paper", None)
_WINDOW = ("--window", tuple(w.value for w in NettingWindow), "per-tick", None)
_FORMAT = ("--format", None, "table", "table, csv, or json (default from REALIZE_FORMAT)")
_SCENARIO = ("scenario", "built-in name or scenario file path")

# Each subcommand, in usage order: its help line, its function, its one positional (name, help) or None, and
# its options.
_COMMANDS = {
    "run": ("run one scenario under one regime", _cmd_run, _SCENARIO, (_REGIME, _RATES, _WINDOW, _FORMAT)),
    "compare": ("run both regimes side by side", _cmd_compare, _SCENARIO, (_RATES, _WINDOW, _FORMAT)),
    "paper-tables": ("print every golden table", _cmd_paper_tables, None, ()),
    "grid": ("print the offsetting-effect grid", _cmd_grid, None, (_FORMAT,)),
    "check": ("diff golden tables against the fixture", _cmd_check, None, ()),
}


def _defaults(options: tuple) -> dict[str, str]:
    """Each option's value where argv does not give one; ``--format``'s is REALIZE_FORMAT, where that is set."""
    return {flag[2:]: os.environ.get("REALIZE_FORMAT", default) if flag == "--format" else default
            for flag, _, default, _ in options}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser`` parses ``argv`` to, read from ``_COMMANDS`` where ``argv`` is the subcommand, its one
    positional if it takes one, and exact options, ``--opt value`` or ``--opt=value``, each value among its choices;
    else ``None`` (help, ``--``, abbreviations, dash-led or empty tokens ...), for argparse to parse or refuse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, positional, options = _COMMANDS[argv[0]]
    choices = {flag: allowed for flag, allowed, _, _ in options}
    values = {"command": argv[0], **_defaults(options)}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, eq, value = token.partition("=")
            value = value if eq else next(tokens, "")
            if flag not in choices or value[:1] in ("", "-") or (choices[flag] and value not in choices[flag]):
                return None
            values[flag[2:]] = value  # a repeated option: the last value, as argparse keeps
        elif token and positional and positional[0] not in values:
            values[positional[0]] = token
        else:
            return None
    return SimpleNamespace(**values, func=func) if not positional or positional[0] in values else None


def build_parser():
    """The parser of every subcommand, built from ``_COMMANDS``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # noqa: D102 - argparse hook
            self.print_usage(sys.stderr)
            shown = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)  # argv echoed, escaped
            print(f"{self.prog}: error: {shown}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = _Parser(prog="realize", description="Simulate capital-gains-tax realization for ordinary and short sales.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positional, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if positional:
            p.add_argument(positional[0], help=positional[1])
        defaults = _defaults(options)
        for flag, choices, _, line in options:
            p.add_argument(flag, choices=choices, default=defaults[flag[2:]], help=line)
        p.set_defaults(func=func)
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv)
        if args is None:  # argparse loads only here
            args = build_parser().parse_args(argv, SimpleNamespace())
        if "format" in vars(args) and args.format not in FORMATS:  # reported before any scenario is read
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
