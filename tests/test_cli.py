"""Command-line contract: subcommands, formats, and exit codes."""

import ast
import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realize
from realize import cli


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tokens(line):
    return line.split()


GAIN_LABELS = ("Price", "Basis", "Gain", "Tax")  # a fourth label, for the tax, makes ``_event_table`` a gain table


class TestRun:
    def test_strategy3_current_table(self, capsys):
        code, out, _ = invoke(capsys, "run", "strategy3", "--regime", "current", "--rates", "paper")
        assert code == 0
        assert "total tax:      ₱500,000.00" in out

    def test_strategy3_proposed_total(self, capsys):
        code, out, _ = invoke(capsys, "run", "strategy3", "--regime", "proposed", "--rates", "paper")
        assert code == 0
        assert "total tax:      ₱1,200,000.00" in out

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "run", "missing.scn")
        assert code == 2
        assert "no such file" in err

    def test_directory_exits_2_with_one_line(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "run", str(tmp_path))
        assert code == 2
        assert err.count("\n") == 1
        assert "Is a directory" in err and "Traceback" not in err

    def test_non_utf8_file_exits_2_with_one_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.scn"
        path.write_bytes("price ABC 1 50\n# caf\u00e9\n".encode("latin-1"))
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2
        assert err.count("\n") == 1
        assert "not UTF-8" in err and "offset 20" in err

    # The file's name is the scenario's: an escape or a bad byte in it used to reach the table header raw.
    @pytest.mark.parametrize("name", [b"esc\x1b[1m.scn", b"bad\xff.scn"], ids=["escape", "bad-byte"])
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_a_file_name_that_is_not_printable_exits_2_with_one_line(self, capsys, tmp_path, name, fmt):
        path = os.path.join(os.fsencode(tmp_path), name)
        with open(path, "wb") as f:
            f.write(b"price A 1 10\nat 1 buy A 5\n")
        code, out, err = invoke(capsys, "run", os.fsdecode(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("realize: error: scenario name must be printable, got ") and err.count("\n") == 1

    # A path in an error used to reach the terminal raw; a printable one is written as it is.
    @pytest.mark.parametrize("name, shown", [
        ("plain.scn", "{dir}/plain.scn"),
        ("esc\x1b[1m.scn", "'{dir}/esc\\x1b[1m.scn'"),
        ("bad\udcff.scn", "'{dir}/bad\\udcff.scn'"),
    ], ids=["printable", "escape", "bad-byte"])
    def test_a_path_that_is_not_printable_is_escaped_in_its_errors(self, capsys, tmp_path, name, shown):
        path, shown = os.path.join(str(tmp_path), name), shown.format(dir=tmp_path)
        missing = f"realize: error: no such file or built-in scenario: {shown}\n"
        assert invoke(capsys, "run", path) == (2, "", missing)
        with open(os.fsencode(path), "wb") as f:
            f.write(b"price A 1 10\n# caf\xe9\n")
        not_utf8 = f"realize: error: {shown}: not UTF-8 text (bad byte at offset 18)\n"
        assert invoke(capsys, "run", path) == (2, "", not_utf8)

    # An empty or blank path used to leave nothing to read after the colon; "" reaches argparse, " " does not.
    @pytest.mark.parametrize("path", ["", " "], ids=["empty", "blank"])
    def test_an_empty_or_blank_path_is_quoted_in_its_error(self, capsys, monkeypatch, tmp_path, path):
        monkeypatch.chdir(tmp_path)
        assert invoke(capsys, "run", path) == (2, "", f"realize: error: no such file or built-in scenario: {path!r}\n")

    def test_a_bad_byte_after_a_byte_order_mark_is_named_by_its_file_offset(self, capsys, tmp_path):
        path = tmp_path / "latin1.scn"
        path.write_bytes(b"\xef\xbb\xbf" + "price ABC 1 50\n# caf\u00e9\n".encode("latin-1"))
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2 and "offset 23" in err

    @pytest.mark.parametrize("text", ["price ZZZ 1 10\nat 1 buy ZZZ 5\n", "# own\r\nprice ZZZ 1 10\r\n"])
    @pytest.mark.parametrize("argv", [("run",), ("run", "--format", "csv"), ("compare", "--format", "json")])
    def test_a_byte_order_mark_prints_what_its_bom_free_twin_prints(self, capsys, tmp_path, text, argv):
        # Some editors start UTF-8 files with U+FEFF; it used to be read as part of the first token.
        (tmp_path / "bom").mkdir()
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom" / "own.scn").write_bytes(b"\xef\xbb\xbf" + text.encode())
        (tmp_path / "plain" / "own.scn").write_bytes(text.encode())
        outputs = [invoke(capsys, argv[0], str(tmp_path / d / "own.scn"), *argv[1:]) for d in ("bom", "plain")]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "own.scn"
        path.write_text("price ZZZ 1 10\nprice ZZZ 2 25\nat 1 buy ZZZ 100\nat 2 sell ZZZ 100\n")
        code, out, _ = invoke(capsys, "run", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "own"
        assert report["totals"]["total_tax"] == 15000  # 10% of 1,500 pesos, in centavos

    @pytest.mark.parametrize("filename", ["own.scn", "own", ".scn", "own.", "own.v2.scn"])
    def test_file_scenario_is_named_by_the_file_stem(self, capsys, tmp_path, filename):
        path = tmp_path / filename
        path.write_text("price ZZZ 1 10\n")
        code, out, _ = invoke(capsys, "run", str(path), "--format", "json")
        assert (code, json.loads(out)["scenario"]) == (0, path.stem)

    def test_parse_error_exits_2_with_position(self, capsys, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("price ABC 1 50\nat 1 buy ABC -5\n")
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2
        assert "line 2" in err and "col" in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_control_character_exits_2_with_one_line(self, capsys, tmp_path, command):
        # An escape sequence in a symbol used to reach the terminal raw with exit 0.
        path = tmp_path / "hostile.scn"
        path.write_text("price A\x1b[2J 1 10\nat 1 buy A\x1b[2J 5\n")
        err = "realize: error: line 1, col 7: security symbol must be printable, got 'A\\x1b[2J'\n"
        assert invoke(capsys, command, str(path)) == (2, "", err)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
    @pytest.mark.parametrize("limit", [None, "640"], ids=["default-limit", "limit-640"])
    def test_a_number_longer_than_int_reads_exits_2_with_one_line(self, tmp_path, limit):
        # A 5,000-digit token used to end in int()'s ValueError traceback and exit 1.  The parser
        # follows the interpreter's limit, which PYTHONINTMAXSTRDIGITS can lower to 640.
        path = tmp_path / "long.scn"
        path.write_text("price A 1 10\nat 1 buy A " + "9" * 5000 + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(realize.__file__).resolve().parents[1])}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        env.update({"PYTHONINTMAXSTRDIGITS": limit} if limit else {})
        done = subprocess.run(
            [sys.executable, "-m", "realize", "run", str(path)], env=env, capture_output=True, text=True, timeout=60
        )
        digits = f"{int(limit or 4300):,}"
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"realize: error: line 2, col 12: share quantity has more than {digits} digits\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
    @pytest.mark.parametrize("argv", [("run",), ("run", "--format", "csv"), ("run", "--format", "json"), ("compare",)],
                             ids=["run-table", "run-csv", "run-json", "compare"])
    def test_a_figure_longer_than_int_writes_exits_2_with_one_line(self, capsys, tmp_path, argv):
        # Each number reads, but the gain and the cash are products of two: they used to end the
        # writers in int()'s ValueError traceback and exit 1.
        nines = "9" * (sys.get_int_max_str_digits() // 2 + 50)
        path = tmp_path / "long.scn"
        path.write_text(f"price A 1 {nines}\nprice A 2 1\nat 1 buy A {nines}\nat 2 sell A {nines}\n")
        digits = f"{sys.get_int_max_str_digits():,}"
        err = f"realize: error: a figure at tick 2 has more than {digits} digits to print\n"
        assert invoke(capsys, argv[0], str(path), *argv[1:]) == (2, "", err)

    def test_any_other_value_error_of_a_writer_is_not_taken_for_a_long_figure(self, monkeypatch):
        def broken(report):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(cli, "_render_run_table", broken)
        with pytest.raises(ValueError, match="not a digit limit"):
            cli.main(["run", "strategy3"])

    def test_runtime_error_reports_the_event_line(self, capsys, tmp_path):
        path = tmp_path / "oversell.scn"
        path.write_text("price ABC 1 50\nat 1 sell ABC 5\n")
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2
        assert err.startswith("realize: error: line 2, col 1: ")

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_an_event_error_names_the_events_line_and_first_token(self, capsys, tmp_path, command):
        # Event 1, the death, is on line 3: it re-bases the lot at a tick with no quote for A.
        path = tmp_path / "death.scn"
        path.write_text("price A 1 10\nat 1 buy A 5\nat 2 death\n")
        err = "realize: error: line 3, col 1: no quoted price for A at tick 2\n"
        assert invoke(capsys, command, str(path)) == (2, "", err)
        path.write_text("# a comment\nprice A 1 10\n\n   at 1 buy A 5  # an indented event\n\tat 1 sell A 9\n")
        err = "realize: error: line 5, col 2: need 9 shares of A, only 5 available\n"
        assert invoke(capsys, command, str(path)) == (2, "", err)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_form_feed_inside_a_line_keeps_every_error_on_its_line(self, capsys, tmp_path, command):
        path = tmp_path / "feed.scn"
        path.write_text("price A 1 10\f\nat 1 buy A 5\nat 1 bogus A 9\n", encoding="utf-8")
        err = "realize: error: line 3, col 6: unknown event verb 'bogus'\n"
        assert invoke(capsys, command, str(path)) == (2, "", err)
        # An error found by running the scenario is placed by the same line count.
        path.write_text("price A 1 10\f\nat 1 buy A 5\x85\n\u2028at 1 sell A 9\n", encoding="utf-8")
        err = "realize: error: line 3, col 2: need 9 shares of A, only 5 available\n"
        assert invoke(capsys, command, str(path)) == (2, "", err)

    def test_selling_reserved_shares_names_no_internal_class(self, capsys, tmp_path):
        path = tmp_path / "reserved.scn"
        path.write_text(
            "price ABC 1 50\nprice ABC 2 100\nprice ABC 3 90\nat 1 buy ABC 100\n"
            "at 2 borrow ABC 100\nat 2 short-sell ABC 100\nat 3 sell ABC 1\n"
        )
        code, out, err = invoke(capsys, "run", str(path), "--regime", "proposed")
        assert (code, out) == (2, "")
        assert err == "realize: error: line 7, col 1: need 1 shares of ABC, only 0 available\n"
        for name in ("Fifo", "SpecificId", "Plan", "LotPolicy", "ReservationBook"):
            assert name not in err

    def test_statutory_rates_flag(self, capsys):
        code, out, _ = invoke(capsys, "run", "strategy1", "--rates", "statutory", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["tax"][0]["tax_due"] == 495_000_00

    def test_whole_run_window(self, capsys):
        code, out, _ = invoke(
            capsys, "run", "proposed_demo", "--regime", "proposed", "--window", "whole-run",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["tax"]) == 1
        assert report["tax"][0]["net_capital_gain"] == 12_000_000_00

    def test_csv_and_json_carry_identical_centavos(self, capsys):
        code, json_out, _ = invoke(capsys, "run", "strategy3", "--format", "json")
        assert code == 0
        code, csv_out, _ = invoke(capsys, "run", "strategy3", "--format", "csv")
        assert code == 0
        report = json.loads(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        csv_events = [r for r in rows if r["record"] == "event"]
        assert [int(r["gain_total"]) for r in csv_events] == [
            e["gain_total"] for e in report["events"]
        ]
        csv_tax = [r for r in rows if r["record"] == "tax"]
        assert [int(r["tax_due"]) for r in csv_tax] == [t["tax_due"] for t in report["tax"]]
        csv_cash = [r for r in rows if r["record"] == "cash"]
        assert [int(r["cash_cumulative"]) for r in csv_cash] == [
            c["cumulative"] for c in report["cash"]
        ]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 64

    def test_bad_regime_value(self, capsys):
        code, _, _ = invoke(capsys, "run", "strategy3", "--regime", "sideways")
        assert code == 64

    def test_no_arguments(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 64

    def test_bad_format_value(self, capsys):
        code, _, _ = invoke(capsys, "run", "strategy3", "--format", "yaml")
        assert code == 64

    def test_invalid_format_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("REALIZE_FORMAT", "xml")
        code, _, _ = invoke(capsys, "run", "strategy3")
        assert code == 64

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_bad_format_is_reported_before_the_scenario_is_read(self, capsys, command):
        code, out, err = invoke(capsys, command, "missing.scn", "--format", "xml")
        assert (code, out) == (64, "")
        assert "unknown format 'xml'" in err and "no such file" not in err

    def test_bad_format_env_var_is_reported_before_the_scenario_is_read(self, capsys, monkeypatch):
        monkeypatch.setenv("REALIZE_FORMAT", "xml")
        code, out, err = invoke(capsys, "run", "missing.scn")
        assert (code, out) == (64, "")
        assert "unknown format 'xml'" in err and "no such file" not in err


USAGE = "usage: realize [-h] {run,compare,paper-tables,grid,check} ...\n"
RUN_USAGE = """\
usage: realize run [-h] [--regime {current,proposed}]
                   [--rates {paper,statutory}] [--window {per-tick,whole-run}]
                   [--format FORMAT]
                   scenario
"""
COMPARE_USAGE = """\
usage: realize compare [-h] [--rates {paper,statutory}]
                       [--window {per-tick,whole-run}] [--format FORMAT]
                       scenario
"""
SCENARIO_ARGUMENT = """
positional arguments:
  scenario              built-in name or scenario file path

options:
  -h, --help            show this help message and exit
"""
COMMON_OPTIONS = """\
  --rates {paper,statutory}
  --window {per-tick,whole-run}
  --format FORMAT       table, csv, or json (default from REALIZE_FORMAT)
"""

# argv -> (exit code, stdout, stderr) at an 80-column terminal.
HELP_AND_USAGE = {
    ("--help",): (0, USAGE + """
Simulate capital-gains-tax realization for ordinary and short sales.

positional arguments:
  {run,compare,paper-tables,grid,check}
    run                 run one scenario under one regime
    compare             run both regimes side by side
    paper-tables        print every golden table
    grid                print the offsetting-effect grid
    check               diff golden tables against the fixture

options:
  -h, --help            show this help message and exit
""", ""),
    ("run", "--help"): (0, RUN_USAGE + SCENARIO_ARGUMENT + "  --regime {current,proposed}\n" + COMMON_OPTIONS, ""),
    ("compare", "--help"): (0, COMPARE_USAGE + SCENARIO_ARGUMENT + COMMON_OPTIONS, ""),
    ("grid", "--help"): (0, """\
usage: realize grid [-h] [--format FORMAT]

options:
  -h, --help       show this help message and exit
  --format FORMAT  table, csv, or json (default from REALIZE_FORMAT)
""", ""),
    (): (64, "", USAGE + "realize: error: the following arguments are required: command\n"),
    ("bogus",): (64, "", USAGE + "realize: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'run', 'compare', 'paper-tables', 'grid', 'check')\n"),
    ("run",): (64, "", RUN_USAGE + "realize run: error: the following arguments are required: scenario\n"),
    ("compare", "strategy3", "--rates", "bogus"): (64, "", COMPARE_USAGE + "realize compare: error: argument --rates: "
                                                   "invalid choice: 'bogus' (choose from 'paper', 'statutory')\n"),
    ("run", "strategy3", "--format", "xml"): (64, "", "realize: error: unknown format 'xml' "
                                              "(choose from table, csv, json)\n"),
    # An argument no subcommand takes is the top-level parser's error, under its usage of every subcommand.
    ("compare", "strategy3", "extra"): (64, "", USAGE + "realize: error: unrecognized arguments: extra\n"),
}


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=[" ".join(argv) or "no-arguments" for argv in HELP_AND_USAGE])
def test_help_and_usage_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("REALIZE_FORMAT", raising=False)
    assert invoke(capsys, *argv) == HELP_AND_USAGE[argv]


class TestFormatEnvVar:
    def test_env_var_sets_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("REALIZE_FORMAT", "json")
        code, out, _ = invoke(capsys, "run", "strategy3")
        assert code == 0
        assert json.loads(out)["regime"] == "current"

    def test_flag_overrides_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("REALIZE_FORMAT", "json")
        code, out, _ = invoke(capsys, "run", "strategy3", "--format", "table")
        assert code == 0
        assert "REALIZATION EVENTS" in out


class TestCompare:
    def test_strategy3(self, capsys):
        code, out, _ = invoke(capsys, "compare", "strategy3")
        assert code == 0
        assert "₱1,200,000.00" in out and "₱500,000.00" in out

    def test_strategy1_zero_delta_column(self, capsys):
        code, out, _ = invoke(capsys, "compare", "strategy1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(int(r["delta"]) == 0 for r in rows)

    def test_death_avoidance(self, capsys):
        code, out, _ = invoke(capsys, "compare", "death_avoidance", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["current"]["totals"]["total_tax"] == 0
        assert report["proposed"]["totals"]["total_tax"] == 500_000_00
        t2 = next(d for d in report["deltas"] if d["tick"] == 2)
        assert t2["proposed_tax"] == 500_000_00

    def test_a_with_owned_cover_of_a_naked_position_runs_under_both_regimes(self, capsys, tmp_path):
        # The only owned share is reserved against the second short sale; the cover delivers it.
        path = tmp_path / "naked_first.scn"
        path.write_text(
            "".join(f"price A {t} {p}\n" for t, p in enumerate((10, 17, 6, 13, 9), start=1))
            + "at 1 borrow A 2\nat 2 short-sell A 1\nat 3 buy A 1\nat 4 short-sell A 1\nat 5 cover A 1 with-owned\n",
            encoding="utf-8",
        )
        code, out, err = invoke(capsys, "compare", str(path), "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert [report[r]["totals"]["total_tax"] for r in ("current", "proposed")] == [110, 150]
        assert [e["kind"] for e in report["proposed"]["events"]] == ["constructive_sale", "short_cover"]


class TestPaperTables:
    def test_quoted_rows_appear(self, capsys):
        code, out, _ = invoke(capsys, "paper-tables")
        assert code == 0
        rows = [tokens(line) for line in out.splitlines()]
        assert ["Capital", "Loss", "(time", "3)", "(20)", "(2,000,000.00)"] in rows
        assert ["Net", "Capital", "Loss", "(time", "3)", "30", "3,000,000"] in rows
        assert ["25", "100", "-75", "100", "25", "75"] in rows

    def test_byte_stable_across_runs(self, capsys):
        _, first, _ = invoke(capsys, "paper-tables")
        _, second, _ = invoke(capsys, "paper-tables")
        assert first == second

    def test_each_call_runs_22_scenarios(self, monkeypatch):
        # Reports several tables read are shared within one call, never across calls.
        import realize.scenario
        import realize.tables

        names = []
        original = realize.scenario.run

        def counted(scenario, *args, **kwargs):
            names.append(scenario.name)
            return original(scenario, *args, **kwargs)

        monkeypatch.setattr(realize.scenario, "run", counted)
        monkeypatch.setattr(realize.tables, "run", counted)
        for _ in range(2):
            names.clear()
            realize.tables.paper_tables()
            assert len(names) == 22

    def test_every_rate_row_prints_taxations_flat_rate(self):
        import realize.tables as tables
        from realize.taxation import FLAT_RATE

        rows = [tokens(line) for line in tables.paper_tables().splitlines() if "Multiply by:" in line]
        assert len(rows) == 6
        assert all(row[-2:] == [f"{FLAT_RATE}%"] * 2 == ["10%", "10%"] for row in rows)

    # Each gain table through its builder, on its own report: ``_event_table`` for the four one-event tables,
    # and the strategy tables' own functions.
    GAIN_TABLES = {
        "ordinary_sale_gain": lambda t, reports: t._event_table(
            "ordinary", reports["ordinary"], t.RealizationKind.ORDINARY_SALE, GAIN_LABELS),
        "short_sale_gain": lambda t, reports: t._event_table(
            "short", reports["short"], t.RealizationKind.SHORT_COVER, GAIN_LABELS),
        "strategy1": lambda t, reports: t.strategy1_table(reports["ordinary"]),
        "strategy3": lambda t, reports: t.strategy3_table(),
        "proposed_time2": lambda t, reports: t._event_table(
            "time 2", reports["proposed"], t.RealizationKind.CONSTRUCTIVE_SALE, GAIN_LABELS,
            t.CGT_RATE_ROW),
        "proposed_time3": lambda t, reports: t._event_table(
            "time 3", reports["proposed"], t.RealizationKind.SHORT_COVER, GAIN_LABELS,
            t.CGT_RATE_ROW),
    }

    @staticmethod
    def gain_reports(tables):
        from realize.realization import Regime

        return {"ordinary": tables._trade(1, 2), "short": tables._trade(2, 3, short=True),
                "proposed": tables.run(tables.builtin("proposed_demo"), regime=Regime.PROPOSED)}

    @pytest.mark.parametrize("table", list(GAIN_TABLES))
    def test_every_gain_table_checks_its_tax_against_the_engine(self, monkeypatch, table):
        # A tax one centavo a share off the engine's must not print.
        import realize.tables as tables
        from realize.errors import InvariantViolation
        from realize.taxation import _tax

        reports = self.gain_reports(tables)
        self.GAIN_TABLES[table](tables, reports)  # the engine's own tax prints
        monkeypatch.setattr(tables, "_tax", lambda centavos, schedule: _tax(centavos, schedule) + 1)
        with pytest.raises(InvariantViolation, match="table shows"):
            self.GAIN_TABLES[table](tables, reports)

    @pytest.mark.parametrize("table, report, at", [("ordinary_sale_gain", "ordinary", 2),
                                                   ("short_sale_gain", "short", 3),
                                                   ("strategy1", "ordinary", 2),
                                                   ("proposed_time2", "proposed", 2),
                                                   ("proposed_time3", "proposed", 3)])
    def test_every_gain_table_given_a_report_checks_its_net_against_the_engine(self, table, report, at):
        # A tax line whose net is one centavo off the event's gain total must not print, though its tax agrees.
        import realize.tables as tables
        from realize.errors import InvariantViolation
        from realize.market import Money
        from realize.scenario import RunReport
        from realize.taxation import TaxLine

        reports = self.gain_reports(tables)
        lines = tuple(TaxLine(at, line.net_capital_gain + Money(1), line.tax_due) if line.period == at else line
                      for line in reports[report].tax_lines)
        fields = {name: getattr(reports[report], name) for name in RunReport.__match_args__}
        reports[report] = RunReport(**(fields | {"tax_lines": lines}))
        with pytest.raises(InvariantViolation, match="table shows"):
            self.GAIN_TABLES[table](tables, reports)


class TestGrid:
    def test_table_has_seven_rows(self, capsys):
        code, out, _ = invoke(capsys, "grid")
        assert code == 0
        data_rows = [l for l in out.splitlines() if l.strip()[:1].isdigit()]
        assert len(data_rows) == 7

    def test_csv_values(self, capsys):
        code, out, _ = invoke(capsys, "grid", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["ordinary_gain_per_share"]) for r in rows] == [
            -7500, -5000, -2500, 0, 2500, 5000, 7500
        ]
        assert all(
            int(r["short_gain_per_share"]) == -int(r["ordinary_gain_per_share"]) for r in rows
        )


class TestCheck:
    def test_passes_against_checked_in_fixture(self, capsys):
        code, out, _ = invoke(capsys, "check")
        assert code == 0
        assert "match the checked-in fixture" in out
        assert "byte-identical" in out

    def test_fails_when_fixture_differs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_fixture_text", lambda: "something else\n")
        code, _, err = invoke(capsys, "check")
        assert code == 1
        assert "do not match" in err


HAND_BUILT_EFFECTS = """
import sys
from realize import Regime, SellOwned
from realize.ledger import Ledger, LedgerEffects
from realize.realization import realize
if sys.flags.optimize != 1:
    sys.exit(3)
effects = LedgerEffects(event=SellOwned(2, "ABC", 100), price=None, cash_centavos=0)
realize(effects, Regime.CURRENT, Ledger())
"""


class TestOptimizedInterpreter:
    """Runtime checks are not ``assert``s, so ``python -O`` keeps every one."""

    @staticmethod
    def python_o(*argv):
        src = str(Path(realize.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("REALIZE_FORMAT", None)
        return subprocess.run(
            [sys.executable, "-O", *argv], env=env, capture_output=True, text=True, timeout=120
        )

    def test_check_passes(self):
        done = self.python_o("-m", "realize", "check")
        assert done.returncode == 0, done.stderr
        assert "match the checked-in fixture" in done.stdout

    def test_hand_built_effects_raise_invariant_violation(self):
        done = self.python_o("-c", HAND_BUILT_EFFECTS)
        assert done.returncode == 1, done.stderr
        assert done.stderr.strip().splitlines()[-1].startswith("realize.errors.InvariantViolation:")


def test_missing_fixture_is_named_not_taken_for_an_output_error(capsys, monkeypatch, tmp_path):
    from importlib import resources

    monkeypatch.setattr(resources, "files", lambda package: tmp_path)
    code, out, err = invoke(capsys, "check")
    assert (code, out) == (2, "")
    assert err == "realize: error: cannot read the golden fixture: No such file or directory\n"


class TestColdStart:
    def test_compare_and_run_load_neither_dataclasses_nor_the_tables(self, tmp_path):
        # compare of a built-in loads no DSL either; run of a file does.
        book = tmp_path / "two.scn"
        book.write_text(TWO_SECURITY_BOOK, encoding="utf-8")
        src = str(Path(realize.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-B", "-I", "-S", "-c", HEAVY_MODULES_LOAD, src, str(book)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        compare, run_json, check = done.stdout.splitlines()
        assert compare == "compare" and run_json == "run realize.dsl"  # the DSL loads to read a file only
        assert "realize.tables" in check.split()

    @pytest.mark.parametrize("argv", [["check"], ["compare", "strategy3"], ["run", "BOOK", "--format", "json"]],
                             ids=["check", "compare", "run-json"])
    def test_a_well_formed_call_loads_neither_argparse_nor_json_nor_csv(self, tmp_path, argv):
        book = tmp_path / "two.scn"
        book.write_text(TWO_SECURITY_BOOK, encoding="utf-8")
        code, out, err, loaded = fresh_call(*[str(book) if a == "BOOK" else a for a in argv])
        assert (code, err, loaded) == (0, "", []), out

    @pytest.mark.parametrize("symbol", ['A"B', "A\\B", "Ñ株"], ids=["quote", "backslash", "non-ascii"])
    def test_a_symbol_json_must_escape_is_written_as_json_dumps_writes_it(self, tmp_path, symbol):
        book = tmp_path / f"{symbol}.scn"
        book.write_text(f"price {symbol} 1 10\nprice {symbol} 2 12\nat 1 buy {symbol} 5\nat 2 sell {symbol} 5\n",
                        encoding="utf-8")
        report = realize.run(realize.parse_scenario(book.read_text(encoding="utf-8"), name=symbol))
        code, out, err, loaded = fresh_call("run", str(book), "--format", "json")
        assert (code, err, loaded) == (0, "", ["json"])
        assert out == json.dumps(report.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("argv", [("--help",), ("run", "--help"), ("run",), ("compare", "strategy3", "extra")],
                             ids=["help", "run-help", "missing-positional", "extra-positional"])
    def test_help_and_usage_errors_load_argparse_and_print_the_pinned_bytes(self, argv):
        code, out, err, loaded = fresh_call(*argv)
        assert "argparse" in loaded and "json" not in loaded
        assert (code, out, err) == HELP_AND_USAGE[argv]


# One call of ``cli.main(argv)`` in a fresh interpreter (-B -I -S: no bytecode left in src, no site hooks, so
# only realize's own imports count), then its exit code, stdout, stderr and which of five modules it loaded.
FRESH_CALL = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import realize.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = realize.cli.main(sys.argv[2:])
loaded = [m for m in ("argparse", "gettext", "locale", "json", "csv") if m in sys.modules]
print(ascii((code, out.getvalue(), err.getvalue(), loaded)))
"""


def fresh_call(*argv):
    src = str(Path(realize.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "REALIZE_FORMAT"}
    done = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", FRESH_CALL, src, *argv],
                          env={**env, "COLUMNS": "80"}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


TWO_SECURITY_BOOK = """\
price A 1 10
price B 1 20
price A 2 12.50
price B 2 18
at 1 buy A 100
at 1 buy B 50
at 2 borrow A 40
at 2 short-sell A 40
at 2 sell B 20
"""

# After each command, in this order, the heavy modules it has loaded so far.
HEAVY_MODULES_LOAD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import realize.cli
heavy = ("dataclasses", "inspect", "typing", "importlib.resources", "realize.tables", "realize.dsl")
for argv in (["compare", "strategy3"], ["run", sys.argv[2], "--format", "json"], ["check"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert realize.cli.main(argv) == 0, argv
    print(argv[0], *[m for m in heavy if m in sys.modules])
"""


def realize_process(*argv, stdout, buffered):
    src = str(Path(realize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("REALIZE_FORMAT", None)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:  # each print then fails inside the command, not at the final flush
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "realize", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
    )


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
class TestOutputErrors:
    """Output that cannot be written exits 2, never with a traceback or the mismatch code 1."""

    def test_closed_pipe_exits_2_and_prints_nothing(self, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte, as after `| head -0`
        try:
            done = realize_process(
                "run", "strategy3", "--format", "json", stdout=write_end, buffered=buffered
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr
        assert (done.returncode, done.stderr) == (2, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_device_exits_2_with_one_line(self, buffered):
        with open("/dev/full", "w") as full:
            done = realize_process("run", "strategy3", stdout=full, buffered=buffered)
        assert "Traceback" not in done.stderr
        assert done.returncode == 2
        assert done.stderr == "realize: error: cannot write output: No space left on device\n"


UNSELLABLE_BOOK = "price A 1 10\nat 1 sell A 5\n"  # a sale of shares never bought: a scenario error, exit 2

# Each command cli_cold runs, a scenario error and a usage error, with the exit code ``main`` returns for each.
PROCESS_CALLS = {
    "check": (("check",), 0),
    "compare": (("compare", "strategy3"), 0),
    "run-json": (("run", "BOOK", "--format", "json"), 0),
    "scenario-error": (("run", "UNSELLABLE"), 2),
    "usage-error": (("compare", "strategy3", "extra"), 64),
}


class TestProcessEntry:
    """``python -m realize`` and the ``realize`` script run ``cli.entry``; ``main`` leaves the collector alone."""

    def test_the_console_script_names_the_function_python_m_realize_calls(self):
        tree = ast.parse(Path(cli.__file__).with_name("__main__.py").read_text(encoding="utf-8"))
        imported, called = tree.body
        assert (imported.module, imported.level, [a.name for a in imported.names]) == ("cli", 1, [called.value.func.id])
        assert called.value.args == [] and called.value.keywords == []
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]  # read as text: 3.10 has no tomllib
        assert scripts.strip().splitlines() == [f'realize = "realize.cli:{called.value.func.id}"']

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, expected", [(("compare", "strategy3"), 0), (("run",), 64),
                                                (("run", "UNSELLABLE"), 2)],
                             ids=["success", "usage-error", "scenario-error"])
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, tmp_path, argv, expected, enabled):
        (tmp_path / "unsellable.scn").write_text(UNSELLABLE_BOOK, encoding="utf-8")
        argv = [str(tmp_path / "unsellable.scn") if a == "UNSELLABLE" else a for a in argv]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            assert cli.main(argv) == expected
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("argv, expected", list(PROCESS_CALLS.values()), ids=list(PROCESS_CALLS))
    def test_a_process_exits_and_writes_every_byte_main_returns_and_writes(self, capsys, monkeypatch, tmp_path, argv,
                                                                          expected):
        (tmp_path / "two.scn").write_text(TWO_SECURITY_BOOK, encoding="utf-8")
        (tmp_path / "unsellable.scn").write_text(UNSELLABLE_BOOK, encoding="utf-8")
        paths = {"BOOK": str(tmp_path / "two.scn"), "UNSELLABLE": str(tmp_path / "unsellable.scn")}
        argv = [paths.get(a, a) for a in argv]
        monkeypatch.delenv("REALIZE_FORMAT", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == expected and (captured.out if code == 0 else captured.err)
        src = str(Path(realize.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)  # the exit flush, not each write, empties stdout
        done = subprocess.run([sys.executable, "-m", "realize", *argv], env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (
            code, captured.out.encode("utf-8"), captured.err.encode("utf-8"))

    def test_the_process_runs_atexit_handlers_after_main(self):
        # As coverage's handler does: registered before ``python -m realize`` runs, called after ``main`` returns.
        script = ("import atexit, runpy, sys; atexit.register(print, 'atexit ran', file=sys.stderr); "
                  "sys.argv = ['realize', *sys.argv[1:]]; runpy.run_module('realize', run_name='__main__')")
        src = str(Path(realize.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, "run", "strategy3", "--format", "csv"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "atexit ran\n")
        assert done.stdout.startswith("record,tick,")
