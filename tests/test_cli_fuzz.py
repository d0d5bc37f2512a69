"""The CLI on mutated scenario text and on hostile argv.

Scenario text is generated from the DSL grammar and mutated (``mutated_text``), and ``cli.main`` runs on
it in process for ``run`` (table, csv, json) and ``compare``: every input ends in a report (exit 0) or in
one located error line (exit 2).  Argv is drawn from the subcommand table and mangled (``hostile_argv``):
every call exits 0, 2 or 64 and writes printable lines only, and what the table reader accepts argparse
parses to the same values.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realize import cli, compare, format_scenario, parse_scenario, run

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300  # int()'s digit limit, if it has one

# One line of stderr naming where the input failed: a line and column, an event, or the tick of a figure too long.
ERROR_LINE = re.compile(
    r"realize: error(: line \d+, col \d+: | \(event \d+\): |: a figure at tick \d+ has more than )[^\n]*\n"
)

LOCATED = re.compile(r"realize: error: line (\d+), col (\d+): ")

PRICES = st.sampled_from(["50", "100", "30", "0.5", "12.25", "7.1", "0"])
QTYS = st.integers(1, 300).map(str)
SYMBOLS = st.sampled_from(["ABC", "XY"])
LONG_RUNS = st.sampled_from(
    ["9" * (LIMIT + 1), "9" * LIMIT, "9" * (LIMIT - 1), "-" + "9" * LIMIT, "-" + "0" * (LIMIT - 1), "0" * (LIMIT - 2)]
)
CONTROLS = st.sampled_from(["\x00", "\x1b[2J", "\x7f", "\u202e", "\x0b", "\x85", "\u2028", "\r", "\t"])


# The paper's transaction shapes, each event a (tick offset, verb, cover mode) row: the ordinary sale, the
# short sale covered by purchase (RR 02-40 §135), the short against the box covered with owned shares, and
# the same with a death before the cover.
SHAPES = (
    ((0, "buy", None), (1, "sell", None)),
    ((0, "borrow", None), (0, "short-sell", None), (1, "cover", "by-purchase")),
    ((0, "buy", None), (1, "borrow", None), (1, "short-sell", None), (2, "cover", "with-owned")),
    ((0, "buy", None), (1, "borrow", None), (1, "short-sell", None), (2, "death", None), (3, "cover", "with-owned")),
)


@st.composite
def dsl_lines(draw):
    """Scenario text as lines of tokens: a comment, a price for each symbol at each tick, then shapes one after
    another, each on one symbol."""
    events, t = [], 1
    for shape in draw(st.lists(st.sampled_from(SHAPES), max_size=3)):
        sym, qty = draw(SYMBOLS), draw(QTYS)
        for dt, verb, mode in shape:
            tail = ["heir", "Y"] if verb == "death" else [sym, qty, *filter(None, [mode])]
            events.append(["at", str(t + dt), verb, *tail])
        t += shape[-1][0]
    prices = [["price", sym, str(tick), draw(PRICES)] for sym in ("ABC", "XY") for tick in range(1, t + 1)]
    return [["#", "fuzz"], *prices, *events]


@st.composite
def mutated_text(draw):
    """Generated text with one of its lines perhaps dropped, doubled or swapped with the next and up to two of
    its tokens dropped, doubled, swapped with the next, given a control character or, on a number, a minus
    sign or replaced by a long digit run; CRLF line ends and a BOM are drawn too."""
    lines = draw(dsl_lines())
    for _ in range(draw(st.integers(0, 1))):
        j = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "double", "swap"]))
        if how == "drop":
            del lines[j]
        elif how == "double":
            lines.insert(j, list(lines[j]))
        elif j + 1 < len(lines):
            lines[j], lines[j + 1] = lines[j + 1], lines[j]
    for _ in range(draw(st.integers(0, 2))):
        tokens = lines[draw(st.integers(0, len(lines) - 1))]
        if not tokens:
            continue
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(["drop", "double", "swap", "digits", "sign", "control"]))
        if how == "drop":
            del tokens[i]
        elif how == "double":
            tokens.insert(i, tokens[i])
        elif how == "swap" and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        elif how in ("digits", "sign"):  # on a number, where the parser reads its digits
            k = draw(st.sampled_from([k for k, token in enumerate(tokens) if token[-1:].isdigit()] or [i]))
            tokens[k] = draw(LONG_RUNS) if how == "digits" else "-" + tokens[k]
        elif how == "control":
            at = draw(st.integers(0, len(tokens[i])))
            tokens[i] = tokens[i][:at] + draw(CONTROLS) + tokens[i][at:]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return bom + "".join(" ".join(tokens) + newline for tokens in lines)


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(mutated_text())
def test_every_input_ends_in_a_report_or_one_located_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scn"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        read_back = path.read_text(encoding="utf-8").removeprefix("\ufeff")  # as the CLI reads it, CRLF made LF
        results = {fmt: call("run", str(path), "--format", fmt) for fmt in ("table", "csv", "json")}
        results["compare"] = call("compare", str(path), "--format", "json")

    lines = read_back.split("\n")  # where open() ended the lines the CLI read
    for argv, (code, out, err) in results.items():
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert out == "", argv
            assert ERROR_LINE.fullmatch(err), (argv, err)
            if located := LOCATED.match(err):
                line, col = int(located[1]), int(located[2])
                assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1, (argv, err, lines)
        else:
            assert err == "" and out, argv
    assert len({results[fmt][0] for fmt in ("table", "csv", "json")}) == 1, results

    if results["json"][0] == 2:
        assert results["compare"][0] == 2  # compare runs and prints the current regime first
        return
    scenario = parse_scenario(read_back, name="fuzz")
    assert results["json"][1] == json.dumps(run(scenario).to_dict(), indent=2) + "\n"
    assert parse_scenario(format_scenario(scenario), name="fuzz") == scenario
    if results["compare"][0] == 0:
        assert results["compare"][1] == json.dumps(compare(scenario).to_dict(), indent=2) + "\n"


FORMATS = ["table", "csv", "json"]
INVALID_VALUES = ["sideways", "Paper", "xml", "", "-json"]
ODD_TOKENS = ["-h", "--help", "--", "-", "-5", "-x", "", "--format=", "--nope=1", "bogus", "strategy3"]
PATHS = ["strategy3", "strategy1", "no\x1b[2Jfile.scn", "a\nb", "\x07", "\u202e.scn", "\x85", ""]


@st.composite
def hostile_argv(draw, book):
    """An argv of one subcommand: its positional, most often, a built-in, ``book`` or a path with control
    characters, and options ``--opt value`` or ``--opt=value``, perhaps repeated, each value valid or not; then
    up to two of its tokens abbreviated (``--r`` is ambiguous), dropped, doubled or swapped with the next, or
    help, ``--``, a dash-led, empty or second positional token inserted; at times no or an unknown subcommand."""
    name = draw(st.sampled_from([*cli._COMMANDS, "run", "compare"]))
    _, _, positional, options = cli._COMMANDS[name]
    tokens = [draw(st.sampled_from([book, *PATHS]))] if positional and draw(st.integers(0, 4)) else []
    for flag, choices, _, _ in draw(st.lists(st.sampled_from(options), max_size=3)) if options else ():
        value = draw(st.sampled_from((choices or FORMATS) if draw(st.integers(0, 3)) else INVALID_VALUES))
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        how = draw(st.sampled_from(["insert", "insert", "abbreviate", "abbreviate", "drop", "double", "swap"]))
        if how == "insert" or i == len(tokens):
            tokens.insert(i, draw(st.sampled_from([*ODD_TOKENS, book])))
        elif how == "abbreviate":
            flag = tokens[i].partition("=")[0]
            if flag.startswith("--") and len(flag) > 3:
                tokens[i] = flag[:draw(st.integers(3, len(flag) - 1))] + tokens[i][len(flag):]
        elif how == "drop":
            del tokens[i]
        elif how == "double":
            tokens.insert(i, tokens[i])
        elif i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    head = draw(st.sampled_from([[name]] * 8 + [[], ["bogus"], ["-h", name]]))
    return head + tokens


def parsed_by_argparse(argv):
    """What argparse, built from the same table, parses ``argv`` to, or ``None`` where it refuses or helps."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit:
            return None


@pytest.fixture(scope="module")
def book(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "book.scn"
    path.write_text("price A 1 10\nprice A 2 12\nat 1 buy A 5\nat 2 sell A 5\n", encoding="utf-8")
    return str(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), env=st.sampled_from([None, "table", "csv", "json", "xml", ""]))
def test_every_argv_exits_0_2_or_64_in_printable_lines_and_reads_as_argparse_parses(book, data, env):
    argv = data.draw(hostile_argv(book))
    with mock.patch.dict(os.environ):
        os.environ.pop("REALIZE_FORMAT", None)
        if env is not None:
            os.environ["REALIZE_FORMAT"] = env
        code, out, err = call(*argv)
        read, parsed = cli._read(argv), parsed_by_argparse(argv)
    assert code in (0, 2, 64), (argv, code, err)
    assert all(line.isprintable() for line in (out + err).split("\n")), (argv, out, err)
    if read is not None:
        assert read == parsed, argv
    if parsed is None:
        assert read is None, argv
