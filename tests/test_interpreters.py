"""``tools/interpreters.py``: the CLI calls and digests it reads are the pinned ones, and they match here, in one
process and as a process each."""

import importlib.util
import os
import sys
from functools import partial
from pathlib import Path

import pytest

import test_cli_bytes

TOOL = Path(__file__).resolve().parents[1] / "tools" / "interpreters.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("interpreters", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_it_reads_the_scenario_and_digests_that_test_cli_bytes_pins(tool):
    text, pins = tool.pinned()
    assert text == test_cli_bytes.CENTAVO_TEXT and pins == test_cli_bytes.DIGESTS
    assert [argv.split() for argv in pins] == [list(argv) for argv in test_cli_bytes._cases()]


def test_every_pinned_call_matches_in_this_interpreter(tool, capsys):
    assert tool.digests() == 0
    assert capsys.readouterr().out == f"{len(test_cli_bytes.DIGESTS)} of {len(test_cli_bytes.DIGESTS)} match\n"


def test_a_process_per_call_matches_its_digest_and_a_changed_digest_is_named(tool, monkeypatch):
    # Three pins, one per command, run as processes: a process per pin for all 75 would add seconds to tier-1.
    text, pins = tool.pinned()
    some = {argv: pins[argv] for argv in ("run strategy3 --regime proposed --format json",
                                          "compare centavos.scn --format table", "grid --format csv")}
    some["grid --format csv"] = "0" * 64
    monkeypatch.setattr(tool, "pinned", lambda: (text, some))
    src = str(tool.ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    count, misses = tool.missed(partial(tool.as_process, sys.executable, env))
    assert (count, misses) == (3, ["grid --format csv"])
    assert tool.tally(count, misses) == "2 of 3 match\n  differs: grid --format csv"
