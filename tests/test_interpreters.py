"""``tools/interpreters.py``: the CLI calls and digests it reads are the pinned ones, and they match here."""

import importlib.util
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
