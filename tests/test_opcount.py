"""``tools/opcount.py``: a short count runs, it reads the checkout without writing to it, and a closed pipe
ends it quietly."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_files():
    return sorted((ROOT / "bench").rglob("*"))


def test_a_two_operation_count_lists_functions_and_records():
    before = bench_files()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "opcount.py"), "--ops", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("engine instructions per operation: ")
    assert lines[0].endswith(" over 2 operations)")
    split = next(i for i, line in enumerate(lines) if line.startswith("records built per operation: "))
    functions = "\n".join(lines[1:split])
    assert "<generated record constructors>" in functions and "realize.scenario.run (line " in functions
    built = {line.split()[1]: float(line.split()[0]) for line in lines[split + 1:]}
    # Each operation builds and compares four scenarios.
    assert built["ComparisonReport"] == 4.0 and built["Scenario"] == 4.0 and built["LedgerEffects"] > 0
    # One inventory per comparison: where the proposed regime runs, its report holds the current one's.
    assert built["InventorySummary"] == 4.0
    assert bench_files() == before  # no bytecode cache, no bench/out record


def test_a_reader_that_closes_the_pipe_ends_the_count_quietly():
    # As ``realize`` treats a closed pipe: the reader's choice, with no traceback.
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "opcount.py"), "--ops", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()  # before the count ends, so its first write finds no reader
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (0, b"")
