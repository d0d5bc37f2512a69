"""``tools/opcount.py``: a short count runs, and it reads the checkout without writing to it."""

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
    assert bench_files() == before  # no bytecode cache, no bench/out record
