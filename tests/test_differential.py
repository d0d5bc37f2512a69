"""``tools/differential.py``: one checkout on both sides is identical, and a one-line change is found and counted."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "differential.py"


def differential(parent, change, count):
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change), "--count", str(count)],
        capture_output=True, text=True, timeout=120,
    )


def test_one_checkout_on_both_sides_is_identical():
    done = differential(ROOT, ROOT, 100)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("identical: 100 scenarios of seed 1; current accepted ")


def test_a_deliberate_change_prints_the_first_differing_scenario(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ledger = tmp_path / "src" / "realize" / "ledger.py"
    text = ledger.read_text(encoding="utf-8")
    # A with-owned cover's reserved shares would realize a second time, at the cover.
    delivered = "_new_effects(LedgerEffects, ev, price, 0, tuple(free),"
    assert text.count(delivered) == 1
    ledger.write_text(text.replace(delivered, "_new_effects(LedgerEffects, ev, price, 0, tuple(takes + free),"))
    done = differential(ROOT, tmp_path, 100)
    assert (done.returncode, done.stderr) == (1, "")
    head, _, rest = done.stdout.partition("\n")
    assert head.startswith("scenario ") and head.endswith(" of seed 1 differs:")
    assert "cover" in rest and "with-owned" in rest
    assert f"parent ({ROOT}):\n" in rest and f"change ({tmp_path}):\n" in rest
    assert rest.count('"owned_disposal_at_cover"') > 0
    # Every differing scenario is counted, after the first one is shown.
    assert rest.endswith("}\n]\n2 of 100 scenarios of seed 1 differ\n")
    assert not list((tmp_path / "src").rglob("__pycache__"))
