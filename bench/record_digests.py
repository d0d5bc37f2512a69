"""Record the output digest of every workload for a range of seeds.

    python3 bench/record_digests.py

Rewrites bench/digests.json for seeds 0..99.  A benchmark run whose seed is
recorded there fails when its outputs no longer hash to the recorded digest;
a run on any other seed is checked against seed 1.  So re-record only for a
change that is meant to alter the outputs, and say so where the change is
described.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


SEEDS = range(100)


def main() -> int:
    recorded: dict[str, dict[str, str]] = {}
    for name, make in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in SEEDS:
            wl = make(seed)
            wl.warm_up()
            recorded[name][str(seed)] = wl.reference
        print(f"{name}: seeds {SEEDS.start}..{SEEDS.stop - 1} recorded", file=sys.stderr)
    (BENCH / "digests.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
