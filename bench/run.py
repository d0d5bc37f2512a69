"""Benchmark the realize simulator on one seeded workload.

    python3 bench/run.py --workload deep_book --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout that holds this file,
never from an installed copy.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record (Python version, CPU count, commit, raw and
rescaled percentiles, output digest) goes to ``bench/out/``.  The exit code
is 0 only when every output check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("deep_book", "path_batch", "cli_cold")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (used to time set-up)")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "realize" / "__init__.py").is_file():
        print(f"bench: no realize package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import realize

    if Path(realize.__file__).resolve().parent != (SRC / "realize").resolve():
        print(f"bench: imported realize from {realize.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        return 0
    workloads.OUT.mkdir(exist_ok=True)
    result, record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
