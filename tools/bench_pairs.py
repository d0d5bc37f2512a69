"""Run the benchmark in two checkouts in alternating pairs and record both sides.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --seed N \\
        --pairs K --seconds S --label L [--parent-commit SHA] [--change-commit SHA]

Pair i runs ``bench/run.py --workload W --seed N --seconds S`` once in each
checkout, the parent first on even i and the change first on odd i, with this
process's environment passed through unchanged, so both sides see the same
bytecode-cache setting.  Both checkouts must also start in the same
bytecode-cache state: either both or neither has ``.pyc`` files for this
interpreter in ``src/realize/__pycache__``, since a cached side starts its
processes faster and would read better on ``setup_s`` and cli_cold.  The results go into ``BENCH_<L>.json`` in the current
directory: an existing file keeps its other workload and seed entries, so one
label collects several calls.  The file records the Python version, ``nproc``,
``PYTHONDONTWRITEBYTECODE``, both commits (for a side that is no git
checkout, such as a ``git archive`` export, the one ``--parent-commit`` or
``--change-commit`` names), both ``src/realize`` hashes (as
the benchmark itself reports them), both bytecode-cache states
(``bytecode_cache``), both harness hashes (``bench_sha256``, of
the checkout's ``bench/*.py`` and ``BENCHMARK.json``, so that a reader can tell
when a pair ran two harness versions), every pair's end-to-end values, and per
metric each side's median and quartiles, the change/parent ratio of every
pair and the gain rule: the change is better on at least nine pairs in ten
and its median differs from the parent's by more than the parent's
interquartile range.  ``pairs`` and ``summary`` hold the rescaled values the
benchmark reports; ``raw_pairs`` and ``raw_summary`` the same for the raw
ones of its record, which a change to process-wide work (start-up, exit,
the collector) moves where the rescaled ones partly cancel it.  Which
direction is better comes from ``BENCHMARK.json`` of the change checkout.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--label", required=True)
    for side in SIDES:
        p.add_argument(f"--{side}-commit", help=f"the commit the {side} checkout holds, if it is no git checkout")
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: its printed result and the fuller record it wrote to ``bench/out``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no result from {checkout}: {done.stderr[-500:]}")
    record = checkout / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(lines[-1]), json.loads(record.read_text(encoding="utf-8"))


def bench_digest(checkout: Path) -> str:
    """SHA-256 of the harness in ``checkout``: each ``bench/*.py`` and ``BENCHMARK.json``, by name."""
    h = hashlib.sha256()
    for path in [*sorted((checkout / "bench").glob("*.py")), checkout / "BENCHMARK.json"]:
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bytecode_cached(checkout: Path) -> bool:
    """Whether ``src/realize/__pycache__`` of ``checkout`` holds ``.pyc`` files for this interpreter."""
    pattern = f"*.{sys.implementation.cache_tag}.pyc"
    return any((checkout / "src" / "realize" / "__pycache__").glob(pattern))


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's quartiles, the pair ratios and the gain rule.

    ``pairs`` holds ``{"parent": {metric: value}, "change": {metric: value}}``
    per pair; ``better`` maps each metric to ``"higher"`` or ``"lower"``.
    """
    summary = {}
    for metric, direction in better.items():
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        gain = sign * (sides["change"]["median"] - sides["parent"]["median"])
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        summary[metric] = {
            **sides,
            "ratios": [c / p for p, c in zip(parent, change)],
            "wins": wins,
            "median_ratio": sides["change"]["median"] / sides["parent"]["median"],
            "parent_iqr": iqr,
            "gain_holds": wins >= 0.9 * len(pairs) and gain > iqr,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("bench_pairs: quartiles need at least 2 pairs")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    given = {"parent": args.parent_commit, "change": args.change_commit}
    for side in SIDES:
        if given[side] is not None and (checkouts[side] / ".git").exists():
            raise SystemExit(f"bench_pairs: the {side} checkout is a git checkout; it names its own commit")
    cached = {side: bytecode_cached(checkouts[side]) for side in SIDES}
    if cached["parent"] != cached["change"]:
        only = "parent" if cached["parent"] else "change"
        raise SystemExit(
            f"bench_pairs: only the {only} checkout has bytecode in src/realize/__pycache__; "
            "pair two checkouts in the same bytecode-cache state"
        )
    pairs, raw_pairs, records = [], [], {}
    for i in range(args.pairs):
        pair: dict = {"first": SIDES[i % 2]}
        raw: dict = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result, records[side] = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"bench_pairs: {side} run {i} failed its output checks")
            pair[side] = {metric: result["metrics"][metric]["value"] for metric in better}
            raw[side] = {metric: records[side]["raw"][metric] for metric in better}
        pairs.append(pair)
        raw_pairs.append(raw)
        print(f"pair {i}: " + ", ".join(
            f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in better), flush=True)

    out = Path(f"BENCH_{args.label}.json")
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"label": args.label, "runs": {}}
    sides = {
        side: {"commit": given[side] or records[side]["commit"], "src_sha256": records[side]["src_sha256"],
               "bench_sha256": bench_digest(checkouts[side]), "bytecode_cache": cached[side]}
        for side in SIDES
    }
    for side in SIDES:
        kept = data.get(side, {})
        if any(kept.get(key, value) != value for key, value in sides[side].items() if key != "commit"):
            raise SystemExit(
                f"bench_pairs: {out} holds runs of another {side} source, harness or bytecode-cache state; "
                "use another label"
            )
    data.update({
        "python": records["change"]["python"],
        "nproc": records["change"]["nproc"],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **sides,
    })
    data["runs"].setdefault(args.workload, {})[str(args.seed)] = {
        "seconds": args.seconds,
        "pairs": pairs,
        "summary": summarize(pairs, better),
        "raw_pairs": raw_pairs,
        "raw_summary": summarize(raw_pairs, better),
    }
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
