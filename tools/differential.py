"""Compare two checkouts' reports and errors on seeded random scenarios.

    python3 tools/differential.py --parent DIR --change DIR [--seed N] [--count K]

Scenario ``i`` of seed ``N`` is DSL text drawn from ``random.Random(f"{N}:{i}")``,
the same text for both checkouts: one or two securities, up to 16 events of
every kind (buy, borrow, short sale, sale, both covers, death), each quoted at
its tick.  Most are feasible under the current regime.  One event in twenty
asks for more shares than the share counts hold, and one quote in ten at a
tick with no trade of its security is left out, where a death may need it;
so the rest fail at varied events, as do sales of shares reserved under the
proposed regime.

For each checkout one child process, with that checkout's ``src`` first on
``sys.path`` and ``PYTHONDONTWRITEBYTECODE=1``, parses each scenario and runs
it through ``run`` under both regimes and through ``compare``.  Each outcome
is the report's ``to_dict()`` or the error's class, message and
``event_index`` (a parse error is the one outcome); the child prints one
sha256 digest of a scenario's outcomes per line.

It prints ``identical`` with the number of scenarios each regime accepted
and exits 0, or prints the first scenario whose outcomes differ, as DSL text
with both checkouts' outcomes, then ``N of K scenarios of seed S differ``,
and exits 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

# Borrows, short sales and with-owned covers are drawn twice as often: covers of shares reserved by a
# short sale against the box need all three.
KINDS = ("buy", "borrow", "borrow", "short-sell", "short-sell", "sell", "by-purchase", "with-owned", "with-owned",
         "death")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="checkout to compare against")
    p.add_argument("--change", type=Path, help="checkout under test")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=10_000, help="scenarios")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # the child's part: a checkout's src
    p.add_argument("--show", type=int, help=argparse.SUPPRESS)  # the child prints one scenario's outcomes
    args = p.parse_args(argv)
    if args.child is None and (args.parent is None or args.change is None):
        p.error("name both --parent and --change")
    return args


def scenario_text(seed: int, index: int) -> str:
    """Scenario ``index`` of ``seed`` as DSL text."""
    rng = random.Random(f"{seed}:{index}")
    secs = ("A", "B")[: rng.randint(1, 2)]
    owned, unsold, sold = dict.fromkeys(secs, 0), dict.fromkeys(secs, 0), dict.fromkeys(secs, 0)
    events, traded, tick = [], set(), 1
    for _ in range(rng.randint(1, 16)):
        tick += rng.random() < 0.5
        sec = rng.choice(secs)
        rooms = {"sell": owned[sec], "short-sell": unsold[sec], "by-purchase": sold[sec],
                 "with-owned": min(sold[sec], owned[sec])}
        failing = rng.random() < 0.05
        if failing:  # more shares than the counts hold: the run fails here
            kind = rng.choice(tuple(rooms))
            qty = rooms[kind] + rng.randint(1, 3)
        else:
            kind = rng.choice([k for k in KINDS if rooms.get(k, 1)])
            qty = rng.randint(1, rooms.get(kind, 9))
        if kind == "death":
            events.append(f"at {tick} death" + (" heir H" if rng.random() < 0.3 else ""))
        else:
            traded.add((sec, tick))
            events.append(f"at {tick} cover {sec} {qty} {kind}" if kind in ("by-purchase", "with-owned")
                          else f"at {tick} {kind} {sec} {qty}")
        if failing:
            break
        owned[sec] += {"buy": qty, "sell": -qty, "with-owned": -qty}.get(kind, 0)
        unsold[sec] += {"borrow": qty, "short-sell": -qty}.get(kind, 0)
        sold[sec] += {"short-sell": qty, "by-purchase": -qty, "with-owned": -qty}.get(kind, 0)
    quotes = []
    for sec in secs:
        for t in range(1, tick + 1):
            if (sec, t) in traded or rng.random() >= 0.1:  # a death at an unquoted tick fails
                cents = f".{rng.randint(0, 99):02d}" if rng.random() < 0.3 else ""
                quotes.append(f"price {sec} {t} {rng.randint(1, 999)}{cents}")
    return "\n".join(quotes + events) + "\n"


def outcomes(text: str) -> list[dict]:
    """The outcomes of parsing ``text``, running it under each regime and comparing, in this interpreter's
    ``realize``."""
    from realize import Regime, compare, parse_scenario, run

    def failure(err: Exception) -> dict:
        return {"error": [type(err).__name__, str(err), getattr(err, "event_index", None)]}

    try:
        scenario = parse_scenario(text, "differential")
    except Exception as err:  # any class counts, so a crash differs too
        return [failure(err)]
    out = []
    for call, *args in ((run, Regime.CURRENT), (run, Regime.PROPOSED), (compare,)):
        try:
            out.append({"report": call(scenario, *args).to_dict()})
        except Exception as err:
            out.append(failure(err))
    return out


def child(args: argparse.Namespace) -> int:
    """Print, per scenario, the sha256 of its outcomes and whether each regime accepted it; or, with
    ``--show``, one scenario's outcomes as JSON."""
    sys.path.insert(0, str(args.child.resolve()))
    import realize

    if Path(realize.__file__).resolve().parents[1] != args.child.resolve():
        print(f"differential: imported realize from {realize.__file__}, not {args.child}", file=sys.stderr)
        return 2
    if args.show is not None:
        print(json.dumps(outcomes(scenario_text(args.seed, args.show)), indent=1, sort_keys=True))
        return 0
    lines = []
    for index in range(args.count):
        out = outcomes(scenario_text(args.seed, index))
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
        accepted = "".join("1" if "report" in o else "0" for o in out[:2]) if len(out) > 1 else "00"
        lines.append(f"{digest} {accepted}\n")
    sys.stdout.write("".join(lines))
    return 0


def spawn(checkout: Path, seed: int, *extra: str) -> subprocess.Popen:
    """A child process of this tool on ``checkout``'s ``src``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout / "src"), "--seed", str(seed)]
    return subprocess.Popen([*argv, *extra], stdout=subprocess.PIPE, text=True, env=env)


def finish(child: subprocess.Popen, checkout: Path) -> list[str]:
    out, _ = child.communicate()
    if child.returncode:
        raise SystemExit(f"differential: the child on {checkout} exited {child.returncode}")
    return out.splitlines()


def say(text: str, code: int) -> int:
    """Print ``text`` and return ``code``; a reader that closes the pipe early (``| head``) ends it quietly."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader's choice, not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the interpreter's exit flush cannot fail again
        os.close(devnull)
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child(args)
    sides = (("parent", args.parent.resolve()), ("change", args.change.resolve()))
    children = [spawn(checkout, args.seed, "--count", str(args.count)) for _, checkout in sides]
    before, after = (finish(c, checkout) for c, (_, checkout) in zip(children, sides))
    differing = [index for index, (old, new) in enumerate(zip(before, after)) if old != new]
    if differing:
        index = differing[0]
        shown = [f"{label} ({checkout}):\n" + "\n".join(finish(spawn(checkout, args.seed, "--show", str(index)),
                                                                 checkout)) for label, checkout in sides]
        return say(f"scenario {index} of seed {args.seed} differs:\n{scenario_text(args.seed, index)}"
                   + "\n".join(shown)
                   + f"\n{len(differing):,} of {len(before):,} scenarios of seed {args.seed} differ", 1)
    flags = [line.split()[1] for line in before]
    current, proposed = sum(f[0] == "1" for f in flags), sum(f[1] == "1" for f in flags)
    return say(f"identical: {len(before):,} scenarios of seed {args.seed}; "
               f"current accepted {current:,}, proposed {proposed:,}", 0)


if __name__ == "__main__":
    sys.exit(main())
