"""The three benchmark workloads: seeded inputs, the timed operation, its checks.

Every workload runs in one process and one thread, as a closed loop: the next
operation starts when the previous one and its (untimed) output checks are
done.  Inputs come only from the seed, so one seed always gives the same DSL
text, price paths and CLI file.

* ``deep_book``  one operation parses a large synthetic book, runs it under
  both regimes and renders each report as JSON, table and CSV; the item is a
  scenario event.
* ``path_batch`` one operation builds one small random price path and runs
  ``compare()`` on the paper's four transaction shapes; the item is a path.
* ``cli_cold``   one operation is a fresh ``python -m realize`` process; the
  item is a call.

Requires ``src`` of the checkout on ``sys.path`` before import.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import GeneratorType

import realize.cli as cli
import realize.market as market
import realize.scenario as scenario
from realize import (
    Borrow,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    Money,
    NettingWindow,
    RateSchedule,
    Regime,
    SellOwned,
    ShortSell,
)

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


class Mismatch(Exception):
    """An output check failed."""


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


def _peso_token(centavos: int) -> str:
    return f"{centavos // 100}.{centavos % 100:02d}"


def book_text(seed: int, securities: int = 10, cycles: int = 160) -> str:
    """A DSL book: each security repeats buy 100; borrow and short 100;
    cover 50 with-owned; cover 50 by-purchase, one step per tick.

    Prices follow a seeded random walk with centavos; within a tick the order
    of securities is shuffled.  Half of each buy stays open, so the ledger
    grows with the number of cycles.
    """
    rng = random.Random(f"deep_book:{seed}")
    secs = [f"S{i:02d}" for i in range(securities)]
    price = {s: rng.randint(5_000, 50_000) for s in secs}
    quotes: list[str] = []
    events: list[str] = []
    for cycle in range(cycles):
        for step in range(4):
            t = 4 * cycle + step + 1
            for s in secs:
                price[s] = max(100, price[s] + rng.randint(-500, 500))
                quotes.append(f"price {s} {t} {_peso_token(price[s])}")
            order = secs[:]
            rng.shuffle(order)
            for s in order:
                if step == 0:
                    events.append(f"at {t} buy {s} 100")
                elif step == 1:
                    events.append(f"at {t} borrow {s} 100")
                    events.append(f"at {t} short-sell {s} 100")
                elif step == 2:
                    events.append(f"at {t} cover {s} 50 with-owned")
                else:
                    events.append(f"at {t} cover {s} 50 by-purchase")
    return "\n".join(quotes + events) + "\n"


@dataclass(frozen=True)
class PathSpec:
    """One random price path (centavos at ticks 1..n), a block size and settings."""

    prices: tuple[int, ...]
    qty: int
    schedule: RateSchedule
    window: NettingWindow


_SETTINGS = [(s, w) for s in RateSchedule for w in NettingWindow]


def path_specs(seed: int, count: int = 512) -> list[PathSpec]:
    """``count`` paths of 3 or 4 ticks; path k uses rates/window combination k % 4."""
    rng = random.Random(f"path_batch:{seed}")
    specs = []
    for k in range(count):
        ticks = rng.randint(3, 4)
        prices = tuple(rng.randint(100, 100_000) for _ in range(ticks))
        schedule, window = _SETTINGS[k % len(_SETTINGS)]
        specs.append(PathSpec(prices, rng.randint(1, 100_000), schedule, window))
    return specs


def _shapes(path, spec: PathSpec) -> list:
    """strategy1, strategy3, death before the cover, and a by-purchase short cycle."""
    q, last = spec.qty, len(spec.prices)
    Scenario = scenario.Scenario
    return [
        Scenario("strategy1", path, (Buy(1, "ABC", q), SellOwned(2, "ABC", q))),
        Scenario(
            "strategy3",
            path,
            (Buy(1, "ABC", q), Borrow(2, "ABC", q), ShortSell(2, "ABC", q), CoverByOwnedLot(3, "ABC", q)),
        ),
        Scenario(
            "death_before_cover",
            path,
            (
                Buy(1, "ABC", q),
                Borrow(2, "ABC", q),
                ShortSell(2, "ABC", q),
                Death(3, heir="Y"),
                CoverByOwnedLot(last, "ABC", q),
            ),
        ),
        Scenario(
            "short_by_purchase",
            path,
            (Borrow(1, "ABC", q), ShortSell(1, "ABC", q), CoverByPurchase(last, "ABC", q)),
        ),
    ]


def _same_cash_and_inventory(current, proposed) -> None:
    if (current.cash_timeline, current.final_cash, current.inventory) != (
        proposed.cash_timeline,
        proposed.final_cash,
        proposed.inventory,
    ):
        raise Mismatch(f"{current.scenario}: cash or inventory differs between regimes")


def complete(out):
    """The output of an operation, running it to the end if it is a generator."""
    if not isinstance(out, GeneratorType):
        return out
    while True:
        try:
            next(out)
        except StopIteration as stop:
            return stop.value


def render_json(report) -> str:
    """The report as ``realize run --format json`` prints it."""
    return json.dumps(report.to_dict(), indent=2)


class Workload:
    """Base: ``op`` is timed, ``check`` is not; ``reference`` is set by ``warm_up``.

    A traced run traces operations ``0 .. traced_ops - 1``, whatever its length.
    """

    name = ""
    traced_ops = 4
    tracer: spans.Tracer | None = None
    render_json = staticmethod(render_json)
    reference = ""

    def trace_with(self, tracer: spans.Tracer | None) -> None:
        self.tracer = tracer
        self.render_json = (
            render_json if tracer is None else tracer.wrap("cli.render_json", render_json, spans.utf8_bytes)
        )

    def span(self, name: str, tag=None):
        return nullcontext() if self.tracer is None else self.tracer.span(name, tag)

    def items(self, i: int) -> int:
        return 1


class DeepBook(Workload):
    name = "deep_book"

    def __init__(self, seed: int, cycles: int = 160) -> None:
        self.text = book_text(seed, cycles=cycles)
        self.events = sum(1 for line in self.text.splitlines() if line.startswith("at "))

    def items(self, i: int) -> int:
        return self.events

    def op(self, i: int):
        """Parse, run both regimes, render; yields between the stages.

        The pauses let the harness re-measure the machine's speed inside an
        operation that lasts about a second; see ``run.Clock``.
        """
        book = scenario.parse_scenario(self.text, name="deep_book")
        yield
        outputs = []
        for regime in (Regime.CURRENT, Regime.PROPOSED):
            report = scenario.run(book, regime)
            yield
            as_json = self.render_json(report)
            outputs.append((report, as_json, cli._render_run_table(report), cli._render_run_csv(report)))
            yield
        return outputs

    def warm_up(self) -> None:
        outputs = complete(self.op(-1))
        self.check(-1, outputs, first=True)

    def check(self, i: int, outputs, first: bool = False) -> None:
        (current, *_), (proposed, *_) = outputs
        _same_cash_and_inventory(current, proposed)
        found = digest(*(text for _report, *texts in outputs for text in texts))
        if first:
            self.reference = found
        elif found != self.reference:
            raise Mismatch(f"deep_book iteration {i}: output digest {found} != {self.reference}")
        gc.collect()  # every iteration starts with the same (empty) collector state


class PathBatch(Workload):
    name = "path_batch"

    def __init__(self, seed: int, count: int = 512) -> None:
        self.specs = path_specs(seed, count)
        self.traced_ops = len(self.specs)
        self.expected: list[str] = []

    def op(self, i: int):
        spec = self.specs[i % len(self.specs)]
        with self.span("market.price_path"):
            path = market.PricePath.from_table(
                {"ABC": {t: Money(c) for t, c in enumerate(spec.prices, start=1)}}
            )
        with self.span("scenario.construct", tag=4):  # four scenarios per path
            shapes = _shapes(path, spec)
        return [scenario.compare(s, spec.schedule, spec.window) for s in shapes]

    def warm_up(self) -> None:
        for i in range(len(self.specs)):
            self.expected.append(self._checked_digest(i, self.op(i)))
        self.reference = digest(*self.expected)

    def _checked_digest(self, i: int, reports) -> str:
        for r in reports:
            _same_cash_and_inventory(r.current, r.proposed)
        strategy1, strategy3 = reports[0], reports[1]
        if strategy1.current.total_tax != strategy3.current.total_tax:
            raise Mismatch(
                f"path {i}: strategy1 tax {strategy1.current.total_tax} != "
                f"strategy3 current tax {strategy3.current.total_tax}"
            )
        return digest(*(canonical(r.current) + canonical(r.proposed) for r in reports))

    def check(self, i: int, reports) -> None:
        found = self._checked_digest(i, reports)
        want = self.expected[i % len(self.expected)]
        if found != want:
            raise Mismatch(f"path {i}: digest {found} != {want}")


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("REALIZE_FORMAT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class CliCold(Workload):
    """Fresh interpreters: ``check``, ``compare strategy3``, ``run FILE --format json``."""

    name = "cli_cold"

    def __init__(self, seed: int) -> None:
        OUT.mkdir(exist_ok=True)
        self.file = OUT / f"cli_cold-{seed}.scn"
        self.file.write_text(book_text(seed, securities=2, cycles=5), encoding="utf-8")
        self.commands = [
            ["check"],
            ["compare", "strategy3"],
            ["run", str(self.file.relative_to(ROOT)), "--format", "json"],
        ]
        self.traced_ops = 10 * len(self.commands)
        self.env = cli_env()
        self.expected: list[bytes] = []
        self.span_file = OUT / f"cli_cold-{seed}.spans.gz"

    def op(self, i: int):
        argv = self.commands[i % len(self.commands)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "realize", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(self.span_file), *argv]
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=60)
        if self.tracer is not None and done.returncode == 0:
            self.tracer.adopt(spans.load(self.span_file))
        return done

    def warm_up(self) -> None:
        for i in range(len(self.commands)):
            done = self.op(i)
            self._check_exit(i, done)
            self.expected.append(done.stdout)
        if b"match the checked-in fixture" not in self.expected[0]:
            raise Mismatch("realize check did not report a fixture match")
        library = json.dumps(scenario.run(scenario.parse_scenario(
            self.file.read_text(encoding="utf-8"), name=self.file.stem)).to_dict(), indent=2) + "\n"
        if self.expected[2] != library.encode("utf-8"):
            raise Mismatch("CLI JSON output differs from the library report")
        self.reference = digest(*self.expected)

    def _label(self, i: int) -> str:
        return f"call {i} (realize {' '.join(self.commands[i % len(self.commands)])})"

    def _check_exit(self, i: int, done) -> None:
        if done.returncode != 0:
            raise Mismatch(
                f"{self._label(i)} exited {done.returncode}: "
                f"{done.stderr.decode('utf-8', 'replace')[-500:]}"
            )

    def check(self, i: int, done) -> None:
        self._check_exit(i, done)
        if done.stdout != self.expected[i % len(self.commands)]:
            raise Mismatch(f"{self._label(i)}: output differs from the warm-up call")


WORKLOADS = {"deep_book": DeepBook, "path_batch": PathBatch, "cli_cold": CliCold}
