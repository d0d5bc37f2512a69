"""Layer spans for the traced benchmark run, recorded from outside the engine.

A ``Tracer`` replaces module attributes of ``realize`` with timing wrappers,
as the caller sees them (``realize.scenario.apply_event`` is the name
``run()`` calls), and restores the originals afterwards.  The engine's own
files are never edited.  Each span is ``(name, start, end, parent, op, tag)``:
``parent`` is the index of the enclosing span or -1, ``op`` the iteration,
path or call id, and ``tag`` a small value taken from the call (a regime, a
lot count, a line count) that the reductions below need.

Spans stay in memory until ``dump`` writes them out, and ``reduce`` turns
them into the per-layer metrics listed in BENCHMARK.json.  Counts and busy
times are per traced operation, so they do not depend on how many
operations a run traced.
"""

from __future__ import annotations

import gzip
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("scenario", "ledger", "realization", "taxation", "market", "tables", "cli")


def _regime_of_run(args, kwargs, result):
    return result.regime.value


def _open_lots(args, kwargs, result):
    return len(result[0].lots)


def _length(args, kwargs, result):
    return len(result)


def _count_regime_events(args, kwargs, result):
    return (args[1].value, len(result[0]))


def _dsl_lines(args, kwargs, result):
    return args[0].count("\n")


def utf8_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _targets():
    """(module, attribute, span name, tag function) for every wrapped entry point."""
    import realize.cli
    import realize.scenario
    import realize.tables

    sc, tb, cli = realize.scenario, realize.tables, realize.cli
    return [
        (sc, "parse_scenario", "scenario.parse", _dsl_lines),
        (cli, "parse_scenario", "scenario.parse", _dsl_lines),
        (sc, "run", "scenario.run", _regime_of_run),
        (tb, "run", "scenario.run", _regime_of_run),
        (cli, "run", "scenario.run", _regime_of_run),
        (sc, "compare", "scenario.compare", None),
        (cli, "compare", "scenario.compare", None),
        (sc.RunReport, "to_dict", "scenario.to_dict", None),
        (sc, "apply_event", "ledger.apply_event", _open_lots),
        (sc, "realize", "realization.realize", _count_regime_events),
        (sc, "sell_policy", "realization.sell_policy", None),
        (sc, "cover_policy", "realization.cover_policy", None),
        (sc, "tax_timeline", "taxation.tax_timeline", _length),
        (cli, "paper_tables", "tables.paper_tables", None),
        (cli, "_render_run_table", "cli.render_table", utf8_bytes),
        (cli, "_render_compare_table", "cli.render_table", utf8_bytes),
        (cli, "_render_run_csv", "cli.render_csv", utf8_bytes),
    ]


class Tracer:
    """Collects spans in memory; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op: int = -1
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    @contextmanager
    def span(self, name: str, tag=None):
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, tag)

    def wrap(self, name: str, fn, tag_of=None):
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                tag = None if tag_of is None or result is None else tag_of(args, kwargs, result)
                self.spans[index] = (name, start, end, parent, self.op, tag)

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrapped entry points in for the duration of the block."""
        saved = []
        for owner, attr, name, tag_of in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, tag_of))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in a child process under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self.spans)
        for name, start, end, par, _op, tag in spans:
            self.spans.append(
                (name, start, end, parent if par == -1 else base + par, self.op, tag)
            )

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def load(path) -> list[list]:
    with gzip.open(path, "rt", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reduce(spans: list[tuple], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced operations.

    Counts, busy times (inclusive) and self times (minus direct children) are
    divided by ``ops``; means, ratios and the final lot count are not.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    children_of: dict[int, list[int]] = {}
    for index, (name, start, end, parent, _op, _tag) in enumerate(spans):
        duration = end - start
        busy[name] = busy.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] = self_time.get(parent_name, 0.0) - duration
            children_of.setdefault(parent, []).append(index)

    def tags(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    # apply_event cost by position in its run: first and last tenth of the events.
    first: list[float] = []
    last: list[float] = []
    final_lots = 0
    for index, span in enumerate(spans):
        if span[0] != "scenario.run":
            continue
        applied = [spans[c] for c in children_of.get(index, ())
                   if spans[c][0] == "ledger.apply_event"]
        if not applied:
            continue
        tenth = max(1, len(applied) // 10)
        first += [s[2] - s[1] for s in applied[:tenth]]
        last += [s[2] - s[1] for s in applied[-tenth:]]
        if applied[-1][5] is not None:
            final_lots = max(final_lots, applied[-1][5])

    run_busy = {"current": 0.0, "proposed": 0.0}
    realize_calls = {"current": 0, "proposed": 0}
    realize_busy = {"current": 0.0, "proposed": 0.0}
    emitted = 0
    for name, start, end, _parent, _op, tag in spans:
        if name == "scenario.run" and tag is not None:
            run_busy[tag] += end - start
        elif name == "realization.realize" and tag is not None:
            regime, count = tag
            realize_calls[regime] += 1
            realize_busy[regime] += end - start
            emitted += count

    def mean_us(values):
        return statistics.fmean(values) * 1e6 if values else 0.0

    def us_per(name, count):
        return _ratio(busy.get(name, 0.0) * 1e6, count)

    first_us, last_us = mean_us(first), mean_us(last)

    def per_op(total):
        return total / ops

    g = busy.get
    metrics = {
        "ledger.apply_event.calls": per_op(calls.get("ledger.apply_event", 0)),
        "ledger.apply_event.busy_s": per_op(g("ledger.apply_event", 0.0)),
        "ledger.apply_event.us_per_call": us_per("ledger.apply_event", calls.get("ledger.apply_event", 0)),
        "ledger.apply_event.us_first_decile": first_us,
        "ledger.apply_event.us_last_decile": last_us,
        "ledger.growth": _ratio(last_us, first_us),
        "ledger.open_lots_final": final_lots,
        "realization.realize.calls.current": per_op(realize_calls["current"]),
        "realization.realize.calls.proposed": per_op(realize_calls["proposed"]),
        "realization.realize.busy_s.current": per_op(realize_busy["current"]),
        "realization.realize.busy_s.proposed": per_op(realize_busy["proposed"]),
        "realization.policy.busy_s": per_op(g("realization.sell_policy", 0.0) + g("realization.cover_policy", 0.0)),
        "realization.events_emitted": per_op(emitted),
        "scenario.run.proposed_over_current": _ratio(run_busy["proposed"], run_busy["current"]),
        "scenario.parse.busy_s": per_op(g("scenario.parse", 0.0)),
        "scenario.parse.us_per_line": us_per("scenario.parse", sum(tags("scenario.parse"))),
        "scenario.run.self_s": per_op(self_time.get("scenario.run", 0.0)),
        "scenario.construct.us_per_scenario": us_per("scenario.construct", sum(tags("scenario.construct"))),
        "market.price_path.us_per_path": us_per("market.price_path", calls.get("market.price_path", 0)),
        "taxation.tax_timeline.busy_s": per_op(g("taxation.tax_timeline", 0.0)),
        "taxation.lines": per_op(sum(tags("taxation.tax_timeline"))),
        "cli.render_json.busy_s": per_op(g("cli.render_json", 0.0)),
        "cli.render_table.busy_s": per_op(g("cli.render_table", 0.0)),
        "cli.render_csv.busy_s": per_op(g("cli.render_csv", 0.0)),
        "cli.output_bytes": per_op(sum(tags("cli.render_json") + tags("cli.render_table") + tags("cli.render_csv"))),
        "tables.paper_tables.busy_s": per_op(g("tables.paper_tables", 0.0)),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = per_op(sum(
            (t for name, t in self_time.items() if name.split(".", 1)[0] == layer), 0.0
        ))
    return metrics
