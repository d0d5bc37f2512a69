"""The measuring loop of the benchmark: warm-up, timed operations, checks, metrics.

Imported by ``run.py`` once ``src`` of the checkout is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import spans
import workloads
from clock import Clock, calibrate, rescale
from workloads import BENCH, OUT, ROOT, SRC

SETUP_REPEATS = 7
PROBE_REPEATS = 7
MIN_OPS = 3
CANARY_SEED = 1


def _child(cmd: list[str]) -> float:
    """Wall time of one child process that must succeed."""
    start = perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=workloads.cli_env(), stdout=subprocess.DEVNULL,
                   stderr=subprocess.PIPE, timeout=60, check=True)
    return perf_counter() - start


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time for a fresh interpreter to import realize and build the inputs,
    rescaled as in ``Clock`` and raw."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    scaled, raw = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        seconds = _child(cmd)
        after = calibrate()
        raw.append(seconds)
        scaled.append(rescale(seconds, before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def interpreter_probe() -> tuple[float, float]:
    """(bare interpreter start, extra time of ``import realize.cli``), medians."""
    bare, loaded = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(_child([sys.executable, "-c", "pass"]))
        loaded.append(_child([sys.executable, "-c", "import realize.cli"]))
    interpreter = statistics.median(bare)
    return interpreter, statistics.median(loaded) - interpreter


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown: git unavailable"
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "realize").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


class Loop:
    """Counts and times of the operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.done: list[int] = []
        self.items = 0
        self.clock = Clock()
        self.traced: dict[int, float] = {}

    def fail(self, message: str | None = None) -> None:
        self.failed += 1
        if message is None:
            traceback.print_exc(file=sys.stderr)
        else:
            print(f"bench: {message}", file=sys.stderr)

    def step(self, wl, i: int, tracer=None) -> None:
        """Run operation ``i`` (traced when ``tracer`` is given) and check its output."""
        self.attempted += 1
        try:
            if tracer is None:
                out = self.clock.time(i, lambda: wl.op(i))
            else:
                out, elapsed = _traced_op(wl, i, tracer)
            wl.check(i, out)
        except workloads.Mismatch as err:
            self.fail(str(err))
            return
        except Exception:  # an engine error in one operation must not stop the run
            self.fail()
            return
        if tracer is None:
            self.done.append(i)
            self.items += wl.items(i)
        else:
            self.traced[i] = elapsed

    def latencies(self, scaled: bool = True) -> list[float]:
        """Seconds per successful untraced operation."""
        self.clock.flush()
        times = self.clock.scaled if scaled else self.clock.raw
        return [times[i] for i in self.done]


def _traced_op(wl, i: int, tracer):
    tracer.op = i
    wl.trace_with(tracer)
    try:
        with tracer.installed():
            start = perf_counter()
            with tracer.span("bench.op"):
                out = workloads.complete(wl.op(i))
            elapsed = perf_counter() - start
    finally:
        wl.trace_with(None)
    return out, elapsed


def warm_up(wl, loop: Loop, check_recorded: bool, seed: int) -> bool:
    """Untimed first pass; sets the output digest every later operation must repeat.

    With ``check_recorded``, the digest must equal the one in digests.json.
    For a seed not recorded there, ``CANARY_SEED`` is warmed up and compared
    instead, so changed outputs fail the run whatever its seed.
    """
    loop.attempted += 1
    try:
        wl.warm_up()
        if check_recorded:
            if recorded_digest(wl.name, seed) is None:
                seed, wl = CANARY_SEED, workloads.WORKLOADS[wl.name](CANARY_SEED)
                wl.warm_up()
            _compare_recorded(wl, seed)
    except workloads.Mismatch as err:
        loop.fail(f"warm-up: {err}")
        return False
    except Exception:  # an engine error leaves no reference to check against
        loop.fail()
        return False
    return True


def _compare_recorded(wl, seed: int) -> None:
    want = recorded_digest(wl.name, seed)
    if want is None:
        raise workloads.Mismatch(f"{wl.name} seed {seed}: no digest recorded; run record_digests.py")
    if want != wl.reference:
        raise workloads.Mismatch(
            f"{wl.name} seed {seed}: output digest {wl.reference} != recorded {want}"
        )


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (printed result, full record).

    ``sizes`` overrides the workload's input size (smoke tests); the recorded
    digests in digests.json hold only for the default sizes.
    """
    wl = workloads.WORKLOADS[name](seed, **(sizes or {}))
    interpreter_s, import_s = interpreter_probe()
    loop = Loop()
    record: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "digest_recorded": sizes is None and recorded_digest(name, seed) is not None,
    }
    metrics: dict[str, dict] = {}
    if warm_up(wl, loop, sizes is None, seed):
        record["output_digest"] = wl.reference
        tracer = spans.Tracer() if trace else None
        traced_ops = wl.traced_ops if trace else 0
        deadline = perf_counter() + seconds
        i = 0
        while i < max(MIN_OPS, traced_ops) or perf_counter() < deadline:
            loop.step(wl, i)
            if i < traced_ops:  # the same operations are traced in every run
                loop.step(wl, i, tracer)
            i += 1
        if loop.done:
            metrics = (_layer_metrics(loop, tracer, interpreter_s, import_s, record) if trace
                       else _end_to_end(loop, name, seed, record))
    record["attempted"], record["failed"] = loop.attempted, loop.failed
    record["error_rate"] = loop.failed / loop.attempted
    result = {
        "correct": loop.failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    record["result"] = result
    return result, record


def _summary(seconds: list[float], items: int) -> dict[str, float]:
    ms = [x * 1e3 for x in seconds]
    return {
        "items_per_s": items / sum(seconds),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": percentile(ms, 90),
        "latency_p99_ms": percentile(ms, 99),
        "latency_max_ms": max(ms),
    }


def _end_to_end(loop: Loop, name: str, seed: int, record: dict) -> dict:
    scaled = _summary(loop.latencies(), loop.items)
    raw = _summary(loop.latencies(scaled=False), loop.items)
    setup_s, raw["setup_s"] = setup_seconds(name, seed)
    record["samples"] = len(loop.done)
    record["rescaled"] = scaled
    record["raw"] = raw
    per_item = {
        "deep_book": {"events_per_s": scaled["items_per_s"]},
        "path_batch": {"paths_per_s": scaled["items_per_s"],
                       "path_p50_us": scaled["latency_p50_ms"] * 1e3,
                       "path_p99_us": scaled["latency_p99_ms"] * 1e3},
        "cli_cold": {"cli_p50_ms": scaled["latency_p50_ms"],
                     "cli_p90_ms": scaled["latency_p90_ms"]},
    }[name]
    record["workload_metrics"] = {**per_item, "error_rate": loop.failed / loop.attempted}
    return {
        "items_per_s": {"value": scaled["items_per_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": scaled["latency_p50_ms"], "unit": "ms"},
        "latency_p90_ms": {"value": scaled["latency_p90_ms"], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _layer_metrics(loop: Loop, tracer, interpreter_s: float, import_s: float, record: dict) -> dict:
    values = spans.reduce(tracer.spans, len(loop.traced))
    values["cli.import_s"] = import_s
    values["cli.interpreter_s"] = interpreter_s
    loop.clock.flush()
    done = set(loop.done)
    pairs = [t / loop.clock.raw[i] for i, t in loop.traced.items() if i in done]
    values["trace.slowdown"] = statistics.median(pairs) if pairs else 0.0
    spans_file = OUT / f"{record['workload']}-seed{record['seed']}.spans.jsonl.gz"
    tracer.dump(spans_file)
    record["spans_file"] = str(spans_file.relative_to(ROOT))
    record["traced_ops"] = len(loop.traced)
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
