"""Operation timing rescaled to the speed of the machine measured around it.

On a shared two-CPU host the speed of Python code drifts between phases that
last seconds: a fixed loop took 6.3 ms in some phases and 11 ms in others,
and a workload's median moved by up to 40% between whole runs.  ``Clock``
therefore re-runs ``calibrate`` after every ``CAL_EVERY_S`` of timed work and
rescales the work timed since the previous calibration to the reference
speed, using the mean of the two calibrations around it.  On the reference
host in a quiet phase, a rescaled time reads close to the raw one.

The calibration runs in the benchmark's own process.  A change that acts on
the whole process (``gc`` thresholds, ``gc.freeze``, a heap grown by a
module-level cache, interning) moves it as well, so the rescaled time partly
cancels such a change; the raw times are kept for that reason.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter
from types import GeneratorType

# ``calibrate`` on an Intel Xeon at 2.1 GHz (2 vCPUs, Python 3.11) in a quiet phase.
REFERENCE_CAL_S = 0.016
CAL_EVERY_S = 0.1
CHASE_SIZE = 300_007


@dataclass(frozen=True)
class _Probe:
    n: int
    label: str
    pair: tuple[int, int]


@functools.cache
def _chase_table() -> list[int]:
    return [(i * 7919) % CHASE_SIZE for i in range(CHASE_SIZE)]


def calibrate() -> float:
    """Seconds taken by fixed pure-Python work that never touches realize.

    Three parts, each slowed in its own way when the host is busy: dict and
    string work (interpreter dispatch), frozen-dataclass churn (allocation
    and the collector), and a pointer chase over a 300,000-entry list
    (cache misses).  Together they track the workloads' speed far better
    than any one part alone.
    """
    chase = _chase_table()
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        k = (i * 7919) % 997
        table[k] = table.get(k, 0) + len(f"{i}:{k}")
    live: list[_Probe] = []
    for i in range(6_000):
        live.append(_Probe(i, "x", (i, i + 1)))
        if len(live) > 2_000:
            live = live[1_000:]
    total = 0
    for i in range(0, CHASE_SIZE, 10):
        total += chase[chase[i]]
    return perf_counter() - start


def rescale(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` as it would read at the reference speed of ``calibrate``."""
    return seconds * 2 * REFERENCE_CAL_S / (cal_before + cal_after)


class Clock:
    """Seconds per operation, raw and rescaled.  Calibration is never timed."""

    def __init__(self) -> None:
        self.last_cal = calibrate()
        self.pending: list[tuple[int, float]] = []
        self.pending_s = 0.0
        self.raw: dict[int, float] = {}
        self.scaled: dict[int, float] = {}

    def add(self, op: int, seconds: float) -> None:
        self.raw[op] = self.raw.get(op, 0.0) + seconds
        self.pending.append((op, seconds))
        self.pending_s += seconds
        if self.pending_s >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        cal = calibrate()
        for op, seconds in self.pending:
            self.scaled[op] = self.scaled.get(op, 0.0) + rescale(seconds, self.last_cal, cal)
        self.last_cal = cal
        self.pending.clear()
        self.pending_s = 0.0

    def time(self, op: int, call):
        """Run ``call()``; a generator is timed stage by stage, pausing where it yields."""
        start = perf_counter()
        out = call()
        elapsed = perf_counter() - start
        if isinstance(out, GeneratorType):
            stages = out
            while True:
                self.add(op, elapsed)
                start = perf_counter()
                try:
                    next(stages)
                except StopIteration as stop:
                    elapsed = perf_counter() - start
                    out = stop.value
                    break
                elapsed = perf_counter() - start
        self.add(op, elapsed)
        return out
