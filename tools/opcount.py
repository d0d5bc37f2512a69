"""Count the engine bytecode a path_batch operation executes, and the records it builds.

    python3 tools/opcount.py [--root DIR] [--seed N] [--ops K]

Runs operations ``0 .. K-1`` of the path_batch workload of ``bench/workloads.py``
(seed ``N``) in the checkout ``DIR`` (by default the one holding this tool),
after one untraced warm-up operation, counting every instruction an engine
frame executes: with ``sys.monitoring`` INSTRUCTION events where the
interpreter has them (Python 3.12 on), and otherwise under ``sys.settrace``
with opcode events on.  Since 3.12 ``sys.settrace`` is built on that
monitoring and misses the opcodes of a function called from an untraced
frame, so it would count next to nothing there.  An engine frame is one whose
globals belong to the ``realize`` package, so the constructors ``record``
generates with ``exec`` count too.
It prints, per operation:

* the executed engine instructions in total and for the 15 functions that
  execute the most, each named by module, name and first line, with every
  generated record constructor summed on one line;
* the records built, by class, counted at the calls of those constructors.

Only instructions are counted, never time, so the figures are exact and the
same on every run of one checkout and Python version; the bytecode differs
between versions, so compare counts within one interpreter only.  Work done
in C between instructions is invisible to the count: the ``type.__call__`` of
a class call (its argument tuple, the ``__new__`` lookup and
``object.__init__``'s check) counts as nothing beyond the call instruction,
although on Python 3.11 it takes about 40% of the time a small record takes
to build.  So the count cannot see the saving of calling the generated
``__new__`` directly, and reads one instruction more per such call, to load
the class.  The tool reads the
checkout and writes nothing to it (no bytecode cache, no ``bench/out``).
A reader that closes the pipe early (``| head -1``) ends it quietly, with
status 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

GENERATED = "<generated record constructors>"
TOP = 15  # functions listed


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to count")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--ops", type=int, default=64, help="operations to trace")
    return p.parse_args(argv)


def load_workload(root: Path, seed: int):
    """The path_batch workload of ``root``, imported with its ``src`` and ``bench`` first on the path."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    return workloads.PathBatch(seed)


def constructed(frame) -> type | None:
    """The class a generated record constructor is building, or None for any other frame.

    ``record`` compiles its constructors from a string: a ``__new__`` whose
    first argument is the class, or (in older checkouts) an ``__init__`` whose
    first argument is the instance.
    """
    code = frame.f_code
    if code.co_filename != "<string>" or code.co_name not in ("__new__", "__init__"):
        return None
    first = frame.f_locals[code.co_varnames[0]]
    return first if isinstance(first, type) else type(first)


def engine_key(frame, records: Counter) -> str | None:
    """The line an engine frame's instructions count on, or None for a frame outside the engine.

    A generated record constructor counts on one shared line, and the record it builds is counted.
    """
    if not frame.f_globals.get("__name__", "").startswith("realize"):
        return None
    built = constructed(frame)
    if built is not None:
        records[built.__qualname__] += 1
        return GENERATED
    return f"{frame.f_globals['__name__']}.{frame.f_code.co_name} (line {frame.f_code.co_firstlineno})"


def count(workload, ops: int) -> tuple[Counter, Counter]:
    """(instructions by function, records built by class) over operations ``0 .. ops-1``."""
    instructions: Counter = Counter()
    records: Counter = Counter()

    def run() -> None:
        for i in range(ops):
            workload.op(i)

    if hasattr(sys, "monitoring"):
        monitored(run, instructions, records)
    else:
        traced(run, instructions, records)
    return instructions, records


def traced(run, instructions: Counter, records: Counter) -> None:
    """``run()`` under ``sys.settrace``, with opcode events turned on in every engine frame."""

    def trace(frame, event, arg):
        key = engine_key(frame, records)
        if key is None:
            return None
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode":
                instructions[key] += 1
            return local

        return local

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)


def monitored(run, instructions: Counter, records: Counter) -> None:
    """``run()`` under ``sys.monitoring``: each engine code object gets INSTRUCTION events when it first
    starts, and every other code object stops reporting its starts."""
    mon = sys.monitoring
    tool, events = mon.PROFILER_ID, mon.events
    keys: dict = {}  # engine code object -> its line

    def start(code, offset):
        key = engine_key(sys._getframe(1), records)
        if key is None:
            return mon.DISABLE
        if code not in keys:
            keys[code] = key
            mon.set_local_events(tool, code, events.INSTRUCTION)
        return None

    def instruction(code, offset):
        instructions[keys[code]] += 1

    mon.use_tool_id(tool, "opcount")
    mon.register_callback(tool, events.PY_START, start)
    mon.register_callback(tool, events.INSTRUCTION, instruction)
    mon.set_events(tool, events.PY_START)
    try:
        run()
    finally:
        mon.set_events(tool, events.NO_EVENTS)
        for code in keys:
            mon.set_local_events(tool, code, events.NO_EVENTS)
        mon.register_callback(tool, events.PY_START, None)
        mon.register_callback(tool, events.INSTRUCTION, None)
        mon.free_tool_id(tool)
        mon.restart_events()


def report(instructions: Counter, records: Counter, ops: int) -> str:
    total = sum(instructions.values())
    lines = [f"engine instructions per operation: {total / ops:,.1f} ({total:,} over {ops} operations)"]
    for key, n in instructions.most_common(TOP):
        lines.append(f"  {n / ops:>10,.1f}  {100 * n / total:5.1f}%  {key}")
    built = sum(records.values())
    lines.append(f"records built per operation: {built / ops:,.1f}")
    for name, n in sorted(records.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {n / ops:>10,.1f}  {name}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = load_workload(args.root.resolve(), args.seed)
    workload.op(0)  # one-time work (first-use caches) stays out of the count
    instructions, records = count(workload, args.ops)
    try:
        print(report(instructions, records, args.ops))
        sys.stdout.flush()
    except BrokenPipeError:  # a closed pipe is the reader's choice, not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the interpreter's exit flush cannot fail again
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
