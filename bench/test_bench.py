"""Tests of the benchmark itself.

    python -m pytest bench

They cover seeded determinism of the inputs, a smoke-size run of every
workload with no failed operation, traced runs reproducing the untraced
output digest, per-operation layer totals, the recorded-digest check and
the refusal to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE = {"deep_book": {"cycles": 4}, "path_batch": {"count": 16}, "cli_cold": {}}
TRACED_OPS = {"deep_book": 4, "path_batch": 16, "cli_cold": 30}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_same_seed_gives_byte_identical_inputs():
    assert workloads.book_text(7).encode() == workloads.book_text(7).encode()
    assert workloads.book_text(7) != workloads.book_text(8)
    assert workloads.path_specs(7) == workloads.path_specs(7)
    assert workloads.path_specs(7) != workloads.path_specs(8)


def test_book_parses_to_the_stated_size():
    wl = workloads.DeepBook(3)
    assert wl.events == 10 * 160 * 5
    assert len(workloads.complete(wl.op(0))[0][0].events) > 0


@pytest.mark.parametrize("name", SMOKE)
def test_smoke_run_has_no_errors(name):
    result, record = harness.run_workload(name, 1, 0.0, False, SMOKE[name])
    assert result["correct"], record
    assert result["failed"] == 0 and record["error_rate"] == 0
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", SMOKE)
def test_traced_run_gives_the_untraced_digest(name):
    untraced, plain = harness.run_workload(name, 2, 0.0, False, SMOKE[name])
    traced, with_spans = harness.run_workload(name, 2, 0.0, True, SMOKE[name])
    assert untraced["correct"] and traced["correct"], with_spans
    assert with_spans["traced_ops"] == TRACED_OPS[name]
    assert plain["output_digest"] == with_spans["output_digest"]
    assert set(traced["metrics"]) == names("per_layer")


def test_layer_totals_are_per_traced_operation():
    one_op = [
        ("bench.op", 0.0, 1.0, -1, 0, None),
        ("ledger.apply_event", 0.125, 0.375, 0, 0, 5),
        ("taxation.tax_timeline", 0.5, 0.625, 0, 0, 3),
    ]
    two_ops = one_op + [(n, a + 2, b + 2, p + 3 if p >= 0 else p, 1, t) for n, a, b, p, _, t in one_op]
    assert spans.reduce(one_op, 1) == spans.reduce(two_ops, 2)
    assert spans.reduce(one_op, 1)["ledger.apply_event.calls"] == 1


@pytest.mark.parametrize("recorded", [
    lambda workload, seed: "0" * 64,  # the outputs changed
    lambda workload, seed: None,  # no digest to compare with, not even the canary's
    lambda workload, seed: None if seed == 7 else "0" * 64,  # an unrecorded seed meets the canary
])
def test_changed_or_unrecorded_output_fails_the_run(monkeypatch, recorded):
    monkeypatch.setattr(harness, "recorded_digest", recorded)
    result, record = harness.run_workload("path_batch", 7, 0.0, False)
    assert not result["correct"]
    assert result["failed"] == 1 and record["error_rate"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "path_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
