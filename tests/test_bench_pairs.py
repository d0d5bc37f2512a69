"""``tools/bench_pairs.py``: its summary arithmetic and its pairing, with no benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(parent, change, metric):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_quartiles_are_the_inclusive_ones(tool):
    assert tool.quartiles([1, 2, 3, 4, 5]) == {"q1": 2, "median": 3, "q3": 4}
    assert tool.quartiles([10, 20]) == {"q1": 12.5, "median": 15, "q3": 17.5}


def test_a_higher_is_better_gain(tool):
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    change = [110, 111, 109, 112, 108, 110, 99, 110, 110, 111]
    s = tool.summarize(pairs_of(parent, change, "items_per_s"), {"items_per_s": "higher"})["items_per_s"]
    assert s["parent"] == {"q1": 99.25, "median": 100, "q3": 100.75}
    assert s["change"]["median"] == 110
    assert s["wins"] == 9 and s["parent_iqr"] == 1.5
    assert s["median_ratio"] == pytest.approx(1.1)
    assert s["ratios"][0] == pytest.approx(1.1) and s["ratios"][6] == pytest.approx(99 / 103)
    assert s["gain_holds"]


def test_a_lower_is_better_metric_counts_falls_as_wins(tool):
    parent = [50.0, 52.0, 48.0, 51.0]
    change = [40.0, 53.0, 41.0, 42.0]
    s = tool.summarize(pairs_of(parent, change, "latency_p50_ms"), {"latency_p50_ms": "lower"})["latency_p50_ms"]
    assert s["wins"] == 3
    assert not s["gain_holds"]  # 3 of 4 is under nine in ten


def test_a_median_gain_inside_the_parent_spread_does_not_hold(tool):
    parent = [90, 110, 95, 105, 100]
    change = [101, 111, 96, 106, 102]
    s = tool.summarize(pairs_of(parent, change, "items_per_s"), {"items_per_s": "higher"})["items_per_s"]
    assert s["wins"] == 5 and s["parent_iqr"] == 10
    assert not s["gain_holds"]


def test_pairs_alternate_and_one_label_collects_several_calls(tool, tmp_path, monkeypatch):
    spec = {"end_to_end": [{"name": "items_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]}
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    order = []

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        order.append(side)
        value = {"parent": 100.0, "change": 120.0}[side] + len(order)
        metrics = {"items_per_s": {"value": value}, "setup_s": {"value": 0.5}}
        record = {"python": "3.x", "nproc": 2, "commit": f"{side}-commit", "src_sha256": f"{side}-hash"}
        return {"correct": True, "metrics": metrics}, record

    monkeypatch.setattr(tool, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    common = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
              "--pairs", "3", "--seconds", "1", "--label", "t"]
    assert tool.main([*common, "--workload", "deep_book", "--seed", "1"]) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert tool.main([*common, "--workload", "cli_cold", "--seed", "1"]) == 0
    data = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert set(data["runs"]) == {"deep_book", "cli_cold"}
    assert data["parent"] == {
        "commit": "parent-commit", "src_sha256": "parent-hash", "bench_sha256": tool.bench_digest(tmp_path / "parent"),
        "bytecode_cache": False,
    }
    run = data["runs"]["deep_book"]["1"]
    assert [p["first"] for p in run["pairs"]] == ["parent", "change", "parent"]
    assert run["summary"]["items_per_s"]["wins"] == 3
    assert run["summary"]["setup_s"]["wins"] == 0


def write(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def test_the_harness_digest_reads_bench_py_files_and_benchmark_json_only(tool, tmp_path):
    files = {"BENCHMARK.json": "{}", "bench/run.py": "a", "bench/spans.py": "b"}
    write(tmp_path / "one", files)
    write(tmp_path / "two", {**files, "bench/README.md": "notes", "bench/out/x.py": "output", "src/m.py": "code"})
    digest = tool.bench_digest(tmp_path / "one")
    assert len(digest) == 64 and digest == tool.bench_digest(tmp_path / "two")
    for name, text in [("bench/spans.py", "c"), ("bench/new.py", ""), ("BENCHMARK.json", "[]")]:
        write(tmp_path / name.replace("/", "_"), {**files, name: text})
        assert tool.bench_digest(tmp_path / name.replace("/", "_")) != digest, name
    # Names count, not just contents: the same bytes under another file name differ.
    write(tmp_path / "renamed", {"BENCHMARK.json": "{}", "bench/run.py": "a", "bench/spanz.py": "b"})
    assert tool.bench_digest(tmp_path / "renamed") != digest


def test_a_label_refuses_runs_of_another_harness(tool, tmp_path, monkeypatch):
    spec = {"end_to_end": [{"name": "items_per_s", "better": "higher"}]}
    for side in ("parent", "change"):
        write(tmp_path / side, {"BENCHMARK.json": json.dumps(spec), "bench/run.py": side})

    def fake_run(checkout, workload, seed, seconds):
        record = {"python": "3.x", "nproc": 2, "commit": "c", "src_sha256": "same"}
        return {"correct": True, "metrics": {"items_per_s": {"value": 1.0}}}, record

    monkeypatch.setattr(tool, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pairs", "2",
            "--seconds", "1", "--label", "t", "--workload", "path_batch"]
    assert tool.main([*args, "--seed", "1"]) == 0
    write(tmp_path / "parent", {"bench/run.py": "edited"})
    with pytest.raises(SystemExit, match="another parent source, harness or bytecode-cache state"):
        tool.main([*args, "--seed", "2"])


def test_only_checkouts_in_the_same_bytecode_cache_state_are_paired(tool, tmp_path, monkeypatch):
    spec = {"end_to_end": [{"name": "items_per_s", "better": "higher"}]}
    for side in ("parent", "change"):
        write(tmp_path / side, {"BENCHMARK.json": json.dumps(spec), "bench/run.py": "", "src/realize/m.py": ""})
    ran = []

    def fake_run(checkout, workload, seed, seconds):
        ran.append(checkout.name)
        record = {"python": "3.x", "nproc": 2, "commit": "c", "src_sha256": checkout.name}
        return {"correct": True, "metrics": {"items_per_s": {"value": 1.0}}}, record

    monkeypatch.setattr(tool, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pairs", "2",
            "--seconds", "1", "--workload", "path_batch", "--seed", "1"]
    cache = "src/realize/__pycache__/m.{}.pyc"
    # Bytecode of another interpreter does not count.
    write(tmp_path / "parent", {cache.format("other-99"): ""})
    assert not tool.bytecode_cached(tmp_path / "parent")
    assert tool.main([*args, "--label", "clean"]) == 0
    data = json.loads((tmp_path / "BENCH_clean.json").read_text(encoding="utf-8"))
    assert (data["parent"]["bytecode_cache"], data["change"]["bytecode_cache"]) == (False, False)

    write(tmp_path / "parent", {cache.format(sys.implementation.cache_tag): ""})
    assert tool.bytecode_cached(tmp_path / "parent")
    ran.clear()
    with pytest.raises(SystemExit, match="only the parent checkout has bytecode"):
        tool.main([*args, "--label", "mixed"])
    assert not ran and not (tmp_path / "BENCH_mixed.json").exists()
    # The clean label refuses the cached parent's runs too.
    write(tmp_path / "change", {cache.format(sys.implementation.cache_tag): ""})
    with pytest.raises(SystemExit, match="bytecode-cache state"):
        tool.main([*args, "--label", "clean"])
    assert tool.main([*args, "--label", "cached"]) == 0
    data = json.loads((tmp_path / "BENCH_cached.json").read_text(encoding="utf-8"))
    assert (data["parent"]["bytecode_cache"], data["change"]["bytecode_cache"]) == (True, True)


def test_an_exported_tree_records_the_commit_it_is_given(tool, tmp_path, monkeypatch):
    # A side that is no git checkout used to be recorded as "unknown: not a git checkout".
    spec = {"end_to_end": [{"name": "items_per_s", "better": "higher"}]}
    for side in ("parent", "change"):
        write(tmp_path / side, {"BENCHMARK.json": json.dumps(spec), "bench/run.py": ""})

    def fake_run(checkout, workload, seed, seconds):
        record = {"python": "3.x", "nproc": 2, "commit": "unknown: not a git checkout", "src_sha256": checkout.name}
        return {"correct": True, "metrics": {"items_per_s": {"value": 1.0}}}, record

    monkeypatch.setattr(tool, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pairs", "2",
            "--seconds", "1", "--workload", "cli_cold", "--seed", "1"]
    assert tool.main([*args, "--label", "t", "--parent-commit", "abc123", "--change-commit", "def456"]) == 0
    data = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert (data["parent"]["commit"], data["change"]["commit"]) == ("abc123", "def456")
    assert tool.main([*args, "--label", "u", "--change-commit", "def456"]) == 0
    data = json.loads((tmp_path / "BENCH_u.json").read_text(encoding="utf-8"))
    assert (data["parent"]["commit"], data["change"]["commit"]) == ("unknown: not a git checkout", "def456")
    # A git checkout names its own commit: a given one is refused before any run.
    (tmp_path / "change" / ".git").mkdir()
    with pytest.raises(SystemExit, match="the change checkout is a git checkout"):
        tool.main([*args, "--label", "v", "--change-commit", "def456"])
    assert not (tmp_path / "BENCH_v.json").exists()
