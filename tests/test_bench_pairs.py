"""The pair protocol of tools/bench_pairs.py, with a fake runner: no
benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in METRICS}}


def test_pairs_alternate_which_side_runs_first():
    calls = []
    runs = bench_pairs.alternate(["w", "v"], 3, lambda side, workload:
                                 calls.append((workload, side)) or
                                 result(1.0))
    assert calls == [("w", "A"), ("w", "B"), ("w", "B"), ("w", "A"),
                     ("w", "A"), ("w", "B"), ("v", "A"), ("v", "B"),
                     ("v", "B"), ("v", "A"), ("v", "A"), ("v", "B")]
    assert [pair["first"] for pair in runs["w"]] == ["A", "B", "A"]


@pytest.mark.parametrize("a, b, verdict", [
    ([10.0 + 0.1 * i for i in range(10)], [9.0 + 0.1 * i for i in range(10)],
     "better"),
    # eight wins of ten are not enough for a gain
    ([10.0] * 10, [9.0] * 8 + [11.0] * 2, "same"),
    # a gap inside the parent's interquartile range is not a gain
    ([10.0 + 0.5 * i for i in range(10)],
     [9.9 + 0.5 * i for i in range(10)], "same"),
    ([10.0] * 10, [13.0] * 10, "worse"),
    ([10.0, 20.0] * 5, [10.0, 20.0] * 5, "unresolved"),
    # a wide spread still resolves when every B run beats every A run
    ([30.0, 50.0] * 5, [10.0, 20.0] * 5, "better"),
])
def test_verdicts(a, b, verdict):
    s = bench_pairs.judge(a, b, "lower", 0.25)
    assert s["verdict"] == verdict
    assert s["pairs"] == 10


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.judge([10.0 + 0.1 * i for i in range(10)],
                          [11.0 + 0.1 * i for i in range(10)], "higher", 0.25)
    assert s["wins"] == 10 and s["verdict"] == "better"


def test_unusable_runs_are_reported_not_averaged():
    runs = {"w": [{"first": "A", "A": result(10.0), "B": result(5.0)},
                  {"first": "B", "A": result(10.0),
                   "B": result(1.0, correct=False)},
                  {"first": "A", "A": result(10.0, failed=1),
                   "B": result(1.0)}]}
    summary, reports = bench_pairs.summarize(runs, METRICS)
    assert len(reports) == 2
    assert reports[0].startswith("w pair 1 side B: correct=False")
    assert reports[1].startswith("w pair 2 side A: correct=True failed=1")
    for s in summary["w"].values():
        assert (s["pairs"], s["median_a"], s["median_b"]) == (1, 10.0, 5.0)


def test_no_gain_with_more_failed_operations():
    runs = {"w": [{"first": "AB"[i % 2], "A": result(10.0),
                   "B": result(5.0)} for i in range(10)]}
    runs["w"].append({"first": "A", "A": result(10.0),
                      "B": result(5.0, failed=1)})
    summary, reports = bench_pairs.summarize(runs, METRICS)
    assert len(reports) == 1
    assert {s["verdict"] for s in summary["w"].values()} == {"same"}
    del runs["w"][-1]
    summary, _ = bench_pairs.summarize(runs, METRICS)
    assert {s["verdict"] for s in summary["w"].values()} == {"better"}


def test_main_writes_the_record(tmp_path, monkeypatch, capsys):
    trees = []
    for side, pin in (("a", '"1"'), ("b", '"2"')):
        tree = tmp_path / side
        (tree / "benchmarks" / "out").mkdir(parents=True)
        (tree / "benchmarks" / "out" / "spans.json").write_text("[]")
        (tree / "benchmarks" / "run.py").write_text(f"BLAS_THREADS = {pin}\n")
        (tree / "marker").write_text(side)
        trees.append(tree)
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    seen = []

    def fake(tree, workload, seconds, trace=0):
        # each side runs from a fresh copy of its own tree, without output
        seen.append(((tree / "marker").read_text(), tree.name, workload,
                     seconds, trace, (tree / "benchmarks" / "out").exists()))
        out = result({"a": 10.0, "b": 9.0}[tree.name])
        if trace:
            out["metrics"] = {"enrich.build.p50_s": {
                "value": {"a": 2e-4, "b": 1e-4}[tree.name], "unit": "s"}}
        return out

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "run_benchmark", fake)
    assert bench_pairs.main(["--tag", "t", "--pairs", "2", "--workload",
                             "mbb", str(trees[0]), str(trees[1])]) == 0
    # the pairs alternate untraced; then one traced run per side
    assert seen == [("a", "a", "mbb", 15, 0, False),
                    ("b", "b", "mbb", 15, 0, False),
                    ("b", "b", "mbb", 15, 0, False),
                    ("a", "a", "mbb", 15, 0, False),
                    ("a", "a", "mbb", 15, 1, False),
                    ("b", "b", "mbb", 15, 1, False)]
    record = json.loads((root / "BENCH_t.json").read_text())
    assert {"a", "b", "nproc", "blas_threads", "python", "numpy", "scipy",
            "run_seconds", "runs", "summary", "traced"} <= set(record)
    assert record["run_seconds"] == 15 and len(record["runs"]["mbb"]) == 2
    # the BLAS threads each side's runs were pinned to, not the tool's own
    assert record["blas_threads"] == {
        side: dict.fromkeys(bench_pairs.BLAS_VARS, pin)
        for side, pin in (("A", "1"), ("B", "2"))}
    assert record["summary"]["mbb"]["peak_rss_mb"]["wins"] == 2
    layers = {side: record["traced"]["mbb"][side]["metrics"]
              ["enrich.build.p50_s"]["value"] for side in "AB"}
    assert layers == {"A": 2e-4, "B": 1e-4}
    assert "enrich.build.p50_s" in capsys.readouterr().out


def test_the_pinned_blas_threads_are_read_from_the_runner(tmp_path):
    # benchmarks/run.py sets each variable to its BLAS_THREADS in every run
    assert bench_pairs.pinned_blas_threads(ROOT) == \
        dict.fromkeys(bench_pairs.BLAS_VARS, "1")
    assert bench_pairs.pinned_blas_threads(tmp_path) == \
        dict.fromkeys(bench_pairs.BLAS_VARS)


def test_run_benchmark_passes_the_trace_flag(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout='x\n{"correct": '
                                           'true}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_benchmark(tmp_path, "mbb", 15) == {"correct": True}
    assert bench_pairs.run_benchmark(tmp_path, "mbb", 15, trace=1) == \
        {"correct": True}
    assert [c[c.index("--trace") + 1] for c in calls] == ["0", "1"]


def test_one_tree_on_both_sides_is_a_point_without_a_parent(tmp_path,
                                                            monkeypatch):
    tree = tmp_path / "x"
    (tree / "benchmarks").mkdir(parents=True)
    (tree / "marker").write_text("x")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "x"]):
        subprocess.run(git + cmd, cwd=tree, check=True)
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "run_benchmark",
                        lambda tree, workload, seconds, trace=0: result(10.0))
    assert bench_pairs.main(["--tag", "t", "--pairs", "2", "--workload",
                             "mbb", str(tree), str(tree)]) == 0
    record = json.loads((root / "BENCH_t.json").read_text())
    assert record["a"] == record["b"]
    assert record["a"]["commit"] is not None
    assert {s["verdict"] for s in record["summary"]["mbb"].values()} \
        == {"same"}
