"""Run alternated benchmark pairs of two source trees and judge the change.

    python3 tools/bench_pairs.py --tag T [--pairs 10] [--workload W ...] A B

A is the parent tree and B the change. Both are copied fresh (without
``.git``, caches and benchmark output) into one temporary directory, as
``a/`` and ``b/``, so the two sides run from the same layout. For each
workload (every workload of ``BENCHMARK.json`` by default) the tool runs
``--pairs`` pairs of ``benchmarks/run.py --workload W --seconds S``, S being
``BENCHMARK.json``'s ``run_seconds``, and flips which side runs first every
pair. A run whose result is not ``correct``, or that has failed operations,
is reported and leaves its pair out of the medians.

Per workload and end-to-end metric it prints both medians, the parent's
quartiles and how many pairs the change won by the metric's ``better``,
with a verdict: "better" needs at least nine tenths of the pairs won, a
median gap above the parent's interquartile range and no more failed
operations than the parent; "worse" is a median beyond the metric's
bound; "unresolved" is a side whose interquartile range exceeds the bound,
unless every run of the change reads better than every run of the
parent; anything else is "same". After the pairs, each side runs each
workload once more with ``--trace 1``, whose per-layer medians (the
``*.p50_s`` metrics) it prints side by side. It writes ``BENCH_<T>.json``
at the repository root with every run's result object, the traced ones
under ``traced``, both commits, the core count, the BLAS-thread
variables as each side's ``benchmarks/run.py`` sets them for its runs (its
``BLAS_THREADS``), the Python, numpy and scipy versions and the run
seconds.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", "out", "BENCH_*.json")


def commit(tree: Path) -> str | None:
    """The tree's commit, marked "-dirty" when its files differ from it;
    None outside a git checkout."""
    out = subprocess.run(["git", "describe", "--always", "--dirty",
                          "--abbrev=40"], cwd=tree, capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def pinned_blas_threads(tree: Path) -> dict:
    """The BLAS-thread variables as the tree's ``benchmarks/run.py`` pins
    them in every run, from its ``BLAS_THREADS``; None when it pins none."""
    path = tree / "benchmarks" / "run.py"
    value = None
    if path.is_file():
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1 and
                    getattr(node.targets[0], "id", None) == "BLAS_THREADS"):
                value = ast.literal_eval(node.value)
    return dict.fromkeys(BLAS_VARS, value)


def run_benchmark(tree: Path, workload: str, seconds: float,
                  trace: int = 0) -> dict:
    """The result object that ``benchmarks/run.py`` prints last, or an
    incorrect result holding the error when it printed none."""
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                          workload, "--seconds", str(seconds), "--trace",
                          str(trace)],
                         cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": out.stderr.strip()[-2000:]}


def alternate(workloads, pairs: int, run) -> dict:
    """``pairs`` pairs per workload of ``run(side, workload)``, side "A"
    first in even pairs and "B" first in odd ones."""
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i in range(pairs):
            first = "AB"[i % 2]
            pair = {"first": first}
            for side in (first, "BA"[i % 2]):
                pair[side] = run(side, workload)
            runs[workload].append(pair)
    return runs


def usable(result: dict) -> bool:
    return bool(result.get("correct")) and result.get("failed", 1) == 0


def judge(a: list, b: list, better: str, bound: float) -> dict:
    """Medians, the parent's quartiles, the change's wins and the verdict
    for one metric over paired values (A, B)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    quart_a = statistics.quantiles(a, n=4) if len(a) > 1 else [med_a] * 3
    quart_b = statistics.quantiles(b, n=4) if len(b) > 1 else [med_b] * 3
    iqr_a, iqr_b = quart_a[2] - quart_a[0], quart_b[2] - quart_b[0]
    wins = sum(sign * (y - x) < 0.0 for x, y in zip(a, b))
    change = (med_b - med_a) / med_a if med_a else 0.0
    apart = max(sign * y for y in b) < min(sign * x for x in a)
    if sign * change > bound:
        verdict = "worse"
    elif (iqr_a > bound * abs(med_a) or iqr_b > bound * abs(med_b)) \
            and not apart:
        verdict = "unresolved"
    elif wins >= math.ceil(0.9 * len(a)) and sign * (med_b - med_a) < -iqr_a:
        verdict = "better"
    else:
        verdict = "same"
    return {"median_a": med_a, "median_b": med_b,
            "quartiles_a": [quart_a[0], quart_a[2]], "change": change,
            "wins": wins, "pairs": len(a), "verdict": verdict}


def summarize(runs: dict, metrics: list) -> tuple[dict, list]:
    """Per workload and end-to-end metric, ``judge`` over the pairs whose
    two runs are usable; and a report line per unusable run."""
    summary, reports = {}, []
    for workload, pairs in runs.items():
        kept = []
        for i, pair in enumerate(pairs):
            bad = [side for side in "AB" if not usable(pair[side])]
            for side in bad:
                result = pair[side]
                reports.append(
                    f"{workload} pair {i} side {side}: correct="
                    f"{result.get('correct')} failed={result.get('failed')} "
                    f"{result.get('error', '')}".rstrip())
            if not bad:
                kept.append(pair)
        summary[workload] = {} if not kept else {
            m["name"]: judge([p["A"]["metrics"][m["name"]]["value"]
                              for p in kept],
                             [p["B"]["metrics"][m["name"]]["value"]
                              for p in kept], m["better"], m["bound"])
            for m in metrics}
        # a gain does not count when more operations fail than at A
        failed = {side: sum(p[side].get("failed", 0) for p in pairs)
                  for side in "AB"}
        for s in summary[workload].values():
            if s["verdict"] == "better" and failed["B"] > failed["A"]:
                s["verdict"] = "same"
    return summary, reports


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("a", type=Path, help="parent source tree")
    parser.add_argument("b", type=Path, help="changed source tree")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees, commits = {}, {}
        for side, src in (("A", args.a), ("B", args.b)):
            trees[side] = Path(tmp) / side.lower()
            commits[side] = {"path": str(src), "commit": commit(src)}
            shutil.copytree(src, trees[side], ignore=SKIP)
        blas = {side: pinned_blas_threads(trees[side]) for side in "AB"}
        runs = alternate(workloads, args.pairs, lambda side, workload:
                         run_benchmark(trees[side], workload, seconds))
        traced = {workload: {side: run_benchmark(trees[side], workload,
                                                 seconds, trace=1)
                             for side in "AB"} for workload in workloads}

    summary, reports = summarize(runs, spec["end_to_end"])
    for line in reports:
        print(f"UNUSABLE RUN: {line}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload:10} {name:12} A {s['median_a']:.6g} "
                  f"[{s['quartiles_a'][0]:.6g}, {s['quartiles_a'][1]:.6g}] "
                  f"B {s['median_b']:.6g} ({100 * s['change']:+.1f}%) "
                  f"won {s['wins']}/{s['pairs']}: {s['verdict']}")
    for workload, sides in traced.items():
        a, b = (sides[side].get("metrics", {}) for side in "AB")
        for name in sorted(set(a) & set(b)):
            if name.endswith(".p50_s"):
                print(f"{workload:10} {name:30} A {a[name]['value']:.6g} "
                      f"B {b[name]['value']:.6g} (one traced run each)")
    record = {"tag": args.tag,
              "a": commits["A"], "b": commits["B"],
              "pairs": args.pairs, "run_seconds": seconds,
              "nproc": os.cpu_count(),
              "blas_threads": blas,
              **versions(), "summary": summary, "unusable": reports,
              "runs": runs, "traced": traced}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
