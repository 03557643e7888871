"""Run one igtop benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload cantilever --seed 0 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout this file sits in. A
run times the set-up several times, then makes as many whole rounds of the
workload as fit in ``--seconds`` at the round's nominal length (at least
one), so every run of a workload does the same work. With ``--trace 0`` it
reports the end-to-end metrics, timed on the scaled clock of ``clock.py``;
with ``--trace 1`` it runs each round once untraced and once traced, checks
that both computed the same bits, and reports the per-layer metrics in wall
time. The last line of standard output is one JSON object; the exit code is
1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = "1"  # set before numpy loads; see main()
SETUP_REPEATS = 15


def use_checkout_sources():
    """Put the checkout's ``src`` first on the import path and make sure
    ``igtop`` comes from there, not from an installed copy."""
    if not (SRC / "igtop" / "__init__.py").is_file():
        raise SystemExit(f"error: no igtop sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import igtop
    if Path(igtop.__file__).resolve().parent != (SRC / "igtop").resolve():
        raise SystemExit(f"error: igtop was imported from {igtop.__file__}, "
                         f"not from {SRC}")


def time_setup(workload) -> float:
    """Median scaled seconds of repeated set-ups."""
    from clock import Clock

    with Clock() as clock:
        clock.lap()
        for _ in range(SETUP_REPEATS):
            workload.setup()
            clock.lap()
    return statistics.median(s for _, s in clock.segments())


def round_count(workload, seconds: float) -> int:
    return max(1, int(seconds // workload.round_s))


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, measured with tracing off."""
    from clock import Clock

    setup_s = time_setup(workload)
    rounds = []
    for _ in range(round_count(workload, seconds)):
        with Clock() as clock:
            rounds.append(workload.run_round(seed, clock))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    iter_s = [t for r in rounds for t in r.iter_s]
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(r.run_s for r in rounds), "s"),
        "iter_s_p50": (statistics.median(iter_s) if iter_s else 0.0, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    wall = statistics.median(r.wall_s for r in rounds)
    print(f"run_s in wall time: {wall:.4f} s")
    return _result(rounds, {name: {"value": v, "unit": u}
                            for name, (v, u) in metrics.items()},
                   [p for r in rounds for p in r.problems])


def measure_traced(workload, seed: int, seconds: float, spans_path) -> dict:
    """Per-layer metrics from traced rounds, each checked against an
    untraced round of the same work."""
    from clock import Clock
    from tracing import (Tracer, check_calls, layer_durations,
                         per_layer_metrics)

    def pair():
        plain = workload.run_round(seed, Clock(calibrated=False))
        tracer = Tracer()
        traced = workload.run_round(seed, Clock(calibrated=False),
                                    tracer.installed)
        return plain, traced, tracer

    pairs = [pair() for _ in range(round_count(workload, seconds))]
    rounds, traces, problems, spans = [], [], [], []
    for plain, traced, tracer in pairs:
        rounds.append(plain)
        durations = layer_durations(tracer, traced.call_times)
        traces.append((durations, tracer.counts))
        spans.append(tracer.spans)
        problems += plain.problems
        if traced.fingerprint != plain.fingerprint:
            problems.append("the traced round's results differ from the "
                            "untraced round's")
        if not plain.failed and not traced.failed:
            problems += check_calls(durations, traced.expected_calls,
                                    traced.workspaces)
    untraced = statistics.median(p[0].wall_s for p in pairs)
    overhead = statistics.median(p[1].wall_s for p in pairs) - untraced
    print(f"tracing overhead: {overhead:+.4f} s on a wall-time run_s of "
          f"{untraced:.4f} s ({100 * overhead / untraced:+.2f}%)")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(spans))
    return _result(rounds, per_layer_metrics(traces), problems)


def _result(rounds, metrics: dict, problems: list) -> dict:
    return {"correct": not problems,
            "attempted": sum(r.operations for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics,
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    use_checkout_sources()
    from workloads import workloads

    known = workloads()
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(known)}")
    workload = known[args.workload]
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        result = measure_traced(workload, args.seed, args.seconds, spans)
    else:
        result = measure(workload, args.seed, args.seconds)

    problems = result.pop("problems")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
