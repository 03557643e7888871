"""Spans around the calls into each igtop layer, recorded from outside.

While a :class:`Tracer` is installed, the public entry point of every layer
on the iteration path (and the constructors of set-up) is replaced by a
wrapper that records a span: name, start, end and the span that was open
when it started. Nothing in ``igtop`` itself changes; leaving the context
restores the originals. Spans opened inside another span (for example the
design update inside the levelset constructor) count as part of their
parent.

Each entry point is patched where the driver looks it up: module functions
in the module whose global the driver reads, methods on their class. A
refactor that reaches a layer some other way leaves its span count short,
which :func:`check_calls` reports instead of a layer at zero.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from igtop import driver, fem, mma, rbf, sensitivity

ITERATION_LAYERS = ("rbf.update", "enrich.build", "fem.assemble", "fem.solve",
                    "sensitivity.compliance", "sensitivity.volume",
                    "mma.step")
SELF_LAYER = "driver.self"
SETUP_LAYERS = ("mesh.setup", "rbf.setup", "fem.setup")
WORK_COUNTS = ("enrich.cut_parents", "enrich.enriched_nodes", "fem.ndof",
               "fem.nnz")
RESIDUAL = "fem.solve.residual_max"


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in ITERATION_LAYERS + (SELF_LAYER,):
        units.update({f"{layer}.busy_s": "s", f"{layer}.calls": "count",
                      f"{layer}.p50_s": "s"})
    units.update({f"{layer}.busy_s": "s" for layer in SETUP_LAYERS})
    units.update({name: "count" for name in WORK_COUNTS})
    units[RESIDUAL] = "1"
    return units


def _record_model(counts, model):
    counts["enrich.cut_parents"].append(model.n_cut)
    counts["enrich.enriched_nodes"].append(model.n_enriched)


def _record_system(counts, system):
    k, _ = system
    counts["fem.ndof"].append(k.shape[0])
    counts["fem.nnz"].append(k.nnz)


def _record_solve(counts, result):
    counts[RESIDUAL].append(result.residual)


def _targets():
    """(owner, attribute, span name, work recorder) for every entry point."""
    spec, field, assembler = driver.ProblemSpec, rbf.LevelsetField, \
        fem.Assembler
    return (
        (spec, "build_mesh", "mesh.setup", None),
        (spec, "build_rbf", "rbf.setup", None),
        (spec, "initial_design", "rbf.setup", None),
        (field, "__init__", "rbf.setup", None),
        (spec, "build_loads", "fem.setup", None),
        (spec, "fixed_dofs", "fem.setup", None),
        (assembler, "__init__", "fem.setup", None),
        (field, "update_design", "rbf.update", None),
        # the snap and the tiling together make up one enrich.build
        (driver, "snap_nodal_levelset", "enrich.snap", None),
        (driver, "build_enriched_model", "enrich.build", _record_model),
        (assembler, "assemble", "fem.assemble", _record_system),
        (driver, "solve_system", "fem.solve", _record_solve),
        (sensitivity, "compliance_gradient", "sensitivity.compliance", None),
        (sensitivity, "volume_gradient", "sensitivity.volume", None),
        (mma.MmaOptimizer, "step", "mma.step", None),
    )


class Tracer:
    """In-memory spans ``[name, start, end, parent index or -1]`` and the
    work counts recorded at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(list)
        self._open = []

    def _wrap(self, name, fn, record):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter()
            if record is not None and parent == -1:
                record(self.counts, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the context."""
        originals = []
        try:
            for owner, attr, name, record in _targets():
                fn = vars(owner)[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, record))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def layer_durations(tracer: Tracer, call_times) -> dict:
    """Top-level span durations per layer for one traced round.

    ``call_times`` are the (start, end) times of the round's library calls.
    ``driver.self`` gets one entry per operation: the time from its design
    update to the next one (or the end of the call) that no span covers.
    """
    top = [s for s in tracer.spans if s[3] == -1]
    out = defaultdict(list)
    for name, start, end, _ in top:
        out[name].append(end - start)
    snaps = out.pop("enrich.snap", [])
    builds = out.get("enrich.build", [])
    if len(snaps) == len(builds):
        out["enrich.build"] = [a + b for a, b in zip(snaps, builds)]
    else:
        out["enrich.snap.unpaired"] = snaps
    for call_start, call_end in call_times:
        inside = [s for s in top if call_start <= s[1] and s[2] <= call_end]
        marks = [s[1] for s in inside if s[0] == "rbf.update"] + [call_end]
        for lo, hi in zip(marks, marks[1:]):
            covered = sum(s[2] - s[1] for s in inside if lo <= s[1] < hi)
            out[SELF_LAYER].append(hi - lo - covered)
    return out


def check_calls(durations: dict, expected: dict, workspaces: int) -> list:
    """Every iteration layer recorded exactly the expected number of calls,
    and every set-up layer ran once per workspace or more."""
    problems = []
    if "enrich.snap.unpaired" in durations:
        problems.append("snap_nodal_levelset and build_enriched_model calls "
                        "do not pair up")
    for layer in ITERATION_LAYERS + (SELF_LAYER,):
        got = len(durations.get(layer, ()))
        want = expected[layer]
        if got != want:
            problems.append(f"{layer} recorded {got} calls, expected {want}")
    for layer in SETUP_LAYERS:
        got = len(durations.get(layer, ()))
        if got < workspaces:
            problems.append(f"{layer} recorded {got} calls, expected at "
                            f"least {workspaces}")
    return problems


def per_layer_metrics(traces) -> dict:
    """Per-layer metrics over traced rounds, each ``(durations, counts)``.

    ``busy_s`` and ``calls`` are per round; ``p50_s`` is the median over
    every call; work counts are averaged per call of their layer.
    """
    rounds = len(traces)
    pooled = defaultdict(list)
    counts = defaultdict(list)
    for durations, work in traces:
        for layer, values in durations.items():
            pooled[layer].extend(values)
        for name, values in work.items():
            counts[name].extend(values)
    units = per_layer_units()
    values = {}
    for layer in ITERATION_LAYERS + (SELF_LAYER,):
        d = pooled[layer]
        values[f"{layer}.busy_s"] = sum(d) / rounds
        values[f"{layer}.calls"] = len(d) // rounds
        values[f"{layer}.p50_s"] = statistics.median(d) if d else 0.0
    for layer in SETUP_LAYERS:
        values[f"{layer}.busy_s"] = sum(pooled[layer]) / rounds
    for name in WORK_COUNTS:
        c = counts[name]
        values[name] = sum(c) / len(c) if c else 0.0
    values[RESIDUAL] = max(counts[RESIDUAL], default=0.0)
    return {name: {"value": v, "unit": units[name]}
            for name, v in values.items()}
