"""Tests of the benchmark itself, on small versions of its workloads.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import dataclasses
import json
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import igtop
from igtop import driver, fem

import checks
import run
from tracing import per_layer_units
from workloads import Gate, Optimization, tiny_workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
TINY = tiny_workloads()


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == per_layer_units()
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run.measure(TINY[name], seed=0, seconds=0)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.json"
    result = run.measure_traced(TINY[name], 0, 0, spans)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == per_layer_units()
    assert metrics["fem.solve.calls"]["value"] \
        == metrics["fem.assemble.calls"]["value"] > 0
    assert json.loads(spans.read_text())


def test_traced_run_fails_when_a_layer_is_routed_around(monkeypatch,
                                                        tmp_path):
    def analyze(self, design):
        self.field.update_design(design)
        model = driver.build_enriched_model(
            self.mesh, driver.snap_nodal_levelset(self.field.nodal_values))
        k, f = self.assembler.assemble(model)
        u = fem.solve_system(k, f, self.fixed).u  # not the driver's global
        return model, u, f, fem.compliance(u, f), model.material_volume()

    monkeypatch.setattr(driver._Workspace, "analyze", analyze)
    result = run.measure_traced(TINY["cantilever"], 0, 0,
                                tmp_path / "spans.json")
    assert not result["correct"]
    assert any("fem.solve recorded 0 calls" in p for p in result["problems"])


def test_traced_run_fails_when_results_differ(monkeypatch, tmp_path):
    workload = TINY["cantilever"]
    plain_round = workload.run_round

    def run_round(seed, clock, instrument=nullcontext):
        rnd = plain_round(seed, clock, instrument)
        if instrument is not nullcontext:
            rnd.fingerprint += b"drift"
        return rnd

    monkeypatch.setattr(workload, "run_round", run_round)
    result = run.measure_traced(workload, 0, 0, tmp_path / "spans.json")
    assert any("differ" in p for p in result["problems"])


def test_a_failing_analysis_counts_as_a_failed_operation(monkeypatch):
    def run_failing(problem, budget=None, observer=None):
        raise igtop.SolverError("stiffness matrix is numerically singular")

    monkeypatch.setattr(igtop, "run", run_failing)
    result = run.measure(TINY["cantilever"], seed=0, seconds=0)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert not result["correct"]


def test_gate_rejects_a_perturbed_final_compliance():
    workload = TINY["cantilever"]
    result = igtop.run(workload.problem, budget=2)
    designs = [result.design]
    c = result.history[-1].compliance
    vf = result.history[-1].volume_fraction
    ok = Optimization("cantilever", workload.problem, round_s=1.0,
                      gate=Gate(reference=c * 1.05, rel_tol=0.10,
                                vf_max=vf + 0.01))
    assert ok.check(result, designs) == []
    far = dataclasses.replace(ok.gate, reference=c * 1.2)
    ok.gate = far
    assert any("final compliance" in p for p in ok.check(result, designs))
    ok.gate = dataclasses.replace(far, reference=c, vf_max=vf - 0.01)
    assert any("volume fraction" in p for p in ok.check(result, designs))


def test_history_check_rejects_non_finite_or_non_positive_compliance():
    rec = driver.HistoryRecord(0, 1.0, 0.5, 10)
    assert checks.check_history([rec]) == []
    for bad in (np.nan, np.inf, 0.0, -1.0):
        assert checks.check_history(
            [rec, dataclasses.replace(rec, iteration=1, compliance=bad)])


def test_step_check_rejects_moves_beyond_the_limit_or_bounds():
    designs = [np.zeros(4), np.full(4, 0.01)]
    assert checks.check_steps(designs, 0.01, -1.0, 1.0) == []
    assert checks.check_steps([np.zeros(4), np.full(4, 0.02)],
                              0.01, -1.0, 1.0)
    assert checks.check_steps([np.zeros(4), np.full(4, 1.001)],
                              2.0, -1.0, 1.0)


@pytest.fixture(params=["cantilever", "heat_sink"])
def solved(request):
    problem = TINY[request.param].problem
    model, u, _, _, _ = igtop.analyze(problem)
    loads = problem.build_loads(model.mesh)
    k, f = igtop.Assembler(model.mesh, problem.pair, loads).assemble(model)
    return k.tolil(), f, u, problem.pair.field_dim, model


def _system_problems(k, f, u, dim, model):
    return checks.check_system(k.tocsr(), f, u, dim, model.mesh.n_nodes)


def test_system_check_accepts_the_assembled_system(solved):
    assert _system_problems(*solved) == []
    assert checks.check_tiling(solved[4]) == []


def test_system_check_rejects_a_non_symmetric_k(solved):
    k, f, u, dim, model = solved
    i, j = next((i, j) for i, j in zip(*k.nonzero()) if i != j)
    k[i, j] *= 1.0 + 1e-9
    assert any("not symmetric" in p
               for p in _system_problems(k, f, u, dim, model))


def test_system_check_rejects_k_that_breaks_partition_of_unity(solved):
    k, f, u, dim, model = solved
    k[0, 0] += 1e-9 * abs(k).max()
    assert any("uniform field" in p
               for p in _system_problems(k, f, u, dim, model))


def test_system_check_rejects_work_that_differs_from_energy(solved):
    k, f, u, dim, model = solved
    assert any("differs" in p
               for p in _system_problems(k, f, u * (1.0 + 1e-6), dim, model))


def test_tiling_check_rejects_a_moved_integration_vertex(solved):
    model = solved[4]
    ie = model.integration[0]
    coords = ie.coords.copy()
    coords[0] += 1e-6 * (coords[1] - coords[0])
    model.integration[0] = dataclasses.replace(ie, coords=coords)
    assert checks.check_tiling(model)


def test_gradient_check_rejects_too_many_wrong_rows():
    row = driver.GradientCheckRow(0, 1.0, 1.0, 0.0, False)
    rows = [dataclasses.replace(row, index=i) for i in range(60)]
    assert checks.check_gradient_rows("x", rows) == []
    rows[0] = dataclasses.replace(rows[0], rel_err=2e-3)
    rows[1] = dataclasses.replace(rows[1], rel_err=2e-3)
    rows[2] = dataclasses.replace(rows[2], topology_event=True, rel_err=1.0)
    assert checks.check_gradient_rows("x", rows[:20]) != []
    assert checks.check_gradient_rows("x", rows) == []
    assert checks.check_gradient_rows(
        "x", [dataclasses.replace(r, topology_event=True) for r in rows])
