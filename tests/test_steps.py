"""The steps of tools/steps.py on a tiny cantilever and a tiny staged MBB:
no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

from igtop.driver import cantilever

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "steps", ROOT / "tools" / "steps.py")
steps = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(steps)

TINY = {"nx": 9, "ny": 5, "rbf_nx": 9, "rbf_ny": 5}


def test_set_up_and_analysis_steps_peak_at_least_what_they_keep():
    problem = cantilever(**TINY)
    rows = steps.setup_steps(problem) + steps.analysis_steps(problem)
    assert [step for step, _, _ in rows] == [
        "mesh geometry", "initial_design", "LevelsetField", "Assembler",
        "_Workspace", "model", "assemble", "solve", "gradients"]
    for step, peak, kept in rows:
        assert peak >= kept >= 0.0, step
    kept = {step: kept for step, _, kept in rows}
    # the workspace holds an assembler, and the assembler its element map
    assert kept["_Workspace"] > kept["Assembler"] > 0.0


def test_resident_memory_and_solves_of_a_fresh_process():
    after_setups, after_run, budget, solves = steps.resident_steps(
        "cantilever", TINY, budget=2, setups=2)
    assert budget == 2
    assert after_run >= after_setups > 0.0
    # one state solve per analysis, its factor and back-solves inside it,
    # and how much it raised the peak resident memory
    assert len(solves) == budget
    for solve, factor, back, n_back, rise, mesh in solves:
        assert n_back >= 1
        assert factor + back <= solve
        assert rise >= 0.0
        assert mesh == "9x5"


def test_a_staged_run_has_one_solve_row_per_mesh():
    *_, solves = steps.resident_steps(
        "mbb", {"nx": 31, "ny": 11, "rbf_nx": 16, "rbf_ny": 6}, budget=6,
        setups=1)
    assert [mesh for *_, mesh in solves] == ["16x6"] * 5 + ["31x11"]
    rows = steps.solve_rows(solves)
    assert [(mesh, n) for mesh, n, *_ in rows] == [("16x6", 5), ("31x11", 1)]
    # the fine row is its one solve alone
    solve, factor, back, n_back, rise, _ = solves[-1]
    assert rows[1][2:] == (1e3 * solve, 1e3 * factor, 1e3 * back,
                           1e3 * (solve - factor - back), rise, str(n_back))


def test_solve_rows_give_the_range_of_back_solves():
    solves = [[0.004, 0.002, 0.001, 1, 0.0, "a"],
              [0.008, 0.004, 0.002, 2, 1.5, "a"],
              [0.002, 0.001, 0.0005, 1, 0.25, "b"]]
    rows = steps.solve_rows(solves)
    assert [(mesh, n, rise, counts) for mesh, n, *_, rise, counts in rows] \
        == [("a", 2, 1.5, "1-2"), ("b", 1, 0.25, "1")]
    assert rows[0][2:4] == pytest.approx((6.0, 3.0))
