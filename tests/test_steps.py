"""The steps of tools/steps.py on a tiny cantilever: no benchmark runs
here."""

import importlib.util
from pathlib import Path

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
    # one state solve per analysis, its factor and back-solves inside it
    assert len(solves) == budget
    for solve, factor, back, n_back in solves:
        assert n_back >= 1
        assert factor + back <= solve
