"""Driver loop behavior on scaled-down problem instances."""

import numpy as np
import pytest

from igtop.driver import (BUILTIN_PROBLEMS, DirichletRule, IterationState,
                          analyze, cantilever, check_gradients, get_problem,
                          heat_sink, mbb, run)
from igtop.errors import ConfigError, SolverError


def small_cantilever(**kw):
    defaults = dict(nx=11, ny=6, rbf_nx=11, rbf_ny=6, budget=5)
    defaults.update(kw)
    return cantilever(**defaults)


class TestProblemSpecs:
    def test_builtin_registry(self):
        assert set(BUILTIN_PROBLEMS) == {"cantilever", "mbb", "heat_sink"}
        for name in BUILTIN_PROBLEMS:
            p = get_problem(name)
            assert p.name == name

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            get_problem("bridge")

    def test_unknown_override(self):
        with pytest.raises(ConfigError, match="unknown problem parameter"):
            cantilever(fancy_knob=2)

    def test_cantilever_layout(self):
        p = cantilever()
        mesh = p.build_mesh()
        assert (p.width, p.height) == (2.0, 1.0)
        assert mesh.n_nodes == 21 * 11
        # full clamp on the left edge: both components of 11 nodes
        assert p.fixed_dofs(mesh).size == 22
        loads = p.build_loads(mesh)
        node, comp, val = loads.point_loads[0]
        np.testing.assert_allclose(mesh.nodes[node], [2.0, 0.5])
        assert (comp, val) == (1, -1.0)

    def test_mbb_layout(self):
        p = mbb()
        mesh = p.build_mesh()
        assert (p.rbf_nx, p.rbf_ny) == (61, 21)
        fixed = p.fixed_dofs(mesh)
        # symmetry plane: x-component of 51 left nodes, plus one roller dof
        assert fixed.size == 52
        roller = mesh.nearest_node((3.0, 0.0))
        assert 2 * roller + 1 in fixed
        assert 2 * roller not in fixed

    def test_heat_sink_layout(self):
        p = heat_sink()
        mesh = p.build_mesh()
        fixed = p.fixed_dofs(mesh)
        assert fixed.size == 1  # point sink at the bottom-right corner
        assert np.array_equal(mesh.nodes[fixed[0]], [1.0, 0.0])
        assert p.body_material is not None and p.body_void is not None

    def test_heat_sink_initial_compliance(self):
        # thermal compliance of the seeded design, before any update
        model, u, f, c, vol = analyze(heat_sink())
        assert c == pytest.approx(4.372, rel=0.02)

    def test_parameter_validation_is_aggregated(self):
        with pytest.raises(ConfigError) as err:
            cantilever(volume_fraction=1.5, budget=0)
        msg = str(err.value)
        for fragment in ("volume_fraction", "budget"):
            assert fragment in msg
        with pytest.raises(ConfigError, match="at least 2"):
            cantilever(nx=1)

    def test_dirichlet_rule_validation(self):
        mesh = small_cantilever().build_mesh()
        with pytest.raises(ConfigError):
            DirichletRule().select_nodes(mesh)
        with pytest.raises(ConfigError):
            DirichletRule(side="left", point=(0, 0)).select_nodes(mesh)
        rule = DirichletRule(side="bottom", xmin=10.0)
        p = small_cantilever(dirichlet=(rule,))
        with pytest.raises(ConfigError, match="selects no nodes"):
            p.fixed_dofs(mesh)


class TestRunLoop:
    def test_history_contract(self):
        result = run(small_cantilever())
        assert len(result.history) == 5
        assert [r.iteration for r in result.history] == list(range(5))
        for r in result.history:
            assert np.isfinite(r.compliance) and r.compliance > 0.0
            assert 0.0 < r.volume_fraction < 1.0
            assert r.enriched_dofs > 0 and r.enriched_dofs % 2 == 0
        # five records means four design updates were applied
        assert not result.converged

    def test_budget_one_is_analysis_only(self):
        result = run(small_cantilever(), budget=1)
        assert len(result.history) == 1
        assert result.history[0].iteration == 0

    def test_volume_constraint_is_enforced(self):
        # the hole-lattice start is volume-infeasible on this coarse grid;
        # the optimizer must walk the volume fraction toward the limit
        result = run(small_cantilever(budget=40))
        target = result.problem.volume_fraction
        vf0 = result.history[0].volume_fraction
        vf_end = result.history[-1].volume_fraction
        assert vf0 > target
        assert abs(vf_end - target) < 0.25 * abs(vf0 - target)

    def test_observer_sees_every_iteration(self):
        seen = []
        result = run(small_cantilever(budget=3), observer=seen.append)
        assert len(seen) == 3
        for it, state in enumerate(seen):
            assert isinstance(state, IterationState)
            assert state.iteration == it
            assert state.u is not None
            assert state.design.shape == result.design.shape
        # observer receives a private copy of the design
        seen[0].design[:] = 99.0
        assert not np.any(result.design == 99.0)

    def test_deterministic(self):
        r1 = run(small_cantilever())
        r2 = run(small_cantilever())
        assert np.array_equal(r1.design, r2.design)
        assert [h.compliance for h in r1.history] \
            == [h.compliance for h in r2.history]

    def test_solver_failure_hands_design_to_observer(self, monkeypatch):
        # the soft phase keeps every design solvable, so force the failure
        import igtop.driver as drv

        def boom(*args, **kwargs):
            raise SolverError("forced failure")

        monkeypatch.setattr(drv, "solve_system", boom)
        p = small_cantilever()
        seen = []
        with pytest.raises(SolverError, match="forced failure"):
            run(p, observer=seen.append)
        assert len(seen) == 1
        assert seen[0].iteration == 0
        assert seen[0].u is None
        assert np.isnan(seen[0].compliance)
        assert seen[0].design.shape == (p.rbf_nx * p.rbf_ny,)

    def test_stall_converges_after_one_more_analysis(self):
        # steps below the stall tolerance: ten of them stop the loop, and
        # the design they reach is analyzed once before it ends
        seen = []
        result = run(cantilever(11, 6, rbf_nx=11, rbf_ny=6), budget=50,
                     move_limit=1e-7, observer=seen.append)
        assert result.converged
        assert len(result.history) == 11
        assert result.history[-1].iteration == 10
        assert [state.iteration for state in seen] == list(range(11))
        assert np.array_equal(seen[-1].design, result.design)

    def test_rejects_zero_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            run(small_cantilever(), budget=0)


class TestAnalyze:
    def test_initial_analysis_matches_run_record_zero(self):
        p = small_cantilever()
        model, u, f, c, vol = analyze(p)
        rec0 = run(p, budget=1).history[0]
        assert c == pytest.approx(rec0.compliance, rel=1e-14)
        assert vol / (p.width * p.height) \
            == pytest.approx(rec0.volume_fraction, rel=1e-14)

    def test_design_of_wrong_length_is_a_config_error(self):
        with pytest.raises(ConfigError, match="expects 66 values"):
            analyze(small_cantilever(), np.zeros(2))

    def test_explicit_design_roundtrip(self):
        p = small_cantilever()
        result = run(p, budget=4)
        model, u, f, c, vol = analyze(p, result.design)
        assert c == pytest.approx(result.history[-1].compliance, rel=1e-14)


class TestGradientCheck:
    def test_rows_and_accuracy(self):
        p = small_cantilever()
        rows = check_gradients(p, n_sample=12, seed=2)
        assert len(rows) == 12
        assert [r.index for r in rows] == sorted(r.index for r in rows)
        clean = [r for r in rows if not r.topology_event]
        assert clean, "all sampled variables hit topology events"
        for r in clean:
            assert r.rel_err <= 1e-3, (r.index, r.analytic, r.fd, r.rel_err)

    def test_sample_capped_by_design_size(self):
        p = small_cantilever()
        rows = check_gradients(p, n_sample=10_000, seed=0)
        assert len(rows) == p.rbf_nx * p.rbf_ny
