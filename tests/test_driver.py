"""Driver loop behavior on scaled-down problem instances."""

import dataclasses
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from igtop import driver
from igtop.cli import _report_gradient_rows
from igtop.driver import (BUILTIN_PROBLEMS, DirichletRule, HistoryRecord,
                          IterationState, _Workspace, analyze, cantilever,
                          check_gradients, get_problem, heat_sink, mbb, run)
from igtop.errors import ConfigError, MmaStepError, NumericalError, SolverError
from igtop.fem import Assembler
from igtop.mma import S_MAX, S_MIN, MmaOptimizer

DATA = Path(__file__).resolve().parent / "data"


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
        assert np.array_equal(p.body, [1.0])  # one source over both phases

    @pytest.mark.parametrize("factory, extents, points", [
        (cantilever, dict(width=4.0), [(4.0, 0.5)]),
        (mbb, dict(height=0.5), [(0.0, 0.5), (3.0, 0.0)]),
        (heat_sink, dict(width=2.0), [(2.0, 0.0)]),
    ], ids=["cantilever-width", "mbb-height", "heat_sink-width"])
    def test_extent_override_moves_the_points(self, factory, extents,
                                              points):
        # the load (if any), then the support point (if any)
        p = factory(nx=9, ny=5, **extents)
        placed = [point for point, _, _ in p.point_loads]
        placed += [rule.point for rule in p.dirichlet if rule.point]
        assert placed == points

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

    @pytest.mark.parametrize("factory, overrides, fragment", [
        (cantilever, dict(dirichlet=(DirichletRule(side="left",
                                                   component=2),)),
         "support component"),
        (cantilever, dict(dirichlet=(DirichletRule(point=(np.inf, 0.0)),)),
         "support point"),
        (cantilever, dict(point_loads=(((2.0, 0.5), -1, -1.0),)),
         "load component"),
        (cantilever, dict(point_loads=(((2.0, 0.5), 3, -1.0),)),
         "load component"),
        (cantilever, dict(point_loads=(((np.nan, 0.5), 1, -1.0),)),
         "finite point and value"),
        (cantilever, dict(point_loads=(((2.0, 0.5), 1, np.nan),)),
         "finite point and value"),
        (heat_sink, dict(body=np.array([1.0, 2.0])), "body must be"),
        (heat_sink, dict(body=[np.inf]), "body must be"),
        (heat_sink, dict(body=np.array([[1.0]])), "body must be"),
        # the void phase's field of the former per-phase split
        (heat_sink, {"body_" + "void": [1.0]},
         "unknown problem parameter 'body_" + "void'"),
        (cantilever, dict(width=np.inf), "domain size"),
        (cantilever, dict(height=np.nan), "domain size"),
        (cantilever, dict(nx=2.5), "nx must be an integer"),
        (cantilever, dict(rbf_ny=6.0), "rbf_ny must be an integer"),
        (cantilever, dict(budget=2.5), "budget must be an integer"),
        (cantilever, dict(budget="3"), "budget must be an integer"),
        (cantilever, dict(budget=np.nan), "budget must be an integer"),
        (mbb, dict(dirichlet=(DirichletRule(side="left", component=0),
                              DirichletRule(point=(30.0, -5.0),
                                            component=1))),
         r"support point must lie in \[0, 3.0\] x \[0, 1.0\]"),
        (cantilever, dict(point_loads=(((7.0, 0.5), 1, -1.0),)),
         r"finite point and value, the point in \[0, 2.0\] x \[0, 1.0\]"),
        (cantilever, dict(volume_fraction="0.5"), "volume_fraction"),
        (cantilever, dict(point_loads=(((2.0, 0.5), 1, "x"),)),
         "finite point and value"),
        (heat_sink, dict(body="x"), "body must be"),
        (cantilever, dict(point_loads=(((2.0, 0.5, 7.0), 1, -1.0),)),
         "finite point and value"),
        (cantilever, dict(dirichlet=(DirichletRule(point=(0.0, 0.5, 1.0)),)),
         "support point"),
        (cantilever, dict(budget=True), "budget must be an integer"),
        (cantilever, dict(point_loads=(((1.0, (0.5, 0.2)), 1, -1.0),)),
         "finite point and value"),
        (cantilever, dict(point_loads=(((1.0, 0.5), 1),)),
         r"point load must be \(point, component, value\)"),
        (cantilever, dict(dirichlet=(1,)),
         "support rule must be a DirichletRule"),
        (cantilever, dict(dirichlet="left"), "dirichlet must be a tuple"),
        (cantilever, dict(pair="x"), "pair must be a MaterialPair"),
        (cantilever, dict(point_loads=(((2.0, 0.5), 1.0, -1.0),)),
         "load component"),
        (heat_sink, dict(body=[[1.0], [1.0, 2.0]]), "body must be"),
    ], ids=["support-component-2", "support-point-inf", "load-component--1",
            "load-component-3", "load-point-nan", "load-value-nan",
            "body-two-values", "body-inf", "body-2d", "body-per-phase",
            "width-inf", "height-nan", "nx-fraction", "rbf_ny-float",
            "budget-fraction", "budget-string", "budget-nan",
            "support-point-outside", "load-point-outside",
            "volume_fraction-string", "load-value-string", "body-string",
            "load-point-3d", "support-point-3d", "budget-bool",
            "load-point-ragged", "load-two-fields", "support-rule-int",
            "dirichlet-string", "pair-string", "load-component-float",
            "body-ragged"])
    def test_supports_and_loads_are_validated(self, factory, overrides,
                                              fragment):
        with pytest.raises(ConfigError, match=fragment):
            factory(**overrides)

    def test_scalar_heat_source_is_valid(self):
        assert heat_sink(body=2.0).body == 2.0

    def test_dirichlet_rule_validation(self):
        # a rule is checked when it is made, not once the mesh is built
        with pytest.raises(ConfigError, match="exactly one of side or point"):
            DirichletRule()
        with pytest.raises(ConfigError, match="exactly one of side or point"):
            DirichletRule(side="left", point=(0.0, 0.0))

    def test_unknown_side_names_the_valid_sides(self):
        with pytest.raises(ConfigError, match="'lft'") as err:
            DirichletRule(side="lft")
        for side in ("bottom", "left", "right", "top"):
            assert side in str(err.value)

    @pytest.mark.parametrize("side", ["up", ["left"], np.array(["left"])],
                             ids=["up", "list", "array"])
    def test_side_must_be_a_side_name(self, side):
        # a list used to end in analyze as a bare "unhashable type" error
        with pytest.raises(ConfigError, match="unknown side"):
            DirichletRule(side=side)

    @pytest.mark.parametrize("dirichlet", [(), []], ids=["tuple", "list"])
    def test_no_supports_is_a_problem_of_the_spec(self, dirichlet):
        with pytest.raises(ConfigError, match="problem has no supports"):
            cantilever(9, 5, dirichlet=dirichlet)

    def test_spec_is_frozen(self):
        # what the spec checked when it was made stays checked: a changed
        # spec comes from with_overrides, which checks it again
        with pytest.raises(dataclasses.FrozenInstanceError):
            cantilever(9, 5).dirichlet = ()

    def test_initial_design_is_clipped_to_the_box(self):
        # on a 20 x 10 domain the hole-lattice fit rises far above S_MAX
        p = small_cantilever(width=20.0, height=10.0)
        s = p.initial_design(p.build_rbf())
        assert np.all((s >= S_MIN) & (s <= S_MAX))
        assert np.max(s) == S_MAX


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

    def test_result_carries_the_effective_overrides(self):
        result = run(small_cantilever(move_limit=0.02), budget=2)
        assert result.problem.budget == 2
        assert result.problem.move_limit == 0.02
        assert len(result.history) == 2

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

    @pytest.mark.parametrize("move", [np.nan, np.inf, 0.0, -0.01, "0.1"])
    def test_move_limit_must_be_finite_and_positive(self, move):
        with pytest.raises(ConfigError, match="move_limit"):
            small_cantilever(move_limit=move)

    def test_deterministic(self):
        r1 = run(small_cantilever())
        r2 = run(small_cantilever())
        assert np.array_equal(r1.design, r2.design)
        assert [h.compliance for h in r1.history] \
            == [h.compliance for h in r2.history]

    def test_solver_failure_carries_iteration_and_design(self, monkeypatch):
        # the soft phase keeps every design solvable, so force the failure
        # in the state solve of iteration 2
        import igtop.driver as drv

        designs = []
        model, solve = drv._Workspace.model, drv.solve_system

        def record(self, design):
            designs.append(design.copy())
            return model(self, design)

        def fail_third(*args, **kwargs):
            if len(designs) == 3:
                raise SolverError("forced failure")
            return solve(*args, **kwargs)

        monkeypatch.setattr(drv._Workspace, "model", record)
        monkeypatch.setattr(drv, "solve_system", fail_third)
        seen = []
        with pytest.raises(SolverError, match="forced failure") as info:
            run(small_cantilever(), observer=seen.append)
        assert info.value.iteration == 2
        assert np.array_equal(info.value.design, designs[-1])
        assert [state.iteration for state in seen] == [0, 1]
        assert all(state.model is not None and state.u is not None
                   for state in seen)

    def test_mma_failure_carries_iteration_and_design(self, monkeypatch):
        step = MmaOptimizer.step

        def fail_second_step(self, *args):
            if self.iteration == 1:
                raise MmaStepError("forced failure")
            return step(self, *args)

        monkeypatch.setattr(MmaOptimizer, "step", fail_second_step)
        seen = []
        with pytest.raises(MmaStepError, match="forced failure") as info:
            run(small_cantilever(), observer=seen.append)
        assert info.value.iteration == 1
        assert np.array_equal(info.value.design, seen[-1].design)
        assert [state.iteration for state in seen] == [0, 1]
        assert all(state.model is not None and state.u is not None
                   for state in seen)

    def test_nonpositive_initial_compliance_carries_initial_design(self):
        # a load on the clamped edge does no work
        p = cantilever(9, 5, point_loads=(((0.0, 0.5), 1, -1.0),))
        seen = []
        with pytest.raises(SolverError, match="initial compliance") as info:
            run(p, observer=seen.append)
        assert info.value.iteration == 0
        assert np.array_equal(info.value.design, _Workspace(p).initial)
        assert [state.iteration for state in seen] == [0]
        assert seen[0].model is not None and seen[0].u is not None

    def test_stall_converges_after_one_more_analysis(self):
        # steps below the stall tolerance: ten of them stop the loop, and
        # the design they reach is analyzed once before it ends
        seen = []
        result = run(cantilever(11, 6, rbf_nx=11, rbf_ny=6, move_limit=1e-7),
                     budget=50, observer=seen.append)
        assert result.converged
        assert len(result.history) == 11
        assert result.history[-1].iteration == 10
        assert [state.iteration for state in seen] == list(range(11))
        assert np.array_equal(seen[-1].design, result.design)

    @pytest.mark.xfail(raises=SolverError, strict=True,
                       reason="a near-node cut passes the snap but fails "
                              "the solve's pivot check (ROADMAP aim 3)")
    def test_a_cut_near_a_node_solves(self):
        # after a 1e-7 step the smallest |phi| sit just above the snap's
        # 1e-10 of max|phi|, and the scaled band's pivot ratio is 6.3e-14
        # against solve_system's 1e-12 floor at iteration 1
        result = run(mbb(16, 6, rbf_nx=16, rbf_ny=6, move_limit=1e-7),
                     budget=3)
        assert len(result.history) == 3

    def test_rejects_zero_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            run(small_cantilever(), budget=0)

    def test_rejects_fractional_budget(self):
        # once truncated silently to two iterations
        with pytest.raises(ConfigError, match="budget must be an integer"):
            run(small_cantilever(), budget=2.5)


def small_mbb(**kw):
    # coarse 16x6 mesh, as fine as the 16x6 centres
    return mbb(31, 11, rbf_nx=16, rbf_ny=6, **kw)


class TestStages:
    def meshes(self, problem):
        return [(spec.nx, spec.ny, analyses)
                for spec, analyses in driver._stages(problem)]

    def test_mbb_stages_on_half_its_intervals(self):
        assert driver._stages(mbb()) == [(mbb(76, 26), 250), (mbb(), 50)]

    @pytest.mark.parametrize("problem", [
        cantilever(), cantilever(41, 21), heat_sink(), mbb(51, 17)],
        ids=["cantilever", "cantilever-41x21", "heat_sink", "mbb-51x17"])
    def test_a_coarse_mesh_wider_than_the_centres_is_no_stage(self, problem):
        # every centre spacing is finer than half the mesh's intervals
        assert driver._stages(problem) == [(problem, problem.budget)]

    def test_equal_spacing_stages(self):
        assert self.meshes(small_mbb()) == [(16, 6, 250), (31, 11, 50)]

    @pytest.mark.parametrize("budget, coarse", [(15, 12), (6, 5), (2, 1)])
    def test_the_coarse_stage_takes_five_sixths(self, budget, coarse):
        assert self.meshes(small_mbb(budget=budget)) \
            == [(16, 6, coarse), (31, 11, budget - coarse)]

    def test_a_budget_of_one_is_one_stage(self):
        assert self.meshes(small_mbb(budget=1)) == [(31, 11, 1)]

    def test_a_mesh_with_no_coarser_level_is_one_stage(self):
        p = mbb(2, 2, rbf_nx=2, rbf_ny=2)
        assert driver._stages(p) == [(p, p.budget)]

    @pytest.mark.parametrize("change", [
        {"point_loads": (((0.1, 1.0), 1, -1.0),)},
        {"dirichlet": (DirichletRule(side="left", component=0),
                       DirichletRule(point=(2.9, 0.0), component=1))}],
        ids=["load", "support"])
    def test_a_point_off_the_coarse_grid_is_no_stage(self, change):
        # x = 0.1 and 2.9 are nodes of the 0.1 grid, not of the 0.2 one
        p = small_mbb(**change)
        assert driver._stages(p) == [(p, p.budget)]

    @pytest.fixture(scope="class")
    def staged(self):
        seen = []
        result = run(small_mbb(), budget=6, observer=seen.append)
        return result, seen

    def test_a_staged_run_records_each_mesh(self, staged):
        result, seen = staged
        assert [r.iteration for r in result.history] == list(range(6))
        assert [r.mesh for r in result.history] == ["16x6"] * 5 + ["31x11"]
        assert [state.model.mesh.n_nodes for state in seen] \
            == [16 * 6] * 5 + [31 * 11]
        assert result.mesh.n_nodes == 31 * 11
        assert result.model.mesh is result.mesh
        assert not result.converged

    def test_each_state_is_its_history_record_and_its_analysis(self, staged):
        result, seen = staged
        record_fields = [f.name for f in dataclasses.fields(HistoryRecord)]
        assert [f.name for f in dataclasses.fields(IterationState)] \
            == record_fields + ["design", "model", "u"]
        assert len(seen) == len(result.history)
        for state, record in zip(seen, result.history):
            for name in record_fields:
                assert getattr(state, name) == getattr(record, name), name
            nx, ny = map(int, record.mesh.split("x"))
            assert state.model.mesh.n_nodes == nx * ny
            assert state.u.shape == (2 * nx * ny + record.enriched_dofs,)
            assert state.design.shape == result.design.shape
        # the last state is the analysis of the final design
        assert np.array_equal(seen[-1].design, result.design)
        assert seen[-1].model is result.model and seen[-1].u is result.u

    def test_a_staged_run_ends_on_the_problems_mesh(self, staged):
        result, _ = staged
        _, _, _, c, vol = analyze(small_mbb(), result.design)
        assert c == pytest.approx(result.history[-1].compliance, rel=1e-14)
        assert vol / 3.0 == pytest.approx(
            result.history[-1].volume_fraction, rel=1e-14)

    def test_no_step_across_the_switch_exceeds_the_move_limit(self, staged):
        result, seen = staged
        steps = np.abs(np.diff([state.design for state in seen], axis=0))
        assert steps.max(axis=1)[4] > 0.0  # the step into the fine stage
        assert steps.max() <= result.problem.move_limit * (1.0 + 1e-12)

    def test_each_stage_normalizes_by_its_first_compliance(self, monkeypatch):
        scales = []
        step = MmaOptimizer.step

        def record(self, s, dc, fval, dv):
            scales.append(dc)
            return step(self, s, dc, fval, dv)

        monkeypatch.setattr(MmaOptimizer, "step", record)
        seen = []
        run(small_mbb(), budget=12, observer=seen.append)
        # records 0-9 are coarse, 10-11 fine; the last one takes no step
        assert len(scales) == 11
        for problem, it, first in ((small_mbb().with_overrides(nx=16, ny=6),
                                    9, 0),
                                   (small_mbb(), 10, 10)):
            ws = _Workspace(problem)
            model, u, *_ = ws.analyze(seen[it].design)
            dc, _ = ws.gradients(model, u)
            dc[ws.passive] = 0.0
            assert np.array_equal(scales[it], dc / seen[first].compliance)

    def test_an_mma_failure_in_the_coarse_stage(self, monkeypatch):
        step = MmaOptimizer.step

        def fail_third_step(self, *args):
            if self.iteration == 2:
                raise MmaStepError("forced failure")
            return step(self, *args)

        monkeypatch.setattr(MmaOptimizer, "step", fail_third_step)
        seen = []
        with pytest.raises(MmaStepError, match="forced failure") as info:
            run(small_mbb(), budget=6, observer=seen.append)
        assert info.value.iteration == 2
        assert np.array_equal(info.value.design, seen[-1].design)
        assert [state.iteration for state in seen] == [0, 1, 2]
        assert seen[-1].model.mesh.n_nodes == 16 * 6

    def test_a_stall_in_the_coarse_stage_ends_on_the_fine_mesh(self):
        # (on 16x6 centres a 1e-7 step cuts within 1e-8 of a node, and
        # the coarse stiffness fails its pivot check)
        seen = []
        result = run(mbb(31, 11, rbf_nx=13, rbf_ny=5, move_limit=1e-7),
                     budget=50, observer=seen.append)
        assert result.converged
        assert [r.mesh for r in result.history] == ["16x6"] * 11 + ["31x11"]
        assert [r.iteration for r in result.history] == list(range(12))
        # the fine stage analyses the design the coarse stage stopped at
        assert np.array_equal(seen[-1].design, seen[-2].design)

    def test_the_coarse_workspace_is_freed_before_the_fine_one(
            self, monkeypatch):
        made, alive = [], []
        init = _Workspace.__init__

        def tracked(self, problem, start=None):
            alive.append([ref() is not None for ref in made])
            init(self, problem, start)
            made.append(weakref.ref(self))

        monkeypatch.setattr(_Workspace, "__init__", tracked)
        run(small_mbb(), budget=3)
        assert alive == [[], [False]]


class TestAnalyze:
    def test_initial_analysis_matches_run_record_zero(self):
        p = small_cantilever()
        model, u, f, c, vol = analyze(p)
        rec0 = run(p, budget=1).history[0]
        assert c == pytest.approx(rec0.compliance, rel=1e-14)
        assert vol / (p.width * p.height) \
            == pytest.approx(rec0.volume_fraction, rel=1e-14)

    @pytest.fixture
    def built(self, monkeypatch):
        """The names of the Assembler and LevelsetField classes, once for
        each instance built from now on."""
        built = []

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)
            return counted

        for cls in (Assembler, driver.LevelsetField):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        return built

    def test_design_of_wrong_length_is_a_config_error(self, built):
        # refused before the levelset and the assembler are built
        with pytest.raises(ConfigError, match="expects 66 values"):
            analyze(small_cantilever(), np.zeros(2))
        assert built == []

    @pytest.mark.parametrize("analysis", [
        analyze, lambda p, d: check_gradients(p, design=d)],
        ids=["analyze", "check_gradients"])
    def test_design_outside_the_box_is_a_config_error(self, built, analysis):
        # the rule that ``igtop export`` applies to a design file, before
        # the levelset and the assembler are built
        design = np.zeros(66)
        design[7] = 1.5
        with pytest.raises(ConfigError, match=re.escape(
                "design value 1.5 at index 7 lies outside [-1, 1]")):
            analysis(small_cantilever(), design)
        assert built == []

    @pytest.mark.parametrize("design, message", [
        (["a"] * 66, "design is not numeric"),
        (["0.5"] * 66, "design is not numeric"),
        ([True] * 66, "design is not numeric"),
        ([[0.0]] * 65 + [[0.0, 1.0]], "design is not numeric"),
        (np.full(66, np.nan), "at index 0 lies outside"),
        (np.r_[np.zeros(65), np.inf], "at index 65 lies outside"),
    ], ids=["strings", "numeric-strings", "bools", "ragged", "nan", "inf"])
    def test_design_of_non_finite_numbers_is_a_config_error(self, design,
                                                            message):
        with pytest.raises(ConfigError, match=message):
            analyze(small_cantilever(), design)

    def test_initial_design_outlasts_analyses(self):
        ws = _Workspace(cantilever(nx=9, ny=5))
        s0 = ws.initial.copy()
        ws.analyze(s0 * 0 + 0.5)
        assert np.array_equal(ws.initial, s0)

    def test_explicit_design_roundtrip(self):
        p = small_cantilever()
        result = run(p, budget=4)
        model, u, f, c, vol = analyze(p, result.design)
        assert c == pytest.approx(result.history[-1].compliance, rel=1e-14)

    @pytest.mark.parametrize("problem, body_load", [
        (small_cantilever(), False),
        (heat_sink(nx=9, ny=9, rbf_nx=7, rbf_ny=7), True)],
        ids=["elastic", "conduction"])
    def test_tile_geometry_is_computed_once(self, monkeypatch, problem,
                                            body_load):
        # each float64 array of model.tiles is computed once, when code
        # first reads it: an assembly computes hats and grads and no ddet,
        # the gradients add ddet, and a longdouble assembly casts grads;
        # the mesh's hat gradients are computed once for every assembler;
        # the model keeps centroid shape values only where a body load
        # needs them
        import igtop.enrich
        import igtop.fem
        import igtop.mesh
        import igtop.sensitivity

        calls = {"tri_jacobian": 0, "cofactor_hat_gradients": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (igtop.mesh, igtop.enrich, igtop.fem,
                       igtop.sensitivity):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(
                        name, getattr(module, name)))
        ws = _Workspace(problem)
        model, u, *_ = ws.analyze(ws.initial)
        assert model.n_cut > 0
        assert {"hats", "grads"} <= set(vars(model))
        assert "ddet" not in vars(model)
        assert calls["tri_jacobian"] == 0
        ws.gradients(model, u)
        assert {"ddet", "hats", "grads"} <= set(vars(model))
        Assembler(ws.mesh, problem.pair, ws.loads,
                  dtype=np.longdouble).assemble(model)
        # the mesh's hat gradients and the tiles' own
        assert calls == {"tri_jacobian": 1, "cofactor_hat_gradients": 2}
        assert ("centroid_shape" in vars(model)) == body_load


class TestStartingDesign:
    """A run fits the initial design once, and a given design is used as
    given, with no fit."""

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        fit = driver.ProblemSpec.initial_design

        def counted(self, grid):
            calls.append(self.name)
            return fit(self, grid)

        monkeypatch.setattr(driver.ProblemSpec, "initial_design", counted)
        return calls

    @pytest.mark.parametrize("problem, meshes", [
        (small_mbb(), ["16x6"] * 10 + ["31x11"] * 2),
        (small_cantilever(), ["11x6"] * 3)], ids=["staged", "cantilever"])
    def test_a_run_fits_once(self, fits, problem, meshes):
        result = run(problem, budget=len(meshes))
        assert [r.mesh for r in result.history] == meshes
        assert len(fits) == 1

    def test_a_given_design_is_not_fitted(self, fits):
        p = small_cantilever()
        design = _Workspace(p).initial
        fits.clear()
        _, _, _, c, _ = analyze(p, design)
        rows = check_gradients(p, design=design, quantity="volume",
                               n_sample=2)
        assert fits == []
        assert c == analyze(p)[3] and len(rows) == 2


class TestSupportsAndLoads:
    """Essential conditions hold on the enriched dofs of clamped edges, and
    the design variables around a point load stay passive."""

    def test_compliance_is_continuous_where_the_interface_crosses_the_clamp(
            self):
        # two successive late designs of a cantilever run, between which the
        # levelset at the clamped node (0, 0.1) changes sign; with the
        # enriched dofs on the clamped edge free, the compliance jumped 2.3%
        # at the crossing, held it moves 5e-5
        a, b = np.loadtxt(DATA / "cantilever_clamp_crossing.txt")
        ws = _Workspace(cantilever())
        node = ws.mesh.nearest_node((0.0, 0.1))
        assert node in ws.mesh.boundary["left"]
        c, phi = [], []
        for t in np.linspace(0.0, 1.0, 41):
            model, _, _, value, _ = ws.analyze((1.0 - t) * a + t * b)
            c.append(value)
            phi.append(model.phi[node])
        c, phi = np.array(c), np.array(phi)
        assert np.count_nonzero(np.diff(np.sign(phi))) == 1
        assert np.max(np.abs(np.diff(c)) / c[:-1]) < 1e-3

    @pytest.mark.parametrize("problem", [cantilever(), mbb()],
                             ids=["cantilever", "mbb"])
    def test_enriched_dofs_on_fixed_edges_are_fixed(self, problem):
        ws = _Workspace(problem)
        a, _ = np.loadtxt(DATA / "cantilever_clamp_crossing.txt")
        design = a if problem.name == "cantilever" else ws.initial
        model, u, *_ = ws.analyze(design)
        d = problem.pair.field_dim
        fixed = np.zeros(d * ws.mesh.n_nodes, dtype=bool)
        fixed[ws.fixed] = True
        fixed = fixed.reshape(-1, d)
        held = fixed[model.enr_edges[:, 0]] & fixed[model.enr_edges[:, 1]]
        assert held.any()
        enriched = u[d * ws.mesh.n_nodes:].reshape(-1, d)
        assert np.all(enriched[held] == 0.0)
        assert np.all(enriched[~held] != 0.0)

    def test_kernels_covering_a_point_load_stay_at_s_max(self):
        problem = small_cantilever(budget=12)
        ws = _Workspace(problem)
        load = ws.loads.point_loads[0][0]
        covering = ws.field.theta[load]
        assert ws.passive.size and np.array_equal(
            ws.passive, np.sort(covering.indices[covering.data > 0.0]))
        assert np.all(ws.initial[ws.passive] == S_MAX)
        assert ws.field.nodal_values[load] > 0.0
        designs = []
        run(problem, observer=lambda state: designs.append(state.design))
        assert np.all(np.array(designs)[:, ws.passive] == S_MAX)
        # the gradients of the analysis stay exact there
        model, u, *_ = ws.analyze(ws.initial)
        dc, dv = ws.gradients(model, u)
        assert np.any(dc[ws.passive] != 0.0) or np.any(dv[ws.passive] != 0.0)

    def test_problems_without_point_loads_have_no_passive_variables(self):
        assert _Workspace(heat_sink(nx=9, ny=9, rbf_nx=7,
                                    rbf_ny=7)).passive.size == 0


SMALL_PROBLEMS = {
    "elastic": small_cantilever(),
    "conduction": heat_sink(nx=9, ny=9, rbf_nx=7, rbf_ny=7),
}


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(SMALL_PROBLEMS)), st.data())
def test_random_in_bound_designs_keep_the_analysis_invariants(physics, data):
    p = SMALL_PROBLEMS[physics]
    design = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0),
        min_size=p.rbf_nx * p.rbf_ny, max_size=p.rbf_nx * p.rbf_ny)))
    try:
        model, u, f, c, vol = analyze(p, design)
    except NumericalError:
        return
    domain = p.width * p.height
    assert np.isfinite(c) and c > 0.0
    assert 0.0 <= vol <= domain
    tiled = model.tiles.area.reshape(model.n_cut, 3).sum(axis=1)
    parents = model.mesh.areas[model.cut_parents]
    assert np.all(np.abs(tiled - parents) <= 1e-12 * parents)


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

    @pytest.mark.parametrize("quantity", ["compliance", "volume"])
    def test_every_variable_of_a_mid_run_design(self, quantity):
        # a late cantilever design whose cut crosses the clamp: every one of
        # its 231 rows, the passive variables and the enriched dofs held on
        # the clamped edge included, at criterion 2's bar
        a, _ = np.loadtxt(DATA / "cantilever_clamp_crossing.txt")
        problem = cantilever()
        rows = check_gradients(problem, design=a, n_sample=a.size,
                               quantity=quantity)
        assert [r.index for r in rows] == list(range(a.size))
        assert list(_Workspace(problem).passive) == [104, 124, 125, 146]
        clean = [r for r in rows if not r.topology_event]
        good = sum(r.rel_err <= 1e-3 for r in clean)
        assert good >= 0.95 * len(clean), (good, len(clean))

    @pytest.mark.parametrize("quantity", ["compliance", "volume"])
    def test_mid_run_heat_sink_design(self, quantity):
        # the heat sink carries a body load in both phases, the only builtin
        # problem on the body-load term of the compliance gradient; the
        # cantilever design of iteration 80 is one of a run that never settles
        for problem, name in ((heat_sink(), "heat_sink_iter40.txt"),
                              (cantilever(), "cantilever_iter80.txt")):
            s = np.loadtxt(DATA / name)
            rows = check_gradients(problem, design=s, n_sample=50, seed=0,
                                   quantity=quantity)
            clean = [r for r in rows if not r.topology_event]
            good = sum(r.rel_err <= 1e-3 for r in clean)
            assert good >= 0.95 * len(clean), (name, good, len(clean))

    @pytest.mark.parametrize("name, data", [
        ("cantilever", None), ("heat_sink", None),
        ("cantilever", "cantilever_iter80.txt"),
        ("heat_sink", "heat_sink_iter40.txt")])
    def test_volume_probes_match_whole_mesh_probes(self, name, data):
        # tiling the patch alone flags the rows that whole-mesh probes flag,
        # and its quotients differ from theirs only by the whole volume's
        # rounding, eps times the domain, over h
        problem = get_problem(name)
        design = None if data is None else np.loadtxt(DATA / data)
        h = 1e-6
        rows = check_gradients(problem, design=design, h=h,
                               quantity="volume")
        whole = oracles.whole_mesh_volume_check(problem, design, h=h)
        assert [r.index for r in rows] == [r.index for r in whole]
        assert [r.analytic for r in rows] == [r.analytic for r in whole]
        assert [r.topology_event for r in rows] == \
            [r.topology_event for r in whole]
        tol = 4 * np.finfo(float).eps * problem.width * problem.height / h
        for r, w in zip(rows, whole):
            assert abs(r.fd - w.fd) <= tol, (r.index, r.fd, w.fd)

    @staticmethod
    def tiled_meshes(monkeypatch) -> list:
        """The meshes that the driver tiles from now on, in call order."""
        meshes = []
        build = driver.build_enriched_model
        monkeypatch.setattr(driver, "build_enriched_model",
                            lambda mesh, phi: meshes.append(mesh)
                            or build(mesh, phi))
        return meshes

    def test_a_moved_snap_threshold_joins_the_patch(self, monkeypatch):
        # node k, outside kernel i's support, sits below the snap threshold
        # 1e-10 max|phi|, and kernel i holds the largest |phi| at node m:
        # probing s_i moves the threshold, hence k's snapped value
        problem = small_cantilever()
        ws = _Workspace(problem)
        theta = ws.field.theta.toarray()
        s = ws.initial.copy()
        phi = theta @ s
        m = int(np.argmax(np.abs(phi)))
        i = int(np.argmax(theta[m]))
        k = j = 0
        assert theta[k, i] == 0.0 and theta[m, j] == 0.0 < theta[k, j]
        s[j] -= phi[k] / theta[k, j]
        phi = theta @ s
        assert np.argmax(np.abs(phi)) == m
        assert abs(phi[k]) < 1e-10 * abs(phi[m])
        meshes = self.tiled_meshes(monkeypatch)
        check_gradients(problem, design=s, n_sample=s.size,
                        quantity="volume")
        # the base model, then the two probes of each row in index order
        assert len(meshes) == 1 + 2 * s.size
        around_k = {tuple(e) for e in ws.mesh.elements if k in e}
        tiled = {tuple(e) for e in meshes[1 + 2 * i].elements}
        assert meshes[2 + 2 * i] is meshes[1 + 2 * i]
        assert around_k <= tiled
        # the kernel of the far corner reaches neither m nor k
        far = s.size - 1
        assert theta[m, far] == theta[k, far] == 0.0
        assert not around_k & {tuple(e) for e in meshes[1 + 2 * far].elements}

    def test_probes_that_move_no_snapped_value_tile_nothing(self,
                                                            monkeypatch):
        # at h = 1e-300 no nodal levelset changes, so the patch is empty
        meshes = self.tiled_meshes(monkeypatch)
        rows = check_gradients(small_cantilever(), n_sample=5, h=1e-300,
                               quantity="volume")
        assert [m.n_elements for m in meshes[1:]] == [0] * 10
        assert all(r.fd == 0.0 and not r.topology_event for r in rows)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("problem", [
        cantilever(9, 5), heat_sink(nx=9, ny=9, rbf_nx=7, rbf_ny=7)],
        ids=["cantilever", "heat_sink"])
    def test_an_all_void_volume_check_agrees(self, problem):
        # with no material the volume and both sides of every row are
        # exactly 0, which agree
        design = -np.ones(problem.rbf_nx * problem.rbf_ny)
        rows = check_gradients(problem, design=design, n_sample=3,
                               quantity="volume")
        assert len(rows) == 3
        assert all(r.analytic == r.fd == r.rel_err == 0.0 for r in rows)
        assert _report_gradient_rows(rows) == 0

    def test_sample_capped_by_design_size(self):
        p = small_cantilever()
        rows = check_gradients(p, n_sample=10_000, seed=0)
        assert len(rows) == p.rbf_nx * p.rbf_ny

    @pytest.mark.parametrize("kwargs, message", [
        (dict(h=0.0), "step h"), (dict(h=float("nan")), "step h"),
        (dict(n_sample=0), "n_sample"), (dict(quantity="stress"), "quantity"),
        (dict(seed=-1), "seed"),
        (dict(design=np.zeros(3)), "expects 66 values"),
        (dict(n_sample=2.5, quantity="volume"), "n_sample must be an integer"),
        (dict(seed=1.5, quantity="volume"), "seed must be an integer"),
        (dict(h="1e-6"), "step h"),
        (dict(n_sample=True, quantity="volume"), "n_sample must be an integer"),
        (dict(seed=False, quantity="volume"), "seed must be an integer"),
        (dict(design=np.full(66, np.nan), quantity="volume"),
         "at index 0 lies outside"),
    ], ids=["h-zero", "h-nan", "no-samples", "unknown-quantity",
            "negative-seed", "wrong-length-design", "fractional-samples",
            "fractional-seed", "h-string", "bool-samples", "bool-seed",
            "nan-design"])
    def test_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            check_gradients(small_cantilever(), **kwargs)
