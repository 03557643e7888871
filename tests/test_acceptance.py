"""End-to-end acceptance gate.

Ten criteria cover interface exactness, sensitivity fidelity, the three
benchmark optimizations, enrichment invariants, the element-derivative
suite, the oscillation diagnostic, the enriched system against the
matching mesh's, and its conditioning as tiles vanish. Each test prints one
summary line (run pytest with ``-s`` to see them live). The benchmark
criteria share their optimizations, each run once, and dominate the
runtime: the module takes about a minute at one BLAS thread on a shared
2-core machine.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from igtop.driver import (ProblemSpec, _Workspace, cantilever,
                          check_gradients, heat_sink, mbb, run)
from igtop.enrich import build_enriched_model, snap_nodal_levelset
from igtop.errors import SolverError
from igtop.fem import (Assembler, Conduction, LoadCase, MaterialPair,
                       PlaneStressElastic, integration_element_force,
                       integration_element_stiffness, node_dofs,
                       solve_system)
from igtop.mesh import Mesh, cross2, structured_grid, tri_jacobian
from oracles import (conforming_map, conforming_system, edge_traction_loads,
                     enrichment_values, integration_element_force_derivative,
                     integration_element_stiffness_derivative,
                     inv_derivative, jacobian_derivative, jacobian_inverse)

DATA = Path(__file__).resolve().parent / "data"


def report(num, name, checks):
    """One pass/fail line per criterion; checks are (label, ok, detail), and
    a failing check is marked in the line."""
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{label} {text}{'' if good else ' [fails]'}"
                       for label, good, text in checks)
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


# per benchmark: its factory, the paper's final compliance C, the relative
# band about it, the final volume fraction's rule (target, tol): VF within
# tol of target, or at most target where tol is None; MBB's target is its
# constraint plus 1%; and the format of C
GATES = {
    "cantilever": (cantilever, 56.998, 0.10, (0.56, None), ".3f"),
    "mbb": (mbb, 175.26, 0.10, (mbb().volume_fraction * 1.01, None), ".3f"),
    "heat_sink": (heat_sink, 3.240, 0.15, (0.45, 0.01), ".4f"),
}


@pytest.fixture(scope="module")
def optimize():
    """``optimize(name, k=0, **overrides)``: the history and wall time of
    ``run`` on ``GATES[name]``'s factory called with ``overrides``, from its
    initial design scaled by (1 + k 1e-14). Each call runs once per module;
    the k = 0 run is the plain one, as x (1 + 0 1e-14) is x bit for bit.
    Only the history is kept, so no model or solution outlives its run."""
    done = {}
    initial = ProblemSpec.initial_design

    def optimize(name, k=0, **overrides):
        key = name, k, tuple(sorted(overrides.items()))
        if key not in done:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ProblemSpec, "initial_design",
                              lambda self, grid: initial(self, grid)
                              * (1.0 + k * 1e-14))
                t0 = time.perf_counter()
                history = run(GATES[name][0](**overrides)).history
                done[key] = history, time.perf_counter() - t0
        return done[key]

    return optimize


def gate_checks(name, history):
    """The gate's band on C and its volume rule at a run's last record."""
    _, ref, band, (target, tol), c_format = GATES[name]
    c, vf = history[-1].compliance, history[-1].volume_fraction
    vf_check = (f"VF <= {target:.4g}", vf <= target) if tol is None \
        else (f"VF in {target}+-{tol}", abs(vf - target) <= tol)
    return [(f"C in {ref:g}+-{band:.0%}", abs(c - ref) <= band * ref,
             f"{c:{c_format}}"), (*vf_check, f"{vf:.4f}")]


def perturbed(optimize, name, ok=lambda history: True):
    """The runs from the initial design scaled by (1 + k 1e-14), k = 0..7,
    whose rounding must not decide the gate: their histories, summed wall
    time, the gate's rules and one check per k of the rules and ``ok``."""
    runs = [optimize(name, k) for k in range(8)]
    checks = []
    for k, (history, _) in enumerate(runs):
        (c_rule, c_ok, c), (vf_rule, vf_ok, vf) = gate_checks(name, history)
        checks.append((f"k={k}", c_ok and vf_ok and ok(history),
                       f"C {c} VF {vf} in {len(history)}"))
    return [history for history, _ in runs], \
        sum(wall for _, wall in runs), f"{c_rule}, {vf_rule}", checks


class TestCriterion1Exactness:
    """A vertical material interface between mesh lines, uniaxial loading:
    the exact field is piecewise linear with a kink on the interface, lies
    in the enriched space, and must be reproduced to solver precision."""

    def test_bi_material_patch(self):
        t0 = time.perf_counter()

        # conduction, kappa (1, 0.01), interface at x = 0.4 on a 0.25 grid
        mesh = structured_grid(1.0, 1.0, 5, 5)
        phi = snap_nodal_levelset(mesh.nodes[:, 0] - 0.4)
        model = build_enriched_model(mesh, phi)
        pair = MaterialPair(Conduction(), 1.0, 0.01)
        loads = LoadCase(point_loads=edge_traction_loads(mesh, "right", [1.0]))
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        res = solve_system(k, f, node_dofs(mesh.boundary["left"], 1))
        x = mesh.nodes[:, 0]
        exact = np.where(x <= 0.4, x / 0.01, 40.0 + (x - 0.4))
        err_heat = np.max(np.abs(res.u[:mesh.n_nodes] - exact)) \
            / np.max(np.abs(exact))

        # plane stress, E (1, 1e-6), nu = 0: the modulus contrast saturates
        # double precision near 1e-9, so this patch assembles in extended
        # precision and the solver refines in kind
        pair = MaterialPair(PlaneStressElastic(0.0), 1.0, 1e-6)
        loads = LoadCase(point_loads=edge_traction_loads(
            mesh, "right", [1.0, 0.0], dtype=np.longdouble))
        k, f = Assembler(model.mesh, pair, loads,
                         dtype=np.longdouble).assemble(model)
        res = solve_system(k, f, node_dofs(mesh.boundary["left"], 2))
        exact_ux = np.where(x <= 0.4, 1e6 * x, 4e5 + (x - 0.4))
        ux = res.u[0:2 * mesh.n_nodes:2]
        uy = res.u[1:2 * mesh.n_nodes:2]
        scale = np.max(np.abs(exact_ux))
        err_elastic = max(np.max(np.abs(ux - exact_ux)),
                          np.max(np.abs(uy))) / scale

        wall = time.perf_counter() - t0
        report(1, "bi-material exactness", [
            ("heat rel err", err_heat <= 1e-9, f"{err_heat:.2e}"),
            ("elastic rel err", err_elastic <= 1e-9, f"{err_elastic:.2e}"),
            ("runtime", wall < 1.0, f"{wall:.2f}s"),
        ])


class TestCriterion2GradientFidelity:
    """Analytic dC/ds and dV/ds against full re-solve central differences
    on both benchmark initial designs."""

    @staticmethod
    def fraction_ok(rows, tol=1e-3):
        clean = [r for r in rows if not r.topology_event]
        good = sum(r.rel_err <= tol for r in clean)
        return good / len(clean), len(rows) - len(clean)

    def test_sampled_design_gradients(self):
        t0 = time.perf_counter()
        checks = []
        for problem in (cantilever(), heat_sink()):
            for quantity in ("compliance", "volume"):
                rows = check_gradients(problem, n_sample=50, h=1e-6,
                                       seed=0, quantity=quantity)
                frac, flagged = self.fraction_ok(rows)
                checks.append(
                    (f"{problem.name} d{quantity[0].upper()}", frac >= 0.95,
                     f"{100 * frac:.0f}% ok, {flagged} topology-flagged"))
        wall = time.perf_counter() - t0
        checks.append(("runtime", wall < 120.0, f"{wall:.0f}s"))
        report(2, "gradient fidelity", checks)


class TestCriterion3Cantilever:
    def test_final_compliance_and_refinement(self, optimize):
        coarse, wall_c = optimize("cantilever")
        fine, wall_f = optimize("cantilever", nx=41, ny=21)
        c_coarse, c_fine = coarse[-1].compliance, fine[-1].compliance
        wall = wall_c + wall_f
        report(3, "cantilever reproduction", gate_checks("cantilever", coarse)
               + [("41x21 C <= 21x11 C + 2%",
                   c_fine <= 1.02 * c_coarse, f"{c_fine:.3f}"),
                  ("runtime", wall < 600.0, f"{wall:.0f}s")])

    def test_band_holds_under_rounding_perturbations(self, optimize):
        # most runs settle before their budget, as each variable's move
        # limit shrinks where it oscillates
        histories, wall, rules, checks = perturbed(optimize, "cantilever")
        budget = cantilever().budget
        settled = sum(len(history) < budget for history in histories)
        report(3, f"cantilever under 1e-14 design perturbations, each {rules}",
               checks + [("at least 6 of 8 settle", settled >= 6,
                          f"{settled} of 8"),
                         ("runtime", wall < 600.0, f"{wall:.0f}s")])


class TestCriterion4Mbb:
    def test_final_compliance_and_constraint(self, optimize):
        history, wall = optimize("mbb")
        report(4, "MBB design-space study", gate_checks("mbb", history)
               + [("runtime", wall < 1800.0, f"{wall:.0f}s")])

    def test_band_holds_under_rounding_perturbations(self, optimize):
        _, wall, rules, checks = perturbed(optimize, "mbb")
        report(4, f"MBB under 1e-14 design perturbations, each {rules}",
               checks + [("runtime", wall < 1800.0, f"{wall:.0f}s")])


class TestCriterion5HeatSink:
    def test_final_compliance_and_volume(self, optimize):
        history, wall = optimize("heat_sink")
        report(5, "heat sink", gate_checks("heat_sink", history)
               + [("runtime", wall < 600.0, f"{wall:.0f}s")])

    def test_band_holds_under_rounding_perturbations(self, optimize):
        # every run settles before its 100-analysis budget
        _, wall, rules, checks = perturbed(
            optimize, "heat_sink", lambda history: len(history) < 100)
        report(5, f"heat sink under 1e-14 design perturbations, each {rules} "
               f"in < 100 analyses",
               checks + [("runtime", wall < 600.0, f"{wall:.0f}s")])


class TestCriterion6EnrichmentInvariants:
    def homogeneous_enriched_dofs(self):
        """Same material on both sides of a cut: a linear exact field is in
        the standard space and every enriched coefficient solves to zero."""
        mesh = structured_grid(1.0, 1.0, 7, 7)
        model = build_enriched_model(
            mesh, snap_nodal_levelset(mesh.nodes[:, 0] - 0.43))
        assert model.n_enriched > 0

        pair = MaterialPair(Conduction(), 1.0, 1.0)
        loads = LoadCase(point_loads=edge_traction_loads(mesh, "right", [1.0]))
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        res = solve_system(k, f, node_dofs(mesh.boundary["left"], 1))
        worst = np.max(np.abs(res.u[mesh.n_nodes:]))

        pair = MaterialPair(PlaneStressElastic(0.3), 1.0, 1.0)
        loads = LoadCase(point_loads=edge_traction_loads(
            mesh, "right", [1.0, 0.0]))
        fixed = np.concatenate([node_dofs(mesh.boundary["left"], 2,
                                          component=0),
                                node_dofs([0], 2, component=1)])
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        res = solve_system(k, f, fixed)
        return max(worst, np.max(np.abs(res.u[2 * mesh.n_nodes:])))

    def test_invariants(self):
        t0 = time.perf_counter()

        problem = cantilever()
        mesh = problem.build_mesh()
        field_design = problem.initial_design(problem.build_rbf())
        from igtop.rbf import LevelsetField
        field = LevelsetField(problem.build_rbf(), mesh.nodes, field_design)
        phi = snap_nodal_levelset(field.nodal_values)
        model = build_enriched_model(mesh, phi)
        assert model.n_cut > 0

        # tiling: the three integration elements of a cut parent cover it
        tiling_err = 0.0
        for r, parent in enumerate(model.cut_parents):
            covered = sum(model.integration[3 * r + i].area for i in range(3))
            tiling_err = max(tiling_err,
                             abs(covered - mesh.areas[parent])
                             / mesh.areas[parent])

        # psi vanishes wherever an integration-element vertex is original
        psi_err = 0.0
        eye = np.eye(3)
        for ie in model.integration:
            for l in range(3):
                if ie.enr_slots[l] < 0:
                    psi_err = max(psi_err,
                                  np.abs(enrichment_values(
                                      ie, eye[l])).max())

        enr_dof = self.homogeneous_enriched_dofs()

        # bitwise determinism: rebuild and re-run from identical inputs
        model2 = build_enriched_model(mesh, phi)
        same_model = (np.array_equal(model.enr_coords, model2.enr_coords)
                      and np.array_equal(model.cut_parents,
                                         model2.cut_parents)
                      and all(np.array_equal(a.coords, b.coords)
                              and a.area == b.area
                              for a, b in zip(model.integration,
                                              model2.integration)))
        small = cantilever(nx=11, ny=6, rbf_nx=11, rbf_ny=6, budget=4)
        r1, r2 = run(small), run(small)
        same_run = (np.array_equal(r1.design, r2.design)
                    and all(a.compliance == b.compliance
                            for a, b in zip(r1.history, r2.history)))

        wall = time.perf_counter() - t0
        report(6, "enrichment invariants", [
            ("tiling rel err", tiling_err <= 1e-12, f"{tiling_err:.2e}"),
            ("psi at original nodes", psi_err == 0.0, f"{psi_err:.2e}"),
            ("homogeneous enriched dofs", enr_dof <= 1e-9, f"{enr_dof:.2e}"),
            ("bitwise determinism", same_model and same_run,
             "model+run" if same_model and same_run else "BROKEN"),
            ("runtime", wall < 30.0, f"{wall:.1f}s"),
        ])


class TestCriterion7ElementDerivatives:
    """Geometric derivatives of the cut-element operators against central
    differences on randomized cut configurations."""

    HEAT = MaterialPair(Conduction(), 1.0, 0.01)
    ELASTIC = MaterialPair(PlaneStressElastic(0.3), 1.0, 1e-6)

    @staticmethod
    def random_cut_model(rng):
        while True:
            coords = rng.uniform(-1.0, 1.0, (3, 2))
            doubled = cross2(coords[1] - coords[0], coords[2] - coords[0])
            if abs(doubled) >= 0.1:
                break
        if doubled < 0.0:  # elements must wind counterclockwise
            coords[[1, 2]] = coords[[2, 1]]
        signs = rng.permutation([-1.0, 1.0, 1.0]) if rng.random() < 0.5 \
            else rng.permutation([-1.0, -1.0, 1.0])
        phi = signs * rng.uniform(0.2, 2.0, 3)
        mesh = Mesh(nodes=coords, elements=np.array([[0, 1, 2]]))
        return build_enriched_model(mesh, phi)

    @staticmethod
    def moved(ie, vertex, delta):
        coords = ie.coords.copy()
        coords[vertex] = coords[vertex] + delta
        area = 0.5 * float(cross2(coords[1] - coords[0],
                                  coords[2] - coords[0]))
        return dataclasses.replace(ie, coords=coords, area=area)

    def test_randomized_cut_configurations(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        h = 1e-7
        worst = {"det": 0.0, "inv": 0.0, "stiffness": 0.0, "force": 0.0}

        def track(kind, analytic, fd):
            scale = max(np.max(np.abs(fd)), 1e-9)
            worst[kind] = max(worst[kind],
                              np.max(np.abs(analytic - fd)) / scale)

        for _ in range(100):
            model = self.random_cut_model(rng)
            for ie in model.integration:
                ddet = dataclasses.replace(model, tiles=ie).ddet
                jinv = jacobian_inverse(ie)
                enriched = [l for l in range(3) if ie.enr_slots[l] >= 0]
                for l in enriched:
                    for c in range(2):
                        delta = np.zeros(2)
                        delta[c] = h
                        up, dn = self.moved(ie, l, delta), \
                            self.moved(ie, l, -delta)
                        up_model, dn_model = (
                            dataclasses.replace(model, tiles=x)
                            for x in (up, dn))
                        dj = jacobian_derivative(l, c)

                        jp, jm = tri_jacobian(up.coords), \
                            tri_jacobian(dn.coords)
                        track("det", ddet[l, c],
                              (np.linalg.det(jp) - np.linalg.det(jm))
                              / (2 * h))
                        track("inv", inv_derivative(jinv, dj),
                              (np.linalg.inv(jp) - np.linalg.inv(jm))
                              / (2 * h))

                        for pair in (self.HEAT, self.ELASTIC):
                            dk = integration_element_stiffness_derivative(
                                model, ie, pair, l, c)
                            fd = (integration_element_stiffness(
                                      up_model, pair)
                                  - integration_element_stiffness(
                                      dn_model, pair)) / (2 * h)
                            track("stiffness", dk, fd)

                        for body in ([0.7], [0.3, -0.4]):
                            b = np.array(body)
                            df = integration_element_force_derivative(
                                model, ie, b, l, c)
                            fd = (integration_element_force(up_model, b)
                                  - integration_element_force(
                                      dn_model, b)) / (2 * h)
                            track("force", df, fd)

        wall = time.perf_counter() - t0
        checks = [(f"d {kind} rel err", err <= 1e-5, f"{err:.2e}")
                  for kind, err in worst.items()]
        checks.append(("runtime", wall < 60.0, f"{wall:.1f}s"))
        report(7, "element derivative suite", checks)


class TestCriterion8Oscillation:
    """Bounded oscillation under the levelset discretization: topology
    events make the objective piecewise smooth, so the history may spike,
    but the best-so-far envelope must settle. Oscillation amplitude is
    measured as the largest single-iteration objective rise: a monotone
    descent scores zero regardless of its rate, so the measure cannot be
    confounded with the slower convergence of a smaller move limit, and
    the move limit mechanically bounds it."""

    @staticmethod
    def max_rise(history):
        c = np.array([r.compliance for r in history])
        rises = np.diff(c)
        return float(rises.max(initial=0.0))

    def test_bounded_oscillation(self, optimize):
        history, _ = optimize("heat_sink")
        best = np.minimum.accumulate([r.compliance for r in history])
        spread = (best[-20:].max() - best[-20:].min()) / best[-20:].min()

        halved, _ = optimize("heat_sink", move_limit=0.005)
        rise_full = self.max_rise(history)
        rise_half = self.max_rise(halved)

        report(8, "oscillation diagnostic", [
            ("best-so-far last-20 spread < 2%",
             spread < 0.02, f"{100 * spread:.3f}%"),
            ("halved move limit shrinks rises",
             rise_half < rise_full,
             f"{rise_half:.4f} vs {rise_full:.4f}"),
        ])


class TestCriterion9MatchingMesh:
    """The abstract's claim of the accuracy of a matching mesh without
    remeshing: on a cut parent the enriched space is exactly the continuous
    linear space of its three integration elements. With T taking the
    enriched dofs to the nodal values of the matching mesh (the uncut
    elements and all integration elements), K = T^T K_conf T and
    f = T^T f_conf, on the benchmark initial designs and two stored mid-run
    ones. Whether the conforming system itself solves is reported, not
    gated: its slivers of down to 1e-18 of a parent's area make it far
    worse conditioned than the enriched one."""

    DESIGNS = [(cantilever, None), (mbb, None), (heat_sink, None),
               (cantilever, "cantilever_iter80.txt"),
               (heat_sink, "heat_sink_iter40.txt")]

    def test_enriched_system_is_the_matching_mesh_system(self):
        t0 = time.perf_counter()
        checks = []
        for problem, design in self.DESIGNS:
            ws = _Workspace(problem(), None if design is None
                            else np.loadtxt(DATA / design))
            model = ws.model(ws.initial)
            k, f = ws.assembler.assemble(model)
            k_conf, f_conf = conforming_system(model, ws.problem.pair,
                                               ws.loads)
            t = conforming_map(model, ws.problem.pair.field_dim)
            err_k = abs(t.T @ k_conf @ t - k).max() / abs(k).max()
            err_f = np.abs(t.T @ f_conf - f).max() / np.abs(f).max()
            try:
                solve_system(k_conf, f_conf,
                             ws.assembler.fixed_dofs(model, ws.fixed),
                             ws.assembler.band_key(model))
                conf = "solves"
            except SolverError:
                conf = "does not solve"
            checks.append((design or f"{problem.__name__} initial",
                           err_k <= 1e-12 and err_f <= 1e-12,
                           f"K {err_k:.1e} f {err_f:.1e}, conforming "
                           f"system {conf}"))
        wall = time.perf_counter() - t0
        checks.append(("runtime", wall < 1.0, f"{wall:.2f}s"))
        report(9, "enriched system equals the matching mesh's", checks)


class TestCriterion10Conditioning:
    """The abstract's claim that the method avoids the ill-conditioning of
    earlier enriched methods: as the interface nears mesh nodes and tiles
    vanish, the Jacobi-scaled free block of K, the system that
    ``solve_system`` factors, stays conditioned. On a 9 x 9 patch with the
    left edge clamped, the interface passes delta h from the nodes of a
    column (void on the clamp's side), from one node along an inclined line
    and from 4 nodes inside a circle of radius (2 - delta) h; the
    approached nodes stay material, and delta = 0 leaves their offset to the
    snap, 1e-10 of the levelset's scale. Gated: the largest over the
    smallest dense condition number per family, and in every family the
    step from one delta to the next smaller one, snap included, which must
    grow the condition by less than 2x. The column with the material on the
    clamp's side is gated by the step alone: its scaled condition at 1:1e-6
    falls as its tiles vanish, since the next column's parent hats then no
    longer reach into the material sliver. Reported, not gated: the growth
    of the unscaled condition number."""

    H = 1.0 / 8.0
    DELTAS = (1e-2, 1e-4, 1e-6, 1e-8, 0.0)
    CASES = {
        "heat 1:1": MaterialPair(Conduction(), 1.0, 1.0),
        "heat 1:0.01": MaterialPair(Conduction(), 1.0, 0.01),
        "elastic 1:1": MaterialPair(PlaneStressElastic(0.3), 1.0, 1.0),
        "elastic 1:1e-6": MaterialPair(PlaneStressElastic(0.3), 1.0, 1e-6),
    }

    @classmethod
    def families(cls):
        """Nodal levelsets phi(nodes, delta), delta h at the approached
        nodes; the last is reported only."""
        h = cls.H
        c = np.array([4 * h, 4 * h])
        n = np.array([np.cos(0.3), np.sin(0.3)])
        return {
            "column": lambda x, d: x[:, 0] - (4 - d) * h,
            "line": lambda x, d: d * h - (x - c) @ n,
            "circle": lambda x, d: np.hypot(*(x - c).T) - (2 - d) * h,
            "mirrored column": lambda x, d: (4 + d) * h - x[:, 0],
        }

    @staticmethod
    def conditions(asm, phi):
        """Condition numbers of the free block of K, Jacobi-scaled and
        unscaled, from dense eigenvalues; inf where the smallest computed
        eigenvalue is not positive, below what double precision resolves
        in a positive definite block."""
        mesh = asm.mesh
        model = build_enriched_model(mesh, snap_nodal_levelset(phi))
        k = asm.assemble(model)[0].toarray()
        fixed = asm.fixed_dofs(model, node_dofs(mesh.boundary["left"],
                                                asm.pair.field_dim))
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        kff = k[np.ix_(free, free)]
        s = 1.0 / np.sqrt(np.diag(kff))
        scaled = np.linalg.eigvalsh(s[:, None] * kff * s)
        unscaled = np.linalg.eigvalsh(kff)
        return scaled[-1] / scaled[0], \
            unscaled[-1] / unscaled[0] if unscaled[0] > 0.0 else np.inf

    def test_scaled_condition_stays_flat_as_tiles_vanish(self):
        t0 = time.perf_counter()
        mesh = structured_grid(1.0, 1.0, 9, 9)
        checks = []
        for name, pair in self.CASES.items():
            asm = Assembler(mesh, pair, LoadCase())
            ratio, growth = {}, []  # growth from delta 1e-2 to the snap
            step = 0.0  # the largest growth from one delta to the next
            for family, levelset in self.families().items():
                scaled, unscaled = np.array([
                    self.conditions(asm, levelset(mesh.nodes, d))
                    for d in self.DELTAS]).T
                ratio[family] = scaled.max() / scaled.min()
                step = max(step, (scaled[1:] / scaled[:-1]).max())
                growth.append(unscaled[-1] / unscaled[0])
            mirrored = ratio.pop("mirrored column")
            worst = max(ratio.values())
            checks.append((name, worst < 2.0 and step < 2.0,
                           f"scaled ratio {worst:.2f} (mirrored column's "
                           f"{mirrored:.3g}, ungated), largest step "
                           f"{step:.3f}, unscaled growth "
                           f"{min(growth):.1e}-{max(growth):.1e}"))
        wall = time.perf_counter() - t0
        checks.append(("runtime", wall < 10.0, f"{wall:.1f}s"))
        report(10, "scaled conditioning as tiles vanish", checks)
