"""Correctness checks on workload outputs.

Each check returns a list of problems (empty when the output is correct).
The references are the paper's gate bands, central differences and
properties the enriched method must have; none is a stored copy of an
earlier run's output.
"""

from __future__ import annotations

import math

import numpy as np

# Relative round-off allowances. Each sum behind them has a few dozen terms
# of at most the largest entry, so double round-off sits near 1e-14.
SYMMETRY_TOL = 1e-12
UNIFORM_FIELD_TOL = 1e-11
TILING_TOL = 1e-12
# f . u - u^T K u = u . (f - K u): bounded by the solve residual, which the
# solver's refinement keeps far below the 1e-6 it accepts.
ENERGY_TOL = 1e-7

GRADIENT_TOL = 1e-3
GRADIENT_PASS_SHARE = 0.95


def check_band(label: str, value: float, reference: float,
               rel_tol: float) -> list[str]:
    """``value`` lies within ``reference`` +- ``rel_tol`` (relative)."""
    if abs(value - reference) <= rel_tol * reference:
        return []
    return [f"{label} {value!r} is outside {reference} +- {rel_tol:.0%}"]


def check_history(history) -> list[str]:
    """Every compliance in the history is finite and positive."""
    bad = [r.iteration for r in history
           if not (math.isfinite(r.compliance) and r.compliance > 0.0)]
    if bad:
        return [f"compliance is not finite and positive at iterations "
                f"{bad[:5]}"]
    return []


def check_steps(designs, move_limit: float, lower: float,
                upper: float) -> list[str]:
    """Designs stay in their bounds and no MMA step exceeds the move limit."""
    problems = []
    d = np.asarray(designs)
    if d.min() < lower or d.max() > upper:
        problems.append(f"design left [{lower}, {upper}]: "
                        f"range [{d.min()!r}, {d.max()!r}]")
    if len(d) > 1:
        step = np.abs(np.diff(d, axis=0)).max()
        if step > move_limit * (1.0 + 1e-12):
            problems.append(f"design step {step!r} exceeds the move limit "
                            f"{move_limit}")
    return problems


def check_system(k, f, u, field_dim: int, n_nodes: int) -> list[str]:
    """Method properties of an assembled enriched system and its solution.

    K is symmetric; K annihilates a uniform field (one on one component of
    every original dof, zero on the enriched dofs), which is partition of
    unity; and the external work f . u equals the strain energy u^T K u.
    """
    problems = []
    kmax = abs(k).max()
    asym = abs(k - k.T).max()
    if asym > SYMMETRY_TOL * kmax:
        problems.append(f"K is not symmetric: max |K - K^T| = {asym!r} "
                        f"against max |K| = {kmax!r}")
    for comp in range(field_dim):
        t = np.zeros(k.shape[0])
        t[comp:field_dim * n_nodes:field_dim] = 1.0
        rest = np.abs(k @ t).max()
        if rest > UNIFORM_FIELD_TOL * kmax:
            problems.append(f"K does not annihilate the uniform field of "
                            f"component {comp}: max |K t| = {rest!r}")
    work = float(f @ u)
    energy = float(u @ (k @ u))
    if not abs(work - energy) <= ENERGY_TOL * abs(work):
        problems.append(f"f . u = {work!r} differs from u^T K u = "
                        f"{energy!r}")
    return problems


def check_tiling(model) -> list[str]:
    """The three integration elements of every cut parent tile it."""
    mesh = model.mesh
    bad = []
    for row, parent in enumerate(model.cut_parents):
        tiles = model.integration[3 * row: 3 * row + 3]
        area = mesh.areas[parent]
        covered = 0.0
        for ie in tiles:
            x = ie.coords
            a = 0.5 * ((x[1, 0] - x[0, 0]) * (x[2, 1] - x[0, 1])
                       - (x[1, 1] - x[0, 1]) * (x[2, 0] - x[0, 0]))
            if ie.parent != parent or not a > 0.0 \
                    or abs(a - ie.area) > TILING_TOL * area:
                bad.append(int(parent))
            covered += a
        if abs(covered - area) > TILING_TOL * area:
            bad.append(int(parent))
    if bad:
        return [f"integration elements do not tile cut parents "
                f"{sorted(set(bad))[:5]}"]
    return []


def check_gradient_rows(label: str, rows) -> list[str]:
    """At least 95% of the rows without a topology event agree with
    central differences within 1e-3."""
    clean = [r for r in rows if not r.topology_event]
    if not clean:
        return [f"{label}: every sampled row is a topology event"]
    good = sum(r.rel_err <= GRADIENT_TOL for r in clean)
    if good < GRADIENT_PASS_SHARE * len(clean):
        return [f"{label}: {good} of {len(clean)} clean rows agree with "
                f"central differences within {GRADIENT_TOL}"]
    return []
