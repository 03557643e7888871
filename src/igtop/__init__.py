"""Levelset topology optimization with an interface-enriched finite element method.

Material boundaries are tracked by a radial-basis-function levelset, resolved
exactly in the analysis mesh through enriched degrees of freedom at the
interface, differentiated analytically through the enriched-node positions,
and optimized with the method of moving asymptotes.
"""

from .driver import (BUILTIN_PROBLEMS, DirichletRule, HistoryRecord,
                     IterationState, ProblemSpec, RunResult, analyze,
                     cantilever, check_gradients, get_problem, heat_sink,
                     mbb, run)
from .enrich import EnrichedModel, build_enriched_model, snap_nodal_levelset
from .errors import (ConfigError, IgtopError, MmaStepError, NumericalError,
                     SolverError)
from .fem import (Assembler, Conduction, LoadCase, MaterialPair,
                  PlaneStressElastic, compliance, solve_system)
from .mesh import Mesh, structured_grid
from .mma import MmaOptimizer
from .rbf import (LevelsetField, RbfGrid, build_theta, fit_design,
                  hole_lattice_levelset)
from .sensitivity import (compliance_gradient, design_velocity,
                          nodal_compliance_gradient, nodal_volume_gradient,
                          volume_gradient)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PROBLEMS", "DirichletRule", "HistoryRecord", "IterationState",
    "ProblemSpec", "RunResult", "analyze", "cantilever", "check_gradients",
    "get_problem", "heat_sink", "mbb", "run",
    "EnrichedModel", "build_enriched_model", "snap_nodal_levelset",
    "ConfigError", "IgtopError", "MmaStepError", "NumericalError",
    "SolverError",
    "Assembler", "Conduction", "LoadCase", "MaterialPair",
    "PlaneStressElastic", "compliance", "solve_system",
    "Mesh", "structured_grid",
    "MmaOptimizer",
    "LevelsetField", "RbfGrid", "build_theta", "fit_design",
    "hole_lattice_levelset",
    "compliance_gradient", "design_velocity", "nodal_compliance_gradient",
    "nodal_volume_gradient", "volume_gradient",
    "__version__",
]
