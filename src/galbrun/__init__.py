"""Time-domain finite elements for the regularized Galbrun equation.

2D rigid duct, uniform subsonic mean flow along x, P1 Lagrange elements,
leapfrog time stepping, first-order absorbing conditions on the artificial
upstream/downstream boundaries.
"""

from galbrun.mesh import (
    CONSTRAINED,
    BoundaryTag,
    DofMap,
    DuctGeometry,
    Mesh,
    build_dof_map,
    build_duct_mesh,
)
from galbrun.assembly import AbcVariant, SystemMatrices, SystemRecipe, build_system
from galbrun.physics import SourceSpec, TimeProfile
from galbrun.dynamics import RunResult, SimState, Stable, StepOperator, Unstable, run_simulation
from galbrun.config import ConfigError, RunConfig, load_config

__all__ = [
    "CONSTRAINED",
    "AbcVariant",
    "BoundaryTag",
    "ConfigError",
    "DofMap",
    "DuctGeometry",
    "Mesh",
    "RunConfig",
    "RunResult",
    "SimState",
    "SourceSpec",
    "Stable",
    "StepOperator",
    "SystemMatrices",
    "SystemRecipe",
    "TimeProfile",
    "Unstable",
    "build_dof_map",
    "build_duct_mesh",
    "build_system",
    "load_config",
    "run_simulation",
]

__version__ = "0.1.0"
