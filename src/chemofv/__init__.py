"""Finite volume solver for 2-D chemotaxis systems.

Implements a corrected decoupled time-stepping scheme (a lagged correction
of the chemoattractant source, with an optional positivity-safe scaling
factor) on admissible two-point-flux meshes, alongside the plain and
lagged decoupled baselines and a coupled fixed-point oracle for accuracy
checks.
"""

__version__ = "0.1.0"

from .config import Preset, preset
from .linalg import (
    LinearSolver,
    SolveReport,
    SolverError,
    SparseMatrix,
    check_m_matrix_pattern,
    spmv,
)
from .mesh import Mesh, MeshError, build_uniform_rect_mesh
from .model import (
    DiskRegion,
    InitialConditionSpec,
    ModelSpec,
    RectRegion,
    chem_source_value,
    make_initial_state,
)
from .scheme import (
    FluxLimiter,
    InvariantError,
    SchemeError,
    SchemeVariant,
    StepPlan,
    assemble_cell_system,
    assemble_chem_system,
    beta_n,
    limiter_S,
    step,
    step_coupled_oracle,
)
from .sim import (
    Diagnostics,
    RunConfig,
    StudyReport,
    convergence_study,
    discrete_h1_seminorm,
    discrete_norm,
    gradient_energy,
    relative_l2_error,
    run,
)
from .state import State

__all__ = [
    "__version__",
    "build_uniform_rect_mesh",
    "Mesh",
    "MeshError",
    "ModelSpec",
    "InitialConditionSpec",
    "RectRegion",
    "DiskRegion",
    "Preset",
    "preset",
    "chem_source_value",
    "make_initial_state",
    "State",
    "FluxLimiter",
    "SchemeVariant",
    "SchemeError",
    "StepPlan",
    "limiter_S",
    "beta_n",
    "assemble_chem_system",
    "assemble_cell_system",
    "step",
    "step_coupled_oracle",
    "SparseMatrix",
    "LinearSolver",
    "SolveReport",
    "SolverError",
    "spmv",
    "check_m_matrix_pattern",
    "RunConfig",
    "Diagnostics",
    "StudyReport",
    "InvariantError",
    "run",
    "convergence_study",
    "discrete_norm",
    "discrete_h1_seminorm",
    "gradient_energy",
    "relative_l2_error",
]
