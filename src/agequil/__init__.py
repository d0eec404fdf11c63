"""Equilibria and bifurcation branches of age- and space-structured
population models with nonlinear diffusion on the unit interval."""

import os

# The dense solves here are small, and a BLAS thread pool costs more on
# them than it saves, so each numerical library gets one thread unless the
# caller set its variable.  This acts only if numpy is not loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .continuation import (
    Branch,
    BranchPoint,
    BranchStats,
    ContinuationError,
    Plane,
    branch_stats,
    correct,
    first_step,
    trace_branch,
)
from .discretize import AssemblyError, SpatialMesh, assemble
from .evolution import (
    AgeGrid,
    EvolutionError,
    EvolutionOperator,
    apply_K0,
    build_evolution,
    freeze,
    march,
    propagate,
)
from .fixedpoint import (
    FixedPointError,
    FixedPointResult,
    ShellReport,
    check_shell_conditions,
    multistart_fixedpoint,
    solve_fixedpoint,
)
from .linearized import (
    LinearizedError,
    LinearizedOperators,
    apply_birth_feedback,
    apply_perturbation,
    build_linearized,
    reformulation_residual,
    solve_linear,
)
from .model import (
    ModelError,
    ModelSpec,
    parse_grid,
    parse_model,
    serialize_model,
    validate_model,
    with_cb,
)
from .reproduction import (
    PowerIterationError,
    ReproductionError,
    assemble_Q,
    birth_functional,
    normalize,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "AgeGrid",
    "AssemblyError",
    "Branch",
    "BranchPoint",
    "BranchStats",
    "ContinuationError",
    "EvolutionError",
    "EvolutionOperator",
    "FixedPointError",
    "FixedPointResult",
    "LinearizedError",
    "LinearizedOperators",
    "ModelError",
    "ModelSpec",
    "Plane",
    "PowerIterationError",
    "ReproductionError",
    "ShellReport",
    "SpatialMesh",
    "apply_K0",
    "apply_birth_feedback",
    "apply_perturbation",
    "assemble",
    "assemble_Q",
    "birth_functional",
    "branch_stats",
    "build_evolution",
    "build_linearized",
    "check_shell_conditions",
    "correct",
    "first_step",
    "freeze",
    "march",
    "multistart_fixedpoint",
    "normalize",
    "parse_grid",
    "parse_model",
    "propagate",
    "reformulation_residual",
    "serialize_model",
    "solve_fixedpoint",
    "solve_linear",
    "spectral_radius",
    "trace_branch",
    "validate_model",
    "with_cb",
]
