"""Age- and space-structured epidemic solver with damped-wave relaxation."""

from .birth import (
    BirthContext,
    BirthLaws,
    birth_context,
    make_compatible,
    newborn_source,
    solve_birth_step,
)
from .char_solver import StepContext, step, step_context, step_rhs
from .fields import NormReport, Run, StateField, diff_norms, norm_H, norm_V
from .mesh import Mesh, build_mesh
from .operators import (
    FactoredTable,
    KernelSet,
    KernelTerm,
    LinearPart,
    attach_tilde,
    delta_lambda_apply,
    g_op,
    lambda_op,
    laplacian_neumann,
)
from .parabolic_model import run_parabolic
from .relaxed_model import (
    ModelSpec,
    SolverConfig,
    derived_initial_slope,
    run_relaxed,
)
from .study import SweepResult, compatibility_setup, front_tracker, tau_sweep
from .svir import SvirParams, build_svir

__all__ = [
    "BirthContext",
    "BirthLaws",
    "FactoredTable",
    "KernelSet",
    "KernelTerm",
    "LinearPart",
    "Mesh",
    "ModelSpec",
    "NormReport",
    "Run",
    "SolverConfig",
    "StateField",
    "StepContext",
    "SvirParams",
    "SweepResult",
    "attach_tilde",
    "birth_context",
    "build_mesh",
    "build_svir",
    "compatibility_setup",
    "delta_lambda_apply",
    "derived_initial_slope",
    "diff_norms",
    "front_tracker",
    "g_op",
    "lambda_op",
    "laplacian_neumann",
    "make_compatible",
    "newborn_source",
    "norm_H",
    "norm_V",
    "run_parabolic",
    "run_relaxed",
    "solve_birth_step",
    "step",
    "step_context",
    "step_rhs",
    "tau_sweep",
]

__version__ = "0.1.0"
