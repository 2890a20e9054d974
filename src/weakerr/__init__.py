"""Weak-error toolkit for explicit and drift-implicit Euler schemes on scalar SDEs.

Simulates both Euler variants of dX = b(X) dt + sigma(X) dW, evaluates the
leading-order weak-error densities of each scheme as exact jet algebra,
computes scheme expectations without sampling noise through affine moment
recursions, and cross-checks everything with seeded, reproducible Monte
Carlo.  The headline experiment: the drift-implicit scheme has weak order
one, and subtracting the predicted first-order term h * C1 leaves an O(h^2)
remainder.
"""

__version__ = "0.1.0"

from .jets import InsufficientJetOrder, Jet4, jet_derive, jet_mul
from .problems import (
    AffineModel,
    Problem,
    affine_problem,
    builtin_problems,
    gbm_family_problem,
    get_problem,
    kolmogorov_residual,
    marginal_law,
    ou_family_problem,
    tanh_problem,
)
from .schemes import (
    InvalidSolver,
    NoConvergence,
    SchemeConfig,
    SingularSh,
    StepSizeError,
    explicit_step,
    implicit_step,
    iter_paths,
    pathwise_derivative_check,
    run_paths,
)
from .moments_oracle import propagate_moments, weak_error_exact
from .expansion import (
    PSI_E,
    PSI_I,
    LeadingConstant,
    PsiKind,
    eval_psi,
    eval_psi_i_expanded,
    leading_constant,
    psi_identity_residual,
    psi_ih_gap,
)
from .montecarlo import (
    LevelEstimate,
    McConfig,
    RichardsonPoint,
    WeakErrorReport,
    estimate_weak_error,
    richardson,
)
from .rates import (ExpansionTable, RateFit, TooFewPoints, expansion_check, fit_rate,
                    oracle_report)
from .reports import emit_report

__all__ = [
    "AffineModel",
    "ExpansionTable",
    "InsufficientJetOrder",
    "InvalidSolver",
    "Jet4",
    "LeadingConstant",
    "LevelEstimate",
    "McConfig",
    "NoConvergence",
    "PSI_E",
    "PSI_I",
    "Problem",
    "PsiKind",
    "RateFit",
    "RichardsonPoint",
    "SchemeConfig",
    "SingularSh",
    "StepSizeError",
    "TooFewPoints",
    "WeakErrorReport",
    "affine_problem",
    "builtin_problems",
    "emit_report",
    "estimate_weak_error",
    "eval_psi",
    "eval_psi_i_expanded",
    "expansion_check",
    "explicit_step",
    "fit_rate",
    "gbm_family_problem",
    "get_problem",
    "implicit_step",
    "iter_paths",
    "jet_derive",
    "jet_mul",
    "kolmogorov_residual",
    "leading_constant",
    "marginal_law",
    "oracle_report",
    "ou_family_problem",
    "pathwise_derivative_check",
    "propagate_moments",
    "psi_identity_residual",
    "psi_ih_gap",
    "richardson",
    "run_paths",
    "tanh_problem",
    "weak_error_exact",
]
