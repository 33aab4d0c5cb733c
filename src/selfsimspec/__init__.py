"""Self-similar step functions, discrete Sturm-Liouville weights and spectra.

The canonical example throughout is a = d = 1/2, beta1 = 0, beta2 = 1:
masses 2^(1-k) at 1 - 2^(-k), q = 4, r = 1/2, eigenvalues approaching
4^k. See the module docstrings for the construction (selfsim), the matrix
renderings and quadratic forms (operators), the eigensolvers (eigensolve)
and the spectral laws (spectral).
"""

from .eigensolve import (
    EigenvalueList,
    PencilProblem,
    pencil_eigenpairs,
    solve_green,
    solve_pencil,
    sturm_count,
    tridiag_eigs,
)
from .errors import (
    AtBreakpoint,
    DegenerateWeight,
    DepthExceeded,
    EmptyWindow,
    NonConvergence,
    NotContractive,
    NotPositiveDefinite,
    NumericalError,
    OutOfRange,
    RangeOverflow,
    ValidationError,
    WrongSign,
    ZeroEigenvalue,
)
from .operators import (
    SlopeSequence,
    TridiagonalSymmetric,
    boundary_functional,
    eigenfunction_slopes,
    green_kernel_matrix,
    mass_matrix,
    quadratic_form_sides,
    section,
    stiffness_matrix,
    symmetrized_section,
    symmetry_defect,
)
from .selfsim import (
    DiscreteWeight,
    SelfSimilarParams,
    StepFunction,
    apply_similarity,
    fixed_point_residual,
    make_params,
    step_function,
    step_value,
    weight_truncation,
)
from .spectral import (
    FORMULATIONS,
    AsymptoticsReport,
    CrossValidation,
    IndefiniteReport,
    SpectrumResult,
    compute_spectrum,
    cross_validate,
    estimate_c,
    indefinite_report,
    verify_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport",
    "AtBreakpoint",
    "CrossValidation",
    "DegenerateWeight",
    "DepthExceeded",
    "DiscreteWeight",
    "EigenvalueList",
    "EmptyWindow",
    "FORMULATIONS",
    "IndefiniteReport",
    "NonConvergence",
    "NotContractive",
    "NotPositiveDefinite",
    "NumericalError",
    "OutOfRange",
    "PencilProblem",
    "RangeOverflow",
    "SelfSimilarParams",
    "SlopeSequence",
    "SpectrumResult",
    "StepFunction",
    "TridiagonalSymmetric",
    "ValidationError",
    "WrongSign",
    "ZeroEigenvalue",
    "apply_similarity",
    "boundary_functional",
    "compute_spectrum",
    "cross_validate",
    "eigenfunction_slopes",
    "estimate_c",
    "fixed_point_residual",
    "green_kernel_matrix",
    "indefinite_report",
    "make_params",
    "mass_matrix",
    "pencil_eigenpairs",
    "quadratic_form_sides",
    "section",
    "solve_green",
    "solve_pencil",
    "step_function",
    "step_value",
    "stiffness_matrix",
    "sturm_count",
    "symmetrized_section",
    "symmetry_defect",
    "tridiag_eigs",
    "verify_suite",
    "weight_truncation",
]
