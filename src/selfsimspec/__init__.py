"""Self-similar step functions, discrete Sturm-Liouville weights and spectra.

The canonical example throughout is a = d = 1/2, beta1 = 0, beta2 = 1:
masses 2^(1-k) at 1 - 2^(-k), q = 4, r = 1/2, eigenvalues approaching
4^k. See the module docstrings for the construction (selfsim), the matrix
renderings and quadratic forms (operators), the eigensolvers (eigensolve)
and the spectral laws (spectral).

Each public name loads its module on first access (PEP 562), so
``import selfsimspec`` costs no layer until one is used.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "eigensolve": (
        "EigenvalueList", "PencilProblem", "pencil_eigenpairs", "solve_green", "solve_pencil",
        "sturm_count", "tridiag_eigs",
    ),
    "errors": (
        "AtBreakpoint", "DegenerateWeight", "DepthExceeded", "EmptyWindow", "NonConvergence",
        "NotContractive", "NotPositiveDefinite", "NumericalError", "OutOfRange", "RangeOverflow",
        "ValidationError", "WrongSign", "ZeroEigenvalue",
    ),
    "operators": (
        "SlopeSequence", "TridiagonalSymmetric", "boundary_functional", "eigenfunction_slopes",
        "green_kernel_matrix", "mass_matrix", "quadratic_form_sides", "section",
        "stiffness_matrix", "symmetrized_section", "symmetry_defect",
    ),
    "selfsim": (
        "DiscreteWeight", "SelfSimilarParams", "StepFunction", "apply_similarity",
        "fixed_point_residual", "make_params", "step_function", "step_value", "weight_truncation",
    ),
    "spectral": (
        "FORMULATIONS", "AsymptoticsReport", "CrossValidation", "IndefiniteReport",
        "SpectrumResult", "compute_spectrum", "cross_validate", "estimate_c",
        "indefinite_report", "verify_suite",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
