"""Exception taxonomy.

Two families: ValidationError for rejected inputs and ill-posed requests
(CLI exit code 2), NumericalError for failures inside a computation that
started from valid inputs (CLI exit code 3).
"""


class ValidationError(ValueError):
    """Input rejected before any computation."""


class NumericalError(ArithmeticError):
    """Computation failed or left the representable range."""


class OutOfRange(ValidationError):
    """A parameter violates its domain, e.g. the scale factor outside (0, 1)."""


class NotContractive(ValidationError):
    """The similarity map is not a contraction: a*d**2 >= 1."""


class DegenerateWeight(ValidationError):
    """All masses vanish (r = 0) or the mass ratio is zero (d = 0)."""


class AtBreakpoint(ValidationError):
    """Step function evaluated at a jump point, where it has no value."""


class DepthExceeded(ValidationError):
    """Evaluation point lies beyond the requested truncation depth."""


class WrongSign(ValidationError):
    """Operation defined only for d < 0 was called with d > 0."""


class EmptyWindow(ValidationError):
    """Index window selects no computed eigenvalues."""


class RangeOverflow(NumericalError):
    """Matrix entries or interval reciprocals leave double range."""


class NotPositiveDefinite(NumericalError):
    """Cholesky pivot was not positive."""


class NonConvergence(NumericalError):
    """Iteration cap reached; caps are diagnostics, not tunables."""


class ZeroEigenvalue(NumericalError):
    """Every reciprocal eigenvalue fell below the underflow guard."""
