"""Exception types shared across the package.

All numerical failure modes raise a subclass of NumericsError so CLI
code can map them to a single exit code while tests can still assert
the precise failure kind.
"""

__all__ = [
    "NumericsError",
    "QuadratureUnderresolved",
    "ToleranceUnreachable",
    "CutoffTooSmall",
    "RefusedRegime",
    "NoConvergence",
    "BracketFailure",
    "DenominatorNonnegative",
]


class NumericsError(Exception):
    """Base class for numerical failures the caller may want to catch."""


class QuadratureUnderresolved(NumericsError):
    """A grid's a-posteriori error estimate exceeds the requested tolerance."""


class ToleranceUnreachable(NumericsError):
    """Refinement depth cap hit before the requested tolerance was met."""


class CutoffTooSmall(NumericsError):
    """Momentum cutoff too small for the analytic tail bound to apply."""


class RefusedRegime(NumericsError):
    """Parameter regime outside the supported range (e.g. T/mu too small)."""


class NoConvergence(NumericsError):
    """Dense eigenpair residual ||Mx - lambda x|| exceeds EIGEN_TOL * ||M||_inf."""


class BracketFailure(NumericsError):
    """Root bracketing failed or the monotonicity monitor tripped."""


class DenominatorNonnegative(NumericsError):
    """Variational denominator came out >= 0, signalling a grid failure."""
