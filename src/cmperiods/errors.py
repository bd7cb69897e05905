"""Exception types shared across the package.

Every error that a caller is expected to catch and act on has its own
class; anything else is a plain ValueError/RuntimeError bug.
"""


class CMPeriodsError(Exception):
    """Base class for all package-specific errors."""


class PrecisionExhausted(CMPeriodsError):
    """A result cannot be represented at the working precision.

    Raised when two roots collide at precision, when a reduction is
    ambiguous, or when an operation would leave no known coefficients.
    The caller must raise the precision and retry.
    """


class DivisionByApparentZero(PrecisionExhausted):
    """Divisor is indistinguishable from zero at its precision."""


class NotAPower(CMPeriodsError):
    """Inverse Frobenius requested of an element that is not a q^n-th power."""


class NoDecay(CMPeriodsError):
    """Series evaluation requires a decay descriptor strong enough to bound the tail."""


class TargetTooSmall(CMPeriodsError):
    """Root finding demanded completeness but some root lies outside the target field."""


class GaloisDataInsufficient(CMPeriodsError):
    """Model does not supply enough Galois action to compute the requested orbit."""


class RamifiedAboveTheta(CMPeriodsError):
    """Divisor pull-back is unsupported because the covering ramifies above t = theta."""


class UnsupportedGenus(CMPeriodsError):
    """Operation requires a genus-zero parametrization the model does not have."""


class ModelMismatch(CMPeriodsError):
    """Two objects built over different CM-field models were combined."""


class BasisExpansionFailure(CMPeriodsError):
    """Coefficient-ring closure was violated while expanding a sigma-action."""


class SingularRecursion(CMPeriodsError):
    """Exponential coefficient recursion hit a singular linear solve."""


class ChainNotConverging(CMPeriodsError):
    """No division chain enters the logarithm convergence domain."""


class ConsistencyFailure(CMPeriodsError):
    """A computed trivialization failed its difference-equation check."""


class InsufficientPrecision(CMPeriodsError):
    """Relation search space exceeds the available precision rows."""


class PoleArgument(CMPeriodsError):
    """Gamma argument lies in the pole set {0} union -A_+."""
