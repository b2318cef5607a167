"""Exception vocabulary shared by all momentkit modules."""


class MomentkitError(Exception):
    """Base class for every error raised by this package."""


# --- linear programming ------------------------------------------------------

class LpFailure(MomentkitError):
    """The internal simplex solver did not converge or the problem exceeds
    the desk-scale size cap."""


class LpUnbounded(MomentkitError):
    """The LP objective is unbounded; for bound computations this signals a
    violated precondition (the target is not sandwiched by the subspace)."""


# --- eigensolver -------------------------------------------------------------

class EigFailure(MomentkitError):
    """Cyclic Jacobi sweeps did not reduce the off-diagonal mass, or the
    matrix exceeds the 64x64 cap."""


# --- functional extension ----------------------------------------------------

class EmptyInterval(MomentkitError):
    """Admissible extension interval is empty beyond tolerance; the input
    functional data is numerically inconsistent."""


class TargetNotInWC(MomentkitError):
    """An extension target is not sandwiched between subspace elements
    modulo the cone.  Carries the offending target index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"target {index} fails the sandwich membership test")


class HullMembershipFailed(MomentkitError):
    """A requested hull target is not dominated by any element of the span."""


# --- measure construction ----------------------------------------------------

class NotInDomain(MomentkitError):
    """A vector is outside the span on which the functional is defined."""


class NegativeMass(MomentkitError):
    """A block indicator evaluates materially negative; the functional is not
    positive and cannot define a measure."""


class IntegralOfNonMeasurable(MomentkitError):
    """Integration was requested for a function that is not constant on the
    partition blocks."""


class RangeViolation(MomentkitError):
    """Binning bounds do not satisfy a <= min f and max f < b."""


class DensityFailed(MomentkitError):
    """Density hypothesis violated; raised only in strict pipeline mode
    (the default pipeline reports the failure and still emits the measure)."""


# --- moment problems ---------------------------------------------------------

class DegreeTooHigh(MomentkitError):
    """A polynomial or matrix index needs moments beyond the truncation."""


class NotPSD(MomentkitError):
    """Moment data fails the positivity precondition for atom recovery."""


class RankDetectionAmbiguous(MomentkitError):
    """A Cholesky pivot fell inside the declared ambiguity band, so the
    numerical rank (atom count) cannot be trusted."""

    def __init__(self, pivot, step, message=None):
        self.pivot = pivot
        self.step = step
        super().__init__(
            message or f"scaled Cholesky pivot {pivot:.3e} at step {step} is in the ambiguity band"
        )


# --- CLI / IO ----------------------------------------------------------------

class SchemaError(MomentkitError):
    """Input JSON violates the documented schema.  Carries the field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class IoError(MomentkitError):
    """File could not be read or written."""
