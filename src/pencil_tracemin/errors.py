"""Exception types shared across the package."""


class PencilError(Exception):
    """Base class for all library errors."""


class NotSquareError(PencilError):
    """Raw matrix input is not square."""


class NonFiniteError(PencilError):
    """Raw matrix input holds a NaN or infinite entry."""


class NotHermitianError(PencilError):
    """Hermiticity residual exceeds the configured tolerance."""


class KernelFailureError(PencilError):
    """An underlying dense eigen/SVD kernel did not converge."""


class NotDiagonalizableError(PencilError):
    """Pair is not congruent-diagonalizable with real spectrum."""


class InertiaViolationError(PencilError):
    """Inertia counts are incompatible (empty feasible set upstream)."""


class EmptyFeasibleSetError(PencilError):
    """The constraint set {X : Bhat X^H B X = I} is empty."""


class LengthMismatchError(PencilError):
    """Paired lists have different lengths."""


class NotAttainableError(PencilError):
    """A minimizer cannot be constructed (infimum not known attainable)."""


class NoWitnessConstructibleError(PencilError):
    """Divergence diagnosis relies on structure the builder cannot realize."""


class CertificationFailedError(PencilError):
    """No t <= t_max drives the witness trace below the threshold."""


class InvalidSpecError(PencilError):
    """Block specification for the pair generator is malformed."""
