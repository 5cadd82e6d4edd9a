"""Exception types shared across the package."""


class PencilError(Exception):
    """Base class for all library errors."""


class NotSquareError(PencilError):
    """Raw matrix input is not square."""


class NonFiniteError(PencilError):
    """Raw matrix input holds a NaN or infinite entry, or entries so large that
    its Frobenius norm overflows; or a computed result (a finite part, a
    witness trace) is beyond the floats."""


class NotHermitianError(PencilError):
    """Hermiticity residual exceeds the configured tolerance."""


class KernelFailureError(PencilError):
    """An underlying dense eigen/SVD kernel did not converge."""


class TypeCountError(KernelFailureError):
    """Typed eigenvalue counts disagree with the inertia of B (inaccurate eigensolve)."""


class EmptyFeasibleSetError(PencilError):
    """The constraint set {X : Bhat X^H B X = I} is empty."""


class NotAttainableError(PencilError):
    """A minimizer cannot be constructed (infimum not known attainable)."""


class NoWitnessConstructibleError(PencilError):
    """Divergence diagnosis relies on structure the builder cannot realize."""


class CertificationFailedError(PencilError):
    """No t <= t_max drives the witness trace below the threshold."""


class InvalidSpecError(PencilError):
    """Block specification for the pair generator is malformed."""
