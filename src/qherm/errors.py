"""Exception types and warnings shared across the package."""

from __future__ import annotations


class QhermError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QhermError):
    """Operands have incompatible dimensions."""


class NotHermitian(QhermError):
    """A matrix required to be Hermitian exceeds the tolerance."""


class NotPositiveDefinite(QhermError):
    """A matrix required to be positive definite has spectrum reaching zero.

    Also raised for a pseudo-metric, required to be invertible, that
    cannot be formed in floats.  Carries the offending minimum eigenvalue
    in ``min_eigenvalue`` where it was computed.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class ConvergenceFailure(QhermError):
    """The underlying eigenvalue iteration did not converge."""


class ComplexSpectrum(QhermError):
    """No positive metric exists: the spectrum is not real at tolerance.

    Carries the offending eigenvalues in ``eigenvalues``.
    """

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class Defective(QhermError):
    """The operator has nontrivial Jordan structure at tolerance."""


class NotQuasiHermitian(QhermError):
    """The metric relation residual exceeds tolerance."""


class NotInvolution(QhermError):
    """A candidate fundamental symmetry does not square to the identity."""


class SpectrumNotConjugateClosed(QhermError):
    """The spectrum is not closed under complex conjugation at tolerance."""


class IntertwiningViolated(QhermError):
    """An operation presupposing an intertwining identity was called without one.

    Carries the failing ``IntertwinerReport`` in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InvalidSpec(QhermError):
    """Discretization parameters violate their invariants."""


class ParseError(QhermError):
    """An input file does not conform to the operator-file schema."""


class IllConditionedWarning(UserWarning):
    """An eigenvector basis is badly conditioned; results lose accuracy."""
