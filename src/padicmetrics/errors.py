"""Exceptions raised across the package.

Three channels are kept apart on purpose: malformed or out-of-domain input
raises one of the specific classes below (or ValueError for plain usage
mistakes), honest negative verdicts are returned as data and never raised,
and SelfCheckError / EquivalenceBreachError signal an internal defect, not
a property failure.
"""


class PadicMetricsError(Exception):
    """Base class for every error raised by this package."""


class NotPrimeError(PadicMetricsError):
    """The supplied modulus is not an accepted prime."""


class OrdOfZeroError(PadicMetricsError):
    """The valuation of zero is undefined."""


class TooShortError(PadicMetricsError):
    """A sequence prefix needs at least two terms."""


class DomainMissError(PadicMetricsError):
    """A tabulated function was evaluated outside its table."""


class NegativeInputError(PadicMetricsError):
    """Functions and triplet checks accept nonnegative rationals only."""


class BelowFloorError(PadicMetricsError):
    """The input sits below the certified evaluation floor."""


class TooLargeError(PadicMetricsError):
    """The input exceeds what the configured bound can certify."""


class BadOrderError(PadicMetricsError):
    """Exponent arguments were given in the wrong order."""


class NotPreservingError(PadicMetricsError):
    """A construction requires a preserving function as input."""


class AsymmetricError(PadicMetricsError):
    """A distance matrix candidate is not symmetric."""


class NonzeroDiagonalError(PadicMetricsError):
    """A distance matrix candidate has a nonzero diagonal entry."""


class NegativeEntryError(PadicMetricsError):
    """A distance matrix candidate has a negative entry."""


class ZeroDistanceError(PadicMetricsError):
    """Distinct points of a candidate are at distance zero."""


class NotUltrametricError(PadicMetricsError):
    """A space's distances break the strong triangle inequality.

    ``violation`` is the least breach, the ``TriangleViolation`` that
    ``validate_ultrametric`` returns for the same matrix.
    """

    def __init__(self, message: str, violation) -> None:
        super().__init__(message)
        self.violation = violation


class SizeMismatchError(PadicMetricsError):
    """Two spaces must have the same number of points."""


class NoPositiveDistancesError(PadicMetricsError):
    """Every space in the family is a single point."""


class NotTotallyOrderedError(PadicMetricsError):
    """The distance poset has incomparable positive values."""


class TotallyOrderedError(PadicMetricsError):
    """The distance poset is a chain, so no counterexample exists."""


class ComparableError(PadicMetricsError):
    """The two chosen values must be incomparable."""


class BadIntervalError(PadicMetricsError):
    """Target values must satisfy 0 < p1 < p2."""


class SelfCheckError(PadicMetricsError):
    """An internal re-verification failed; this indicates a bug."""


class EquivalenceBreachError(PadicMetricsError):
    """Two procedures that must agree returned different verdicts.

    Raised by the family check (``families.check_family_preserving`` and
    ``build_extension``), the one check that runs two routes and compares
    them on every call: the order side and the transform-and-validate side.
    """
