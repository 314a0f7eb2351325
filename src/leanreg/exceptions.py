"""Exception types shared across the library.

Every error raised on a contract violation derives from :class:`LeanRegError`
so callers (and the command line front end) can map failures to a single
family. Numerical failures, data failures and usage failures are distinct
subclasses rather than string codes.
"""


class LeanRegError(Exception):
    """Base class for all leanreg errors."""


class DimensionMismatch(LeanRegError):
    """Operands have incompatible shapes."""


class NotSymmetric(LeanRegError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(LeanRegError):
    """A matrix required to be positive definite is singular or indefinite."""


class NonFiniteValue(LeanRegError, ValueError):
    """A matrix or result that must be finite holds an infinity or NaN (e.g. from overflow)."""


class NoConvergence(LeanRegError):
    """An iterative eigenvalue/SVD routine failed to converge."""


class SingularDesign(LeanRegError):
    """The design second-moment matrix is not positive definite."""


class DegenerateDof(LeanRegError):
    """A degrees-of-freedom correction was requested with n <= p."""


class ZeroVariance(LeanRegError):
    """A coordinate has zero estimated variance; studentization is undefined."""


class BadCoordinate(LeanRegError):
    """A coordinate index is out of range."""


class MissingColumn(LeanRegError):
    """A named CSV column is absent or ambiguous."""


class NonNumericCell(LeanRegError):
    """A CSV cell could not be parsed as a finite number."""


class EmptyData(LeanRegError):
    """A data file contains no observation rows."""
