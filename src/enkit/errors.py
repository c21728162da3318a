"""Exception types shared across the package."""


class EnkitError(Exception):
    """Base class for all errors raised by enkit."""


class DimensionMismatch(EnkitError):
    """A point, box, or operand does not match the expected variable count."""


class ZeroPolynomial(EnkitError):
    """The reductions are only defined for a nonzero source polynomial."""


class UnusedVariable(EnkitError):
    """Full-family reductions need every ambient variable to occur in D.

    If deg(D, x_i) = 0 the variable x_i is not a member of the candidate
    family and no bijection onto the family minus the variables exists.
    """


class FamilyTooLarge(EnkitError):
    """The candidate family exceeds the configured size or work limit."""

    def __init__(self, card, cap, what="family cardinality"):
        super().__init__(f"{what} {card} exceeds limit {cap}")
        self.card = card
        self.cap = cap


class ParseError(EnkitError):
    """Malformed textual input; `position` is the 0-based byte offset."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} at offset {position}"
        super().__init__(message)
        self.position = position


class FormatError(EnkitError):
    """A structured file (.ens/.cert/.rep/.layout) violates its format."""


class CertificateMismatch(FormatError):
    """A certificate does not describe the system it accompanies."""


class BoxTooLarge(EnkitError):
    """An enumeration box exceeds the configured point budget."""
