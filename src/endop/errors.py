"""Exception types shared across the package."""


class EndopError(Exception):
    """Base class for all computation errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


class DomainMismatch(EndopError):
    pass


class NotInvertible(EndopError):
    pass


class UnsupportedDomain(EndopError):
    pass


class PositionOutOfRange(EndopError):
    pass


class IndexOutOfRange(EndopError):
    pass


class OperadMismatch(EndopError):
    pass


class FieldMismatch(EndopError):
    pass


class MalformedTree(EndopError):
    pass


class TruncationMismatch(EndopError):
    pass


class NotAGroup(EndopError):
    pass


class NotAMonoid(EndopError):
    pass


class BoundExceeded(EndopError):
    pass


class IncompleteEvaluation(EndopError):
    pass


class VerificationFailed(EndopError):
    """A result failed the independent re-check made before it is reported."""
