"""Exception types shared across the library."""


class ShefferError(Exception):
    """Base class for every error raised by this package."""


class ZeroConstantTerm(ShefferError):
    """Reciprocal of a series whose constant term is zero."""


class NonzeroInnerConstant(ShefferError):
    """Composition with an inner series whose constant term is not zero."""


class NotInvertible(ShefferError):
    """Compositional inverse of a series with a0 != 0 or a1 == 0."""


class BadConstantTerm(ShefferError):
    """exp/log/sqrt (and trig) applied to a series with the wrong constant term."""


class GuardExceeded(ShefferError):
    """Numeric evaluation requested outside the caller-declared trust radius."""


def check_guard(name: str, guard: float, *values: complex) -> None:
    """Raise GuardExceeded naming ``name`` unless every |value| <= guard; NaN fails too."""
    for value in values:
        if not abs(value) <= guard:
            raise GuardExceeded(f"{name} = {abs(value):.6g} exceeds guard {guard:.6g}")


class OrderExceeded(ShefferError):
    """Requested degree or index exceeds the available truncation order."""


class UnknownFamily(ShefferError):
    """Catalog lookup with a label that is not one of the built-in families."""


class IndexOutOfRange(ShefferError, IndexError):
    """Coefficient or polynomial index outside the generated range."""


class CutoffTooSmall(ShefferError):
    """Fock-space cutoff too small: truncation tail above the tolerance."""


class ParseError(ShefferError):
    """Malformed series-spec text; carries the offending position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position
        self.message = message


class DomainError(ShefferError):
    """Series-spec text that parses but violates a series-engine precondition."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"at position {position}: {reason}")
        self.position = position
        self.reason = reason
