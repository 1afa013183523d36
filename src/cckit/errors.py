"""Exception types shared across the toolkit.

Every error raised by library code derives from CckitError so callers can
catch the whole family at once (the CLI maps them to exit status 2, except
InternalBoundViolationError which maps to 3).
"""


class CckitError(Exception):
    pass


class InputArityError(CckitError):
    """An input vector is too short for the annotations that consume it."""


class NegationNotSupportedError(CckitError):
    """A negation gate reached an operation or pass that only handles
    comparators."""


class BadShapeError(CckitError):
    """Structurally invalid value (bad counts, bad bounds, bad parameters)."""


class TooManyGatesError(CckitError):
    pass


class TooManyWiresError(CckitError):
    pass


class IndexOutOfRangeError(CckitError):
    pass


class NotAllUpError(CckitError):
    """A pass required every non-dummy comparator to point at the lower index."""


class EdgeNotInGraphError(CckitError):
    pass


class DegreeTooHighError(CckitError):
    pass


class NotSquareError(CckitError):
    pass


class TooLargeError(CckitError):
    """Input exceeds a brute-force guard."""


class NotFeasibleError(CckitError):
    pass


class HasStarsError(CckitError):
    pass


class NotLipschitzError(CckitError):
    pass


class PreconditionViolatedError(CckitError):
    pass


class InternalBoundViolationError(CckitError):
    """An internal bound that no legal input can exceed was exceeded anyway."""


class UnknownSuiteError(CckitError):
    pass


class ParseError(CckitError):
    """Text format violation, carrying the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
