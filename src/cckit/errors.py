"""Exception types shared across the toolkit, one class per meaning.

Every error raised by library code derives from CckitError so callers can
catch the whole family at once.  The CLI prints each as one ``error:``
line and exits with the status given here:

- CckitError: the base; raised alone when a file cannot be read or written (exit 2).
- ParseError: a text format is violated at a line (exit 2).
- BadShapeError: a value has the wrong shape or arity (exit 2).
- IndexOutOfRangeError: an index lies outside its range (exit 2).
- NegationNotSupportedError: a negation reached a comparator-only operation (exit 2).
- PreconditionViolatedError: a well-formed input the operation excludes (exit 2).
- TooLargeError: input exceeds a size limit of the operation (exit 2).
- InternalBoundViolationError: an internal bound was exceeded (exit 3).
"""


# The most nodes, arcs, gates, graph vertices or preference entries an
# operation builds, checked on closed-form sizes before anything is allocated;
# far above the largest circuit built here, the padded n = 8 layered pebbling
# circuit with 129,088 gates.  Over it, TooLargeError.
SIZE_LIMIT = 10**7


class CckitError(Exception):
    pass


class ParseError(CckitError):
    """Text format violation, carrying the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class BadShapeError(CckitError):
    """Structurally invalid value (bad counts, arity, bounds or names)."""


class IndexOutOfRangeError(CckitError):
    """An index (wire, vertex, edge, pair, person) lies outside its range."""


class NegationNotSupportedError(CckitError):
    """A negation gate reached an operation or pass that only handles
    comparators."""


class PreconditionViolatedError(CckitError):
    """A well-formed input that the operation excludes (not all-up, not
    square, degree above 3, not an edge, a descending arc, not feasible,
    not Lipschitz)."""


class TooLargeError(CckitError):
    """Input exceeds a size limit of the operation."""


class InternalBoundViolationError(CckitError):
    """An internal bound that no legal input can exceed was exceeded anyway."""
