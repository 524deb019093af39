"""Exception types shared across the package."""


class FinringError(Exception):
    """Base class for every error raised by this package."""


class ParseError(FinringError):
    """Malformed ring-spec, element literal, or presentation text.

    The message quotes the text, or an excerpt of at most ``EXCERPT``
    characters around the position when the text is longer.
    """

    EXCERPT = 80

    def __init__(self, message, text, position):
        lo = max(0, min(position - self.EXCERPT // 2, len(text) - self.EXCERPT))
        hi = lo + self.EXCERPT
        quoted = repr(text[lo:hi])
        quoted = ("..." if lo else "") + quoted + ("..." if hi < len(text) else "")
        super().__init__(f"{message} (at position {position} in {quoted})")
        self.text = text
        self.position = position


class ValidationError(FinringError):
    """Structurally invalid input: n < 2, non-monic modulus, bad table shape."""


class AxiomViolation(ValidationError):
    """A construction recipe produced something that is not a commutative ring."""


class GuardExceeded(FinringError):
    """A resource guard was hit.  Never silently truncate; always raise.

    ``guard`` names the :class:`~finring.guards.Guards` field that was hit,
    ``requested`` the size the operation needed and ``limit`` the guard.
    """

    def __init__(self, message, guard, requested, limit):
        super().__init__(message)
        self.guard, self.requested, self.limit = guard, requested, limit


class NonLocalRingError(FinringError):
    """Operation is only defined over a local ring; decompose first."""


class RingMismatchError(FinringError):
    """Two arguments live over different rings."""


class PreconditionError(FinringError):
    """A stated precondition does not hold for the given arguments."""


class ConsistencyError(FinringError):
    """An internal invariant failed.  Signals a bug, never a valid output."""
