"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so the distinctions matter:
malformed input is not the same thing as a well-formed request that falls
outside an operation's domain, and neither is a request that would exceed
a size cap.
"""


class FinFreeError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(FinFreeError):
    """Malformed external input: bad JSON, bad rational literal, bad shape."""


class NonMonicError(InputFormatError):
    """Coefficient input whose leading coefficient is not 1.

    Normalization is never silent; the caller has to divide through.
    """


def _digits(v: int) -> str:
    """v in full up to 40 digits, else its sign, leading digits and digit
    count, so that a value or bound of thousands of digits keeps the message
    short."""
    s = "%d" % abs(v)
    if len(s) > 40:
        s = "%s...(%d digits)" % (s[:20], len(s))
    return "-" + s if v < 0 else s


def _rational_digits(q) -> str:
    """The rational q as str(q) writes it, "n" or "n/m", with n and m each
    through _digits."""
    if q.denominator == 1:
        return _digits(q.numerator)
    return "%s/%s" % (_digits(q.numerator), _digits(q.denominator))


class SizeCapError(FinFreeError):
    """A request would exceed a fixed size bound: what is refused, its value
    n, and the name cap of the bound it exceeds."""

    def __init__(self, n, bound, what, cap):
        self.n = n
        self.bound = bound
        super().__init__("%s %s exceeds %s = %s" % (what, _digits(n), cap, _digits(bound)))


class DimensionError(FinFreeError):
    """Operands live over different ground sets or degrees."""


class DomainError(FinFreeError):
    """Well-formed input outside an operation's mathematical domain."""
