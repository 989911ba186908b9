"""Small shared pieces: exact rational and JSON I/O, the falling factorial
and dense polynomials.

Rationals cross the package boundary as strings ("3", "-1/2"); internally
everything exact is a fractions.Fraction.  VarPoly is the exact polynomial
in a named indeterminate: the truncated R-transform in s, and, in the
lattice reference, the lattice polynomials in d and the lattice
characteristic polynomial in t.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InputFormatError

# The exponent of a decimal literal such as "1.5e-3"; Fraction would build
# 10**exponent before reducing.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def parse_rational(text) -> Fraction:
    """Parse "num/den" or a bare integer/decimal string into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise InputFormatError(
            "refusing float %r for an exact slot; pass a string like '1/3'" % text
        )
    literal = str(text).strip()
    # the interpreter's int/str digit limit (CPython >= 3.10.7), 0 when off
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    exp = _EXPONENT.search(literal)
    try:
        # "M.Fe<x>" is int(MF) * 10**(x - len(F)): its numerator and
        # denominator have fewer than len(literal) + |x| digits
        too_long = exp is not None and 0 < limit < len(literal) + abs(int(exp.group(1)))
        value = None if too_long else Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError("not a rational: %.80r" % (literal,)) from exc
    if too_long:
        raise InputFormatError(
            "rational literal %.80r would have more than %d digits" % (literal, limit)
        )
    return value


def parse_rational_array(value, what: str) -> tuple:
    """The entries of a JSON array of exact rationals.  Anything else, a
    string or a number in place of the array, or a boolean inside it, is
    refused rather than iterated."""
    if not isinstance(value, list) or any(isinstance(x, bool) for x in value):
        raise InputFormatError("%s must be an array of rationals, got %.80r" % (what, value))
    return tuple(parse_rational(x) for x in value)


def read_record(obj, what: str, required, optional=()) -> tuple:
    """The fields of a JSON record: the required values in order, then the
    optional ones, None where absent or null.  Anything but an object, a
    missing required field and a field outside both lists are refused;
    whether the values make a valid record is the constructor's to check."""
    if not isinstance(obj, dict):
        raise InputFormatError("%s JSON must be an object, got %.80r" % (what, obj))
    for key in required:
        if key not in obj:
            raise InputFormatError("%s JSON needs %r" % (what, key))
    for key in obj:
        if key not in required and key not in optional:
            raise InputFormatError("%s JSON takes no field %.80r" % (what, key))
    return tuple(obj[k] for k in required) + tuple(obj.get(k) for k in optional)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, what: str) -> None:
    """Refuse a size that is not an int: a float, a Fraction or a bool."""
    if not _is_int(value):
        raise InputFormatError("%s must be an integer, got %.80r" % (what, value))


def parse_int(value, what: str = "value") -> int:
    """An exact integer from JSON or text: an int, or an integral float,
    Fraction or rational string.  Booleans and non-integral numbers are
    refused, not truncated, and the refusal shows a string or a Fraction as
    written ("5/2"), anything else by its repr."""
    n = parse_rational(value) if isinstance(value, str) else value
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, Fraction) and n.denominator == 1:
        n = n.numerator
    if _is_int(n):
        return n
    shown = value if isinstance(value, (str, Fraction)) else repr(value)
    raise InputFormatError("%s must be an integer, got %.80s" % (what, shown))


def format_rational(q: Fraction) -> str:
    """Render exactly: integers bare ("3"), everything else as "num/den".

    A value with more digits than the interpreter prints raises DomainError.
    """
    try:
        return str(Fraction(q))
    except ValueError as exc:
        raise DomainError("a result has too many digits to print") from exc


@dataclass(frozen=True)
class VarPoly:
    """Dense exact polynomial in one named variable.

    coeffs are ascending; trailing zeros are trimmed; the zero polynomial
    has empty coeffs.
    """

    var: str
    coeffs: tuple

    @classmethod
    def make(cls, var, coeffs) -> "VarPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(var, tuple(cs))

    @classmethod
    def zero(cls, var) -> "VarPoly":
        return cls(var, ())

    @classmethod
    def constant(cls, var, c) -> "VarPoly":
        return cls.make(var, [c])

    def __add__(self, other: "VarPoly") -> "VarPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return VarPoly.make(self.var, out)

    def __mul__(self, other: "VarPoly") -> "VarPoly":
        if not self.coeffs or not other.coeffs:
            return VarPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return VarPoly.make(self.var, out)

    def scale(self, c) -> "VarPoly":
        c = Fraction(c)
        if c == 0:
            return VarPoly.zero(self.var)
        return VarPoly(self.var, tuple(x * c for x in self.coeffs))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> dict:
        return {"var": self.var, "coeffs": [format_rational(c) for c in self.coeffs]}


def falling(x, n: int):
    """(x)_n = x(x-1)...(x-n+1), with (x)_0 = 1.  Exact on int/Fraction."""
    v = 1
    for i in range(n):
        v = v * (x - i)
    return v

