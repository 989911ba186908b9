"""Small shared pieces: exact rational and JSON I/O and dense polynomials.

Rationals cross the package boundary as strings ("3", "-1/2"); internally
everything exact is a fractions.Fraction.  parse_rational is the one gate
between the two, and every exact value type stores its entries through it.
Value is the base of every exact value type: frozen, slotted, compared and
hashed by value.  VarPoly is the exact polynomial in a named indeterminate:
the truncated R-transform in s, and, in the lattice reference, the lattice
polynomials in d and the lattice characteristic polynomial in t.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import zip_longest
from operator import attrgetter

from .errors import DomainError, InputFormatError

# The exponent of a decimal literal such as "1.5e-3"; Fraction would build
# 10**exponent before reducing.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def parse_rational(text) -> Fraction:
    """The one gate for an exact rational: a Fraction or an int as it is, a
    string "num/den", integer or decimal literal parsed exactly.  A float, a
    bool or any other object is refused, never converted."""
    if isinstance(text, Fraction):
        return text
    if _is_int(text):
        return Fraction(text)
    if isinstance(text, float):
        raise InputFormatError(
            "refusing float %r for an exact slot; pass a string like '1/3'" % text
        )
    if not isinstance(text, str):  # shown as its text, as JSON input always was
        raise InputFormatError("not a rational: %.80r" % (str(text),))
    literal = text.strip()
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
    """The one gate for a sequence of exact rationals: a list or a tuple,
    each entry through parse_rational.  Anything else, a string or a number
    in place of the array, or a boolean inside it, is refused rather than
    iterated."""
    if isinstance(value, (list, tuple)) and bool not in map(type, value):
        return tuple(map(parse_rational, value))
    raise InputFormatError("%s must be an array of rationals, got %.80r" % (what, value))


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


# how a Value's __init__ stores each field past the refusing __setattr__: a
# module global is cheaper to call than object's attribute, and the walks
# build one SetPartition per partition they yield
_store = object.__setattr__


class Value:
    """A frozen value whose fields are its class's __slots__, in order.

    Equal when of the same class with equal fields, hashed as the tuple of
    its fields, shown as Name(field=...).  The plain __init__ stores its
    positional arguments unchecked; a type with checks writes its own, which
    stores each field once through _store.  Pickle and copy rebuild a value
    through its constructor, so they pass the same checks.
    """

    __slots__ = ()

    def __init__(self, *fields):
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError("%s() takes %d arguments, got %d"
                            % (type(self).__name__, len(names), len(fields)))
        for name, value in zip(names, fields):
            _store(self, name, value)

    def __init_subclass__(cls):
        # _fields is the tuple of field values; attrgetter of one name gives
        # the bare value, so a one-field class wraps it
        get = attrgetter(*cls.__slots__)
        cls._fields = property(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._fields


class VarPoly(Value):
    """Dense exact polynomial in one named variable.

    coeffs are ascending Fractions, stored through parse_rational_array with
    trailing zeros trimmed; the zero polynomial has empty coeffs.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs):
        cs = list(parse_rational_array(coeffs, "coefficients"))
        while cs and cs[-1] == 0:
            cs.pop()
        _store(self, "var", var)
        _store(self, "coeffs", tuple(cs))

    def __add__(self, other: "VarPoly") -> "VarPoly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return VarPoly(self.var, [x + y for x, y in pairs])

    def __mul__(self, other: "VarPoly") -> "VarPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)  # [] times anything is []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return VarPoly(self.var, out)

    def scale(self, c) -> "VarPoly":
        c = parse_rational(c)
        return VarPoly(self.var, [x * c for x in self.coeffs])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> dict:
        return {"var": self.var, "coeffs": [format_rational(c) for c in self.coeffs]}
