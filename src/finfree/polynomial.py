"""Monic real polynomials in the signed coefficient convention.

A degree-d monic polynomial is stored as the vector (a_0, ..., a_d) with
a_0 = 1, meaning

    p(x) = sum_{i=0}^{d} x^{d-i} (-1)^i a_i,

so a_i is the i-th elementary symmetric function of the roots.  All
transform identities downstream are stated in these a_i; ordinary
("plain") coefficients appear only at the I/O boundary.

Exact rational arithmetic throughout, except roots(), which is floating
point on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    FinFreeError,
    InputFormatError,
    NonMonicError,
    RootConvergenceError,
)
from .util import format_rational, parse_int, parse_rational


@dataclass(frozen=True)
class MonicPoly:
    d: int
    a: tuple

    def __post_init__(self):
        if self.d < 1:
            raise InputFormatError("degree must be >= 1")
        if len(self.a) != self.d + 1:
            raise InputFormatError(
                "need %d signed coefficients, got %d" % (self.d + 1, len(self.a))
            )
        if self.a[0] != 1:
            raise NonMonicError("a_0 must be 1, got %s" % (self.a[0],))

    @classmethod
    def from_signed(cls, a) -> "MonicPoly":
        coeffs = tuple(Fraction(x) for x in a)
        return cls(len(coeffs) - 1, coeffs)

    @classmethod
    def from_plain_coefficients(cls, c) -> "MonicPoly":
        """From ordinary descending coefficients (c[0] x^d + ... + c[d]).

        c[0] must be exactly 1; a_i = (-1)^i c_i.  No silent normalization.
        """
        c = [Fraction(x) for x in c]
        if not c or c[0] != 1:
            raise NonMonicError(
                "leading coefficient must be exactly 1, got %s"
                % (c[0] if c else "nothing",)
            )
        return cls.from_signed([(-1) ** i * ci for i, ci in enumerate(c)])

    @classmethod
    def from_roots(cls, roots) -> "MonicPoly":
        """Exact monic polynomial with the given rational roots.

        a_i comes out as the i-th elementary symmetric function.
        """
        rs = [Fraction(r) for r in roots]
        if not rs:
            raise InputFormatError("need at least one root")
        e = [Fraction(1)]
        for r in rs:
            new = e + [Fraction(0)]
            for i in range(len(e), 0, -1):
                new[i] += r * e[i - 1]
            e = new
        return cls(len(rs), tuple(e))

    def plain_coefficients(self) -> list:
        """Ordinary descending coefficients, leading 1 first."""
        return [(-1) ** i * ai for i, ai in enumerate(self.a)]

    def evaluate(self, x):
        """Horner evaluation; exact on Fraction/int, floating on float/complex."""
        lift = float if isinstance(x, (float, complex)) else Fraction
        acc = lift(0)
        for c in self.plain_coefficients():
            acc = acc * x + lift(c)
        return acc

    def dilate(self, lam) -> "MonicPoly":
        """D_lam p(x) = lam^{-d} p(lam x); coefficientwise a_i -> lam^{-i} a_i.

        D_0 is the defined degenerate case x^d.
        """
        lam = Fraction(lam)
        if lam == 0:
            return x_power(self.d)
        return MonicPoly(
            self.d, tuple(ai / lam**i for i, ai in enumerate(self.a))
        )

    def translate(self, c) -> "MonicPoly":
        """p(x + c), exact; shifts every root by -c."""
        c = Fraction(c)
        plain = self.plain_coefficients()
        # synthetic Taylor shift: repeated division by (x - (-c))
        out = []
        work = list(plain)
        for _ in range(self.d + 1):
            acc = Fraction(0)
            for i in range(len(work)):
                acc = acc * c + work[i]
                work[i] = acc
            out.append(work.pop())
        out.reverse()
        return MonicPoly.from_plain_coefficients(out)

    def to_json(self) -> dict:
        return {
            "degree": self.d,
            "a": [format_rational(x) for x in self.a],
        }

    @classmethod
    def from_json(cls, obj) -> "MonicPoly":
        try:
            d = obj["degree"]
            a = obj["a"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError("polynomial JSON needs 'degree' and 'a'") from exc
        d = parse_int(d, "'degree'")
        if len(a) != d + 1:
            raise InputFormatError(
                "degree %d needs %d coefficients, got %d" % (d, d + 1, len(a))
            )
        return cls.from_signed([parse_rational(x) for x in a])

    def __str__(self):
        terms = []
        for j, c in enumerate(self.plain_coefficients()):
            k = self.d - j
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if k == 0:
                body = mag
            else:
                xm = "x" if k == 1 else "x^%d" % k
                body = xm if abs(c) == 1 else "%s*%s" % (mag, xm)
            terms.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(terms)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:] if s else "0")


def x_power(d: int) -> MonicPoly:
    """x^d."""
    return MonicPoly(d, (Fraction(1),) + (Fraction(0),) * d)


def moments(p: MonicPoly, N: int) -> "MomentSequence":
    """First N moments m_n = (power sum of roots)/d via Newton's identities.

    The recursion k a_k = sum_{i=1}^{k} (-1)^{i-1} a_{k-i} b_i runs in exact
    arithmetic with a_k = 0 past the degree, so N may exceed d.  Roots are
    never computed.
    """
    if N < 1:
        raise DomainError("need N >= 1 moments")
    a = list(p.a) + [Fraction(0)] * max(0, N - p.d)
    b = [Fraction(0)] * (N + 1)  # b[k] = k-th power sum
    for k in range(1, N + 1):
        acc = Fraction((-1) ** (k - 1) * k) * a[k]
        for i in range(1, k):
            acc -= Fraction((-1) ** (k - i)) * a[k - i] * b[i]
        b[k] = acc
    return MomentSequence(
        tuple(b[n] / p.d for n in range(1, N + 1)), degree_context=p.d
    )


@dataclass(frozen=True)
class MomentSequence:
    """m_1..m_N of a degree-d polynomial (d kept as context when known)."""

    entries: tuple
    degree_context: int | None = None

    def __post_init__(self):
        if len(self.entries) < 1:
            raise InputFormatError("moment sequence must be nonempty")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def to_json(self) -> dict:
        out = {"m": [format_rational(x) for x in self.entries]}
        if self.degree_context is not None:
            out["d"] = self.degree_context
        return out

    @classmethod
    def from_json(cls, obj) -> "MomentSequence":
        try:
            entries = tuple(parse_rational(x) for x in obj["m"])
        except (KeyError, TypeError) as exc:
            raise InputFormatError("moment JSON needs 'm'") from exc
        d = obj.get("d")
        return cls(entries, degree_context=None if d is None else parse_int(d, "'d'"))


# ---------------------------------------------------------------------------
# dense exact polynomial helpers (ascending Fraction lists) and Sturm chains
# ---------------------------------------------------------------------------


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num, den):
    num = list(num)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while True:
        _trim(num)
        if len(num) < len(den):
            break
        c = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = c
        for i, b in enumerate(den):
            num[shift + i] -= c * b
        num.pop()
    return _trim(q), num


def _poly_deriv(c):
    return [c[i] * i for i in range(1, len(c))]


def _poly_gcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _squarefree_part(c):
    g = _poly_gcd(c, _poly_deriv(c))
    if len(g) <= 1:
        return list(c)
    q, r = _poly_divmod(c, g)
    if r:
        raise FinFreeError("gcd does not divide the polynomial")
    return q


def _sturm_chain(c):
    chain = [list(c), _poly_deriv(c)]
    while _trim(chain[-1]):
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    if not _trim(chain[-1]):
        chain.pop()
    return chain


def _sign_variations_at_infinity(chain, positive: bool) -> int:
    signs = []
    for q in chain:
        if not q:
            continue
        s = 1 if q[-1] > 0 else -1
        if not positive and (len(q) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _count_distinct_real_roots(c) -> int:
    """Distinct real roots of the squarefree polynomial c (ascending)."""
    if len(c) <= 1:
        return 0
    chain = _sturm_chain(c)
    return _sign_variations_at_infinity(chain, False) - _sign_variations_at_infinity(
        chain, True
    )


def count_distinct_real_roots(p: MonicPoly) -> int:
    """Exact number of distinct real roots of p (Sturm on the squarefree part)."""
    ascending = list(reversed(p.plain_coefficients()))
    return _count_distinct_real_roots(_squarefree_part(ascending))


def is_real_rooted(p: MonicPoly, require_distinct: bool = False) -> str:
    """Exact real-rootedness: "yes", "no", or "boundary".

    "yes" iff all d roots (with multiplicity) are real.  With
    require_distinct=True, repeated real roots answer "boundary" instead.
    """
    ascending = list(reversed(p.plain_coefficients()))
    square_free = _squarefree_part(ascending)
    distinct = _count_distinct_real_roots(square_free)
    if distinct != len(square_free) - 1:
        return "no"
    if require_distinct and len(square_free) - 1 != p.d:
        return "boundary"
    return "yes"


def roots(p: MonicPoly, tol: float = 1e-12) -> list:
    """All d roots as complex floats (companion-matrix eigenvalues).

    Deterministic for a given p; each root is residual-checked against
    tol * max(1, sum of term magnitudes at the root) and failure raises
    with the residuals attached.  Sorted by (real, imag).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    plain = [float(c) for c in p.plain_coefficients()]
    rts = np.roots(plain)
    resid = []
    ok = True
    for r in rts:
        val = 0.0 + 0.0j
        scale = 0.0
        for c in plain:
            val = val * r + c
            scale = scale * abs(r) + abs(c)
        rel = abs(val) / max(1.0, scale)
        resid.append(rel)
        if not (rel <= tol):
            ok = False
    if not ok:
        raise RootConvergenceError(
            "root refinement missed tolerance %g" % tol, resid
        )
    return sorted((complex(r) for r in rts), key=lambda z: (z.real, z.imag))
