"""Monic real polynomials in the signed coefficient convention.

A degree-d monic polynomial is stored as the vector (a_0, ..., a_d) with
a_0 = 1, meaning

    p(x) = sum_{i=0}^{d} x^{d-i} (-1)^i a_i,

so a_i is the i-th elementary symmetric function of the roots.  All
transform identities downstream are stated in these a_i; ordinary
("plain") coefficients appear only at the I/O boundary.

Exact rational arithmetic throughout, and no root is ever computed: the
integer Sturm chain here decides real-rootedness and gives matrix_oracle,
the one module that works in floating point, its Jacobi matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .errors import InputFormatError, NonMonicError
from .util import (Value, _check_int, _store, format_rational, parse_int,
                   parse_rational, parse_rational_array, read_record)


class MonicPoly(Value):
    __slots__ = ("d", "a")

    def __init__(self, d: int, a):
        a = parse_rational_array(a, "'a'")
        _check_int(d, "degree")
        if d < 1:
            raise InputFormatError("degree must be >= 1")
        if len(a) != d + 1:
            raise InputFormatError(
                "degree %d needs d + 1 signed coefficients, got %d" % (d, len(a))
            )
        if a[0] != 1:
            raise NonMonicError(
                "leading coefficient a_0 must be exactly 1, got %s" % (a[0],)
            )
        _store(self, "d", d)
        _store(self, "a", a)

    @classmethod
    def from_signed(cls, a) -> "MonicPoly":
        return cls(len(a) - 1, a)

    @classmethod
    def from_plain_coefficients(cls, c) -> "MonicPoly":
        """From ordinary descending coefficients (c[0] x^d + ... + c[d]).

        c[0] must be exactly 1; a_i = (-1)^i c_i.  No silent normalization.
        """
        return cls.from_signed(_alternate(parse_rational_array(c, "coefficients")))

    @classmethod
    def from_roots(cls, roots) -> "MonicPoly":
        """Exact monic polynomial with the given rational roots.

        a_i comes out as the i-th elementary symmetric function: the integer
        factors (v x - u) of the roots u/v multiply, then one division by prod v.
        """
        e, V = [1], 1
        for r in map(parse_rational, roots):
            e = [r.denominator * x + r.numerator * y for x, y in zip(e + [0], [0] + e)]
            V *= r.denominator
        return cls(len(e) - 1, [Fraction(x, V) for x in e])

    def plain_coefficients(self) -> list:
        """Ordinary descending coefficients, leading 1 first."""
        return _alternate(self.a)

    def dilate(self, lam) -> "MonicPoly":
        """D_lam p(x) = lam^{-d} p(lam x); coefficientwise a_i -> lam^{-i} a_i.

        D_0 is the defined degenerate case x^d.
        """
        lam = parse_rational(lam)
        if lam == 0:
            return x_power(self.d)
        return MonicPoly(self.d, [ai / lam**i for i, ai in enumerate(self.a)])

    def translate(self, c) -> "MonicPoly":
        """p(x + c), exact; shifts every root by -c.

        a_k -> sum_{i<=k} binom(d-i, k-i) (-c)^(k-i) a_i; with -c = u/v and
        a_i = n_i/D, one integer sum of binom(d-i, k-i) u^(k-i) v^i n_i over
        D v^k per entry.
        """
        c, d = parse_rational(c), self.d
        n, D = _over_lcm(self.a)
        upow = [(-c.numerator) ** j for j in range(d + 1)]
        vpow = [c.denominator ** j for j in range(d + 1)]
        return MonicPoly(d, [Fraction(sum(comb(d - i, k - i) * upow[k - i] * vpow[i] * n[i]
                                          for i in range(k + 1)), D * vpow[k])
                             for k in range(d + 1)])

    def to_json(self) -> dict:
        return {
            "degree": self.d,
            "a": [format_rational(x) for x in self.a],
        }

    @classmethod
    def from_json(cls, obj) -> "MonicPoly":
        d, a = read_record(obj, "polynomial", ("degree", "a"))
        return cls(parse_int(d, "'degree'"), a)


def x_power(d: int) -> MonicPoly:
    """x^d."""
    _check_int(d, "degree")
    return MonicPoly(d, (1,) + (0,) * d)


def moments(p: MonicPoly, N: int) -> "MomentSequence":
    """First N moments m_n = (power sum of roots)/d, by Newton's identities.

    S(s) = sum_i (-1)^i a_i s^i is prod (1 - r s) over the roots r, so
    -(1/d) S'/S is the moment series; a_k = 0 past the degree, so N may
    exceed d and costs O(N d).  Roots are never computed.
    """
    return _moments(_alternate(_over_lcm(p.a)[0]), p.d, N)


def _moments(S, d: int, N: int) -> "MomentSequence":
    """m_1..m_N of the degree-d polynomial whose prod (1 - r s) is S up to scale."""
    _check_int(N, "N")
    if N < 1:
        raise InputFormatError("need N >= 1 moments, got %d" % N)
    return MomentSequence(_log_derivative(S, d, N), degree_context=d)


def _alternate(v) -> list:
    """(-1)^i v_i: the coefficients a_i and those of prod (1 - r s)."""
    return [-x if i % 2 else x for i, x in enumerate(v)]


def _over_lcm(v) -> tuple:
    """(numerators, D): the entries of v (Fractions or ints) as integers over
    D, the lcm of their denominators."""
    D = lcm(*(x.denominator for x in v))
    return [x.numerator * (D // x.denominator) for x in v], D


def _log_derivative(S, d, n: int) -> tuple:
    """c_1..c_n with c_{k+1} = -(1/d) [s^k] S'/S, where S_0 != 0 and S_j = 0
    past the end of S.  S'/S does not see the scale of S, so S may be
    integers.  T_k = [s^k] S'/S solves S_0 T_k = (k+1) S_{k+1} - sum_j T_j
    S_{k-j}, one integer dot product over T's running lcm DT per step.  Each
    step builds its output c_{k+1} = -T_k q / p for d = p/q, the one Fraction
    per entry, and takes T_k in lowest terms from it by two gcds with p and
    q, so that the Fraction's own gcd is the step's only one of full size.
    """
    Snum, _ = _over_lcm(S)
    top = len(S) - 1
    p, q = d.numerator, d.denominator
    out, Tnum, DT = [], [], 1
    for k in range(n):
        lo = max(0, k - top)
        dot = sum(map(mul, Tnum[lo:k], Snum[k:0:-1]))  # the slice stops at S's end
        c = Fraction(q * (dot - ((k + 1) * Snum[k + 1] * DT if k < top else 0)),
                     p * DT * Snum[0])
        out.append(c)
        # T_k = -c p / q; c and p/q are each in lowest terms
        g, h = gcd(c.numerator, q), gcd(c.denominator, p)
        Tnum, DT = _append_over(Tnum, DT, -(c.numerator // g) * (p // h),
                                (c.denominator // h) * (q // g))
    return tuple(out)


def _exp_series(c, d, n: int) -> tuple:
    """(Snum, DS) with S_i = Snum_i / DS, i = 0..n, from i S_i = -d sum_{j=1}^{i}
    c_j S_{i-j}, S_0 = 1: the inverse of _log_derivative.  c_1..c_n come over
    their lcm and S over DS, the running lcm of the reduced denominators, so
    each step is one integer dot product and one gcd, and no Fraction is
    built."""
    cnum, DC = _over_lcm(c[:n])
    p, q = d.numerator, d.denominator
    Snum, DS = [1], 1
    for i in range(1, n + 1):
        num, den = -p * sum(map(mul, cnum[:i], Snum[::-1])), q * i * DC * DS  # den > 0
        g = gcd(num, den)
        Snum, DS = _append_over(Snum, DS, num // g, den // g)
    return Snum, DS


def _append_over(nums: list, D: int, num: int, den: int) -> tuple:
    """nums + [num/den] over the lcm of D and den, for num/den in lowest
    terms: the stored numerators are rescaled only when den does not divide D."""
    if D % den:
        grown = lcm(D, den)
        nums, D = [y * (grown // D) for y in nums], grown
    nums.append(num * (D // den))
    return nums, D


class MomentSequence(Value):
    """m_1..m_N of a degree-d polynomial (d kept as context when known)."""

    __slots__ = ("entries", "degree_context")

    def __init__(self, entries, degree_context: int | None = None):
        entries = parse_rational_array(entries, "'m'")
        if len(entries) < 1:
            raise InputFormatError("moment sequence must be nonempty")
        if degree_context is not None:
            _check_int(degree_context, "degree context d")
        _store(self, "entries", entries)
        _store(self, "degree_context", degree_context)

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
        m, d = read_record(obj, "moment", ("m",), ("d",))
        return cls(m, None if d is None else parse_int(d, "'d'"))


# ---------------------------------------------------------------------------
# real-rootedness: one primitive integer Sturm chain
# ---------------------------------------------------------------------------


def _primitive(c):
    """c divided by its positive content; signs are kept."""
    g = gcd(*c)
    return c if g == 1 else [x // g for x in c]


def _remainder(a, b):
    """A positive multiple of the remainder of a by b, descending integers.

    The normal step, deg a = deg b + 1 (every step of a generic chain), is
    the two eliminations fused into one pass,

        r_i = b_0 (b_0 a_i - a_0 b_i) - (b_0 a_1 - a_0 b_1) b_{i-1},

    b_0^2 times the Euclidean remainder.  Otherwise each elimination scales
    a by |b_0| and subtracts a multiple of b.  Either way the sign of the
    Euclidean remainder survives without any Fractions.
    """
    lb, n = b[0], len(b)
    if len(a) == n + 1 and n > 1:
        la = a[0]
        c = lb * a[1] - la * b[1]
        a = [lb * (lb * x - la * y) - c * z for x, y, z in zip(a[2:], b[2:] + [0], b[1:])]
    else:
        u = abs(lb)
        while len(a) >= n:
            if a[0]:
                v = a[0] if lb > 0 else -a[0]
                a = [u * x - v * y for x, y in zip(a, b)] + [u * x for x in a[n:]]
            a = a[1:]
    lead = next((i for i, x in enumerate(a) if x), len(a))
    return a[lead:]


def _primitive_form(p: MonicPoly) -> list:
    """The plain coefficients of p as a primitive integer polynomial."""
    return _primitive(_over_lcm(p.plain_coefficients())[0])


def _sturm_chain(f) -> list:
    """The Sturm chain of a primitive integer polynomial f (descending).

    f, f', then minus each remainder, all primitive: positive multiples of
    the Euclidean chain, so the signs Sturm's theorem reads are unchanged.
    The last element is gcd(f, f') up to a constant factor.
    """
    chain = [f, _primitive([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])]
    while True:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            return chain
        g = -gcd(*r)  # the content, negated: one exact division per entry
        chain.append([x // g for x in r])


def _sturm_counts(f):
    """(distinct real roots, distinct roots) of primitive integer f, from one chain.

    Dividing the chain's last element, gcd(f, f'), out of every element
    leaves a Sturm chain of the squarefree part, so V(-oo) - V(+oo) counts
    the distinct real roots, and deg f - deg(gcd) the distinct roots.
    """
    chain = _sturm_chain(f)
    # sign at +oo is that of the leading coefficient; at -oo flip odd degrees
    plus = [q[0] > 0 for q in chain]
    minus = [(q[0] > 0) == (len(q) % 2 == 1) for q in chain]
    real = sum(x != y for x, y in zip(minus, minus[1:])) - sum(
        x != y for x, y in zip(plus, plus[1:])
    )
    return real, len(f) - len(chain[-1])


def is_real_rooted(p: MonicPoly, require_distinct: bool = False) -> str:
    """Exact real-rootedness: "yes", "no", or "boundary".

    "yes" iff all d roots (with multiplicity) are real.  With
    require_distinct=True, repeated real roots answer "boundary" instead.
    """
    real, distinct = _sturm_counts(_primitive_form(p))
    if real != distinct:
        return "no"
    if require_distinct and distinct != p.d:
        return "boundary"
    return "yes"

