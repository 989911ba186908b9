"""Monic real polynomials in the signed coefficient convention.

A degree-d monic polynomial is stored as the vector (a_0, ..., a_d) alone,
with a_0 = 1 and d = len(a) - 1, meaning

    p(x) = sum_{i=0}^{d} x^{d-i} (-1)^i a_i,

so a_i is the i-th elementary symmetric function of the roots.  The
kernels meet a polynomial as its ordinary ("plain") coefficients (-1)^i a_i
over their lcm, read by _primitive_form and written by _from_plain.

Exact rational arithmetic throughout, and no root is ever computed.
Real-rootedness is decided in integers: below degree _ISOLATION_DEGREE by
a Sturm chain that stops at its first sign of a non-real root; from it
up, once f and f' are shown coprime modulo the prime 2^61 - 1 (so f is
squarefree), by Descartes' rule of signs on the Taylor shifts of
Vincent-Akritas-Strzebonski continued fractions, with the chain as the
fallback for a repeated root or an unlucky prime.  The chain also gives
matrix_oracle, the one module that works in floating point, its Jacobi
matrices and its refusal of input with non-real roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul, ne

from .errors import (DimensionError, FinFreeError, InputFormatError, NonMonicError,
                     _digits, _rational_digits)
from .util import (Value, _check_int, _store, format_rational, parse_int,
                   parse_rational, parse_rational_array, read_record)


class MonicPoly(Value):
    __slots__ = ("a",)

    def __init__(self, d: int, a):
        a = parse_rational_array(a, "'a'")
        _check_int(d, "degree", 1)
        if len(a) != d + 1:
            raise InputFormatError(
                "degree %s needs d + 1 signed coefficients, got %d" % (_digits(d), len(a))
            )
        if a[0] != 1:
            raise NonMonicError(
                "leading coefficient a_0 must be exactly 1, got %s" % _rational_digits(a[0])
            )
        _store(self, "a", a)

    @property
    def d(self) -> int:
        return len(self.a) - 1

    def __reduce__(self):  # through the constructor, which takes d
        return MonicPoly, (self.d, self.a)

    @classmethod
    def from_signed(cls, a) -> "MonicPoly":
        return cls(len(a) - 1, a)

    @classmethod
    def from_plain_coefficients(cls, c) -> "MonicPoly":
        """From ordinary descending coefficients (c[0] x^d + ... + c[d]).

        c[0] must be exactly 1; a_i = (-1)^i c_i.  No silent normalization.
        """
        a = _alternate(parse_rational_array(c, "coefficients"))
        return cls(len(a) - 1, a)

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

        With -c = u/v and a_i = n_i/D, the integers u^(d-i) v^i n_i are the
        descending coefficients of (-1)^d D v^d p(c y); _taylor_shift takes
        them to y + 1, and its entry k, divided exactly by u^(d-k), over D v^k
        is the new a_k.  p(x + 0) is p itself.
        """
        c, d = parse_rational(c), self.d
        if c == 0:
            return self
        n, D = _over_lcm(self.a)
        upow = [(-c.numerator) ** j for j in range(d + 1)]
        vpow = [c.denominator ** j for j in range(d + 1)]
        h = _taylor_shift([upow[d - i] * vpow[i] * x for i, x in enumerate(n)])
        return MonicPoly(d, [Fraction(x // upow[d - k], D * vpow[k]) for k, x in enumerate(h)])

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
    _check_int(d, "degree", 1)
    return MonicPoly(d, (1,) + (0,) * d)


def _same_degree(p, q) -> int:
    """The degree d that p and q share; DimensionError when they differ."""
    if p.d != q.d:
        raise DimensionError("degree mismatch: %d vs %d" % (p.d, q.d))
    return p.d


def moments(p: MonicPoly, N: int) -> "MomentSequence":
    """First N moments m_n = (power sum of roots)/d, by Newton's identities.

    S(s) = sum_i (-1)^i a_i s^i is prod (1 - r s) over the roots r, so
    -(1/d) S'/S is the moment series; a_k = 0 past the degree, so N may
    exceed d and costs O(N d).  Roots are never computed.
    """
    return _moments(_primitive_form(p), p.d, N)


def _moments(S, d: int, N: int) -> "MomentSequence":
    """m_1..m_N of the degree-d polynomial whose prod (1 - r s) is S up to scale."""
    _check_int(N, "N", 1)
    return MomentSequence(_log_derivative(S, d, N), degree_context=d)


def _alternate(v) -> list:
    """(-1)^i v_i: the coefficients a_i and those of prod (1 - r s)."""
    return [-x if i % 2 else x for i, x in enumerate(v)]


def _primitive_form(p: MonicPoly) -> list:
    """The plain coefficients of p over their lcm D, with content 1: D is
    the first, and a prime of D divides no entry whose denominator holds
    its full power in D."""
    return _alternate(_over_lcm(p.a)[0])


def _from_plain(f) -> MonicPoly:
    """The monic polynomial with plain coefficients f / f_0, f integers."""
    return MonicPoly(len(f) - 1, tuple(Fraction(x, f[0]) for x in _alternate(f)))


def _over_lcm(v) -> tuple:
    """(numerators, D): the entries of v (Fractions or ints) as integers over
    D, the lcm of their denominators."""
    D = lcm(*(x.denominator for x in v))
    return [x.numerator * (D // x.denominator) for x in v], D


def _log_derivative(S, d, n: int) -> tuple:
    """c_1..c_n with c_{k+1} = -(1/d) [s^k] S'/S, where S_0 != 0 and S_j = 0
    past the end of S.  S'/S does not see the scale of S, so S is integers.
    T_k = [s^k] S'/S solves S_0 T_k = (k+1) S_{k+1} - sum_j T_j S_{k-j}, one
    integer dot product over T's running lcm DT per step.  Each step builds
    its output c_{k+1} = -T_k q / p for d = p/q, the one Fraction per entry,
    and takes T_k in lowest terms from it by two gcds with p and q, so that
    the Fraction's own gcd is the step's only one of full size.
    """
    p, q = d.numerator, d.denominator
    top, S1, pS0 = len(S) - 1, S[1:], p * S[0]
    out, Tnum, DT = [], [], 1
    for k in range(n):
        # map stops at T_0 or past S_top: T_{k-1}, T_{k-2}, .. against S_1, S_2, ..
        dot = sum(map(mul, reversed(Tnum), S1))
        if k < top:
            dot -= (k + 1) * S1[k] * DT
        c = Fraction(q * dot, pS0 * DT)
        out.append(c)
        num, den = c.numerator, c.denominator
        # T_k = -c p / q; c and p/q are each in lowest terms
        g, h = gcd(num, q), gcd(den, p)
        num, den = -(num // g) * (p // h), (den // h) * (q // g)
        if DT % den:  # T over the lcm of DT and den
            grown = lcm(DT, den)
            f = grown // DT
            Tnum, DT = [y * f for y in Tnum], grown
        Tnum.append(num * (DT // den))
    return tuple(out)


def _exp_series(c, d, n: int) -> tuple:
    """(Snum, DS) with S_i = Snum_i / DS, i = 0..n, from i S_i = -d sum_{j=1}^{i}
    c_j S_{i-j}, S_0 = 1: the inverse of _log_derivative.  c_1..c_n, Fractions
    or integers, come over their lcm and S over DS, the running lcm of the
    reduced denominators, so each step is one integer dot product and one
    gcd, and no Fraction is built."""
    cnum, DC = _over_lcm(c[:n])
    p, q = d.numerator, d.denominator
    Snum, DS, qDC = [1], 1, q * DC
    for i in range(1, n + 1):
        # map stops at S_0: c_1..c_i against S_{i-1}..S_0
        num, den = -p * sum(map(mul, cnum, reversed(Snum))), qDC * i * DS  # den > 0
        g = gcd(num, den)
        num, den = num // g, den // g
        if DS % den:  # S over the lcm of DS and den
            grown = lcm(DS, den)
            f = grown // DS
            Snum, DS = [y * f for y in Snum], grown
        Snum.append(num * (DS // den))
    return Snum, DS


class MomentSequence(Value):
    """m_1..m_N of a degree-d polynomial (d kept as context when known)."""

    __slots__ = ("entries", "degree_context")

    def __init__(self, entries, degree_context: int | None = None):
        entries = parse_rational_array(entries, "'m'")
        if len(entries) < 1:
            raise InputFormatError("moment sequence must be nonempty")
        if degree_context is not None:
            _check_int(degree_context, "degree context d", 1)
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
# real-rootedness: a primitive integer Sturm chain, and above a degree
# cutoff a squarefree certificate and a count by continued fractions
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
        for _ in range(len(a) - n + 1):  # each step drops a's leading entry
            if a[0]:
                v = a[0] if lb > 0 else -a[0]
                a = [u * x - v * y for x, y in zip(a, b)] + [u * x for x in a[n:]]
            a = a[1:]
    lead = next((i for i, x in enumerate(a) if x), len(a))
    return a[lead:]


def _sturm_chain(f):
    """The Sturm chain of a primitive integer polynomial f (descending), or
    None as soon as it shows a non-real root.

    f, f', then minus each remainder, all primitive: positive multiples of
    the Euclidean chain, so the signs Sturm's theorem reads are unchanged.
    The last element is gcd(f, f') up to a constant factor.  Divided out,
    it leaves a chain of the squarefree part, whose V(-oo) - V(+oo) real
    roots reach its deg f - deg(gcd) roots exactly when each degree is one
    below the last and every lead has the sign of f's: the first remainder
    that breaks this stops the chain.
    """
    chain = [f, _primitive([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])]
    for _ in range(len(f) - 1):  # deg f remainders at most, the last one zero
        r = _remainder(chain[-2], chain[-1])
        if not r:
            return chain
        # the new element -r / content leads with the sign of -r[0]
        if len(r) != len(chain[-1]) - 1 or (r[0] > 0) == (f[0] > 0):
            return None
        g = -gcd(*r)  # the content, negated: one exact division per entry
        chain.append([x // g for x in r])
    raise FinFreeError("a Sturm chain did not end within deg f remainders")


# the squarefree certificate's prime, and the least degree at which real
# roots are counted by isolation rather than by the chain: about where the
# two cost the same on p boxplus q and on threshold probes
_ELL = 2**61 - 1
_ISOLATION_DEGREE = 18


def _squarefree_mod(f) -> bool:
    """Whether f and f' are coprime modulo the prime _ELL, with _ELL not
    dividing the leading coefficient of f: a certificate that f is
    squarefree over Q.

    A repeated factor g of f over Q may be taken primitive in Z[x] (Gauss);
    g divides f and f' there, and its leading coefficient divides that of
    f, so g keeps its degree mod _ELL and divides both.  False also for an
    unlucky prime: one that divides the leading coefficient, or a gcd mod
    _ELL that is not constant while f is squarefree.
    """
    if f[0] % _ELL == 0:
        return False
    n = len(f) - 1
    a = [x % _ELL for x in f]
    b = [x * (n - i) % _ELL for i, x in enumerate(f[:-1])]  # lead n f_0, nonzero as n < _ELL
    for _ in range(n):  # each pass lowers deg b, which starts at n - 1
        if len(b) == 1:
            return True
        # _remainder's multiple of the remainder is by a power of b_0, a unit
        r = [x % _ELL for x in _remainder(a, b)]
        lead = next((i for i, x in enumerate(r) if x), len(r))
        if lead == len(r):
            return False
        a, b = b, r[lead:]
    raise FinFreeError("a gcd mod _ELL did not end within deg f passes")


def _variations(a) -> int:
    """Sign changes in the sequence a, zeros skipped."""
    signs = [x > 0 for x in a if x]
    return sum(map(ne, signs, signs[1:]))


def _taylor_shift(a, k: int = 0) -> list:
    """a(x + 2^k) for descending integers a: a(2^k y), shifted by one with
    one prefix sum per synthetic division by y - 1, then y = x / 2^k, an
    exact division of each coefficient."""
    n = len(a) - 1
    a = [x << k * (n - i) for i, x in enumerate(a)] if k else list(a)
    for i in range(n + 1, 1, -1):
        a[:i] = accumulate(a[:i])
    return [x >> k * (n - i) for i, x in enumerate(a)] if k else a


def _root_bound(a) -> int:
    """E with every positive root of the descending integers a below 2^E,
    for a with a sign change.

    Akritas, Strzebonski and Vigklas's theorem: with a_0 > 0, pair each
    negative coefficient c_i with a positive c_j of higher degree and a
    weight w, the weights paired with each c_j summing to at most 1; no root
    exceeds the largest (-c_i / (w c_j))^(1/(j - i)), since past it each
    |c_i| x^i < w c_j x^j.  Here c_j is the local max, the longest positive
    coefficient so far in bit length, with weights 1/2, 1/4, ..., and each
    term is rounded up to a power of two through bit lengths alone, which
    makes it strictly larger: |c_i| < 2^bits(c_i).
    """
    if a[0] < 0:
        a = [-x for x in a]
    top, at, uses, bound = a[0].bit_length(), 0, 1, None
    for i, x in enumerate(a):
        if x > 0 and x.bit_length() > top:
            top, at, uses = x.bit_length(), i, 1
        elif x < 0:
            # 2^uses |x| / c_j < 2^(uses + bits(x) - top + 1), to the 1/(i - at), rounded up
            e = -((top - 1 - uses - x.bit_length()) // (i - at))
            bound = e if bound is None or e > bound else bound
            uses += 1
    return bound


def _isolated_count(f):
    """The number of real roots of the squarefree integer f (descending), by
    Vincent-Akritas-Strzebonski continued fractions, or None when the stack
    loop runs past len(f) (len(f) + bits of f's largest entry) rounds.

    f(x) and f(-x) enter the stack for their positive roots.  A popped P,
    with P(0) != 0 and v sign changes, holds exactly v positive roots when
    v < 2 (Descartes).  Otherwise, when _root_bound of its reversal shows
    every positive root of P above 2^k with k >= 1, P moves by 2^k, then on
    by 2^k, 2^(k+1), ... while Budan's theorem shows that no root was
    passed: a shift by s keeps all v sign changes only if (0, s] holds no
    root.  Then P splits at 1: P(x + 1) holds the roots above 1, and
    (x + 1)^deg P(1/(x + 1)) those in (0, 1), whose number is v minus the
    sign changes of P(x + 1), less an even number (Budan again), so that it
    is built only when that difference exceeds one.  A root at 1 is counted
    and divided out of both.
    """
    rounds, count = len(f) * (len(f) + max(x.bit_length() for x in f)), 0
    if f[-1] == 0:  # squarefree: a simple root at 0
        f, count = f[:-1], 1
    stack = [(g, _variations(g)) for g in (f, _alternate(f))]
    for _ in range(rounds):
        if not stack:
            return count
        P, v = stack.pop()
        if v > 1:
            k = -_root_bound(P[::-1])  # every positive root of P exceeds 2^k
            if k > 0:
                P = _taylor_shift(P, k)
                v = _variations(P)
                for j in range(k, _root_bound(P) if v > 1 else k):
                    Q = _taylor_shift(P, j)
                    if _variations(Q) < v:
                        break
                    P = Q
        if v < 2:
            count += v
            continue
        P1 = _taylor_shift(P)
        at_one = P1[-1] == 0
        if at_one:
            P1, count = P1[:-1], count + 1
        stack.append((P1, _variations(P1)))
        v2 = v - stack[-1][1] - at_one
        if v2 > 1:
            P2 = _taylor_shift(P[::-1])  # P2(0) = P(1), a root counted above
            P2 = P2[:-1] if at_one else P2
            stack.append((P2, _variations(P2)))
        else:
            count += v2
    return None


def _distinct_if_real(f):
    """The number of distinct roots of primitive integer f when every root
    is real, None otherwise.

    From deg f = _ISOLATION_DEGREE up, f that _squarefree_mod certifies
    squarefree has deg f distinct roots, and _isolated_count counts the real
    ones in integer Taylor shifts, far cheaper than a chain whose remainders
    grow to hundreds of times the bits of f.  A repeated root, an unlucky
    prime or an isolation past its loop bound falls back to the chain, as
    does f below that degree: deg f - deg gcd(f, f') distinct roots, unless
    the chain stops at a non-real root.
    """
    if len(f) > _ISOLATION_DEGREE and _squarefree_mod(f):
        real = _isolated_count(f)
        if real is not None:
            return real if real == len(f) - 1 else None
    chain = _sturm_chain(f)
    return None if chain is None else len(f) - len(chain[-1])


def is_real_rooted(p: MonicPoly, require_distinct: bool = False) -> str:
    """Exact real-rootedness: "yes", "no", or "boundary".

    "yes" iff all d roots (with multiplicity) are real.  With
    require_distinct=True, repeated real roots answer "boundary" instead.
    One call of _distinct_if_real on the primitive integer form of p: from
    degree _ISOLATION_DEGREE up, a squarefree certificate modulo a 61-bit
    prime and a count by continued fractions; otherwise, or for p with a
    repeated root, one Sturm chain, which stops at its first sign of a
    non-real root.
    """
    distinct = _distinct_if_real(_primitive_form(p))
    if distinct is None:
        return "no"
    if require_distinct and distinct != p.d:
        return "boundary"
    return "yes"

