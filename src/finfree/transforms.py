"""The transform triangle: coefficients, moments, cumulants.

Each conversion is one O(d^2) recurrence on formal power series, from the
log/exp pair in polynomial.py.  With S(s) = sum_{i<=d} (-d)^i a_i s^i / (d)_i,
the cumulants are kappa_{k+1} = -(1/d) [s^k] S'/S, and the inverse is the exp
recurrence i S_i = -d sum_{j<=i} kappa_j S_{i-j}.  With the weights (-1)^i in
place of (-d)^i / (d)_i the same pair gives the moments (Newton's identities
with power sums p_i = d m_i) and back; moments <-> cumulants compose the two
steps.  There d enters only as a parameter, so cumulant_from_moments works at
any rational d except an integer below the order n, where (d)_n vanishes.

The pair stays in integers: each step is one integer dot product over a
running common denominator, and a Fraction is built only for an entry a
function returns, one per output entry.  The log step takes integers, since
S'/S does not see the scale of S: with the integer weights W_i = W_0 w_i,
the integers W_i num(a_i) for the cumulants, and the integer coefficients
of prod (1 - r s) for the moments.  The exp step takes the rationals kappa
or m as they come, over their lcm.

The paper states these maps as sums over the set partition lattice; those
sums live in lattice.py, the reference the tests compare this module with.

Cumulants here are the finite free cumulants kappa_1..kappa_d of a monic
degree-d polynomial: coefficients of the truncated R-transform, additive
under the finite free convolution, homogeneous of weight n under dilation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import DomainError, InputFormatError, _digits
from .polynomial import (
    MomentSequence,
    MonicPoly,
    _alternate,
    _exp_series,
    _log_derivative,
    _moments,
    _over_lcm,
    _primitive,
    moments,
)
from .util import (Value, VarPoly, _check_int, _store, format_rational,
                   parse_int, parse_rational, parse_rational_array, read_record)


class CumulantVector(Value):
    """kappa_1..kappa_d of a degree-d polynomial, d = len(kappa).

    variant "standard" stores kappa_n; "rescaled" stores
    kappa~_n = ((d)_n / d^n) kappa_n.
    """

    __slots__ = ("kappa", "variant")

    def __init__(self, kappa, variant: str = "standard"):
        kappa = parse_rational_array(kappa, "'kappa'")
        _check_int(len(kappa), "degree", 1)
        if variant not in ("standard", "rescaled"):
            raise InputFormatError("variant must be 'standard' or 'rescaled'")
        _store(self, "kappa", kappa)
        _store(self, "variant", variant)

    @property
    def d(self) -> int:
        return len(self.kappa)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "variant": self.variant,
            "kappa": [format_rational(k) for k in self.kappa],
        }

    @classmethod
    def from_json(cls, obj) -> "CumulantVector":
        d, kappa, variant = read_record(obj, "cumulant", ("d", "kappa"), ("variant",))
        d, kappa = parse_int(d, "'d'"), parse_rational_array(kappa, "'kappa'")
        _check_int(d, "degree", 1)
        if len(kappa) != d:
            raise InputFormatError(
                "need exactly %s cumulants, got %d" % (_digits(d), len(kappa)))
        return cls(kappa, "standard" if variant is None else variant)


def _falling_and_power(d: int):
    """((d)_n, d^n) for n = 1..d, each a running product."""
    f = power = 1
    for i in range(d):
        f, power = f * (d - i), power * d
        yield f, power


def _standardize(k: CumulantVector) -> tuple:
    """Plain kappa_1..kappa_d regardless of stored variant."""
    if k.variant == "standard":
        return k.kappa
    return tuple(kt * power / f
                 for kt, (f, power) in zip(k.kappa, _falling_and_power(k.d)))


def rescale_cumulants(k: CumulantVector) -> CumulantVector:
    """Toggle between kappa_n and kappa~_n = ((d)_n / d^n) kappa_n, exactly.

    (d)_n and d^n are running products.  Each entry takes two Fraction
    steps, each reduced by gcds of its parts; one Fraction of the whole
    products would take a gcd of their full size, slower once the entries
    run to thousands of bits (d of about 100 and up).
    """
    if k.variant == "standard":
        vals = tuple(kn * f / power
                     for kn, (f, power) in zip(k.kappa, _falling_and_power(k.d)))
        return CumulantVector(vals, "rescaled")
    return CumulantVector(_standardize(k), "standard")


# ---------------------------------------------------------------------------
# the six directions
# ---------------------------------------------------------------------------


def _series_weights(d, n: int) -> list:
    """Integers W_0..W_n with W_i / W_0 = w_i = (-d)^i / (d)_i, the weights of
    S_i = w_i a_i: with d = p/q, W_i = (-p)^i prod_{j=i}^{n-1} (p - jq).  d
    must not be an integer in 0..n-1."""
    p, q = d.numerator, d.denominator
    W, suffix = [0] * (n + 1), 1
    for i in range(n, -1, -1):
        W[i] = (-p) ** i * suffix
        suffix *= p - (i - 1) * q
    return W


def coefficients_from_cumulants(k: CumulantVector) -> MonicPoly:
    """a_i = S_i W_0 / W_i with S from the exp recurrence."""
    d = k.d
    W = _series_weights(d, d)
    Snum, DS = _exp_series(_standardize(k), d, d)
    return MonicPoly(d, tuple(Fraction(s * W[0], DS * w) for s, w in zip(Snum, W)))


def cumulants_from_coefficients(p: MonicPoly) -> CumulantVector:
    """kappa_n = -(1/d) [s^{n-1}] S'/S, with the integers W_i num(a_i) for S."""
    d = p.d
    a, _ = _over_lcm(p.a)
    S = list(map(mul, _series_weights(d, d), a))
    return CumulantVector(_log_derivative(S, d, d))


def _first_moments(m, n: int, what: str) -> tuple:
    """m_1..m_n of a MomentSequence or of an array of rationals, with n
    through the integer gate as what; fewer than n moments are refused."""
    mv = m.entries if isinstance(m, MomentSequence) else parse_rational_array(m, "'m'")
    _check_int(n, what, 1)
    if len(mv) < n:
        raise DomainError("need %s moments, got %d" % (_digits(n), len(mv)))
    return mv[:n]


def _order_parameter(d, n: int) -> Fraction:
    """The degree (or parameter) d of a cumulant of order n, as a Fraction;
    an integer d below n, where (d)_n vanishes, is refused."""
    dq = parse_rational(d)
    if dq.denominator == 1 and dq < n:
        raise DomainError("integer d = %s below the order n = %s"
                          % (_digits(dq.numerator), _digits(n)))
    return dq


def coefficients_from_moments(m: MomentSequence, d: int) -> MonicPoly:
    """a_i = (-1)^i S_i with S the exp of the moment series: Newton's
    identities with power sums p_i = d m_i."""
    Snum, DS = _exp_series(_first_moments(m, d, "d"), d, d)
    return MonicPoly(d, tuple(Fraction(s, DS) for s in _alternate(Snum)))


def moments_from_coefficients(p: MonicPoly, N: int) -> MomentSequence:
    """m_1..m_N by the log-derivative, with a_k = 0 past the degree."""
    return moments(p, N)


def _cumulants_from_moments(mv, d, n: int) -> tuple:
    """kappa_1..kappa_n from m_1..m_n at degree (or parameter) d: the exp
    step gives the coefficients a_i, the weighted log step the cumulants."""
    Snum, _ = _exp_series(mv, d, n)
    return _log_derivative(list(map(mul, _series_weights(d, n), _alternate(Snum))), d, n)


def cumulant_from_moments(m, d, n: int) -> Fraction:
    """Single kappa_n from the first n moments at degree (or parameter) d.

    d may be any rational except an integer below n; the cost is O(n^2)
    whatever d is.
    """
    mv = _first_moments(m, n, "cumulant order n")
    return _cumulants_from_moments(mv, _order_parameter(d, n), n)[-1]


def cumulants_from_moments(m: MomentSequence, d: int) -> CumulantVector:
    """All d cumulants from the first d moments."""
    return CumulantVector(_cumulants_from_moments(_first_moments(m, d, "d"), d, d))


def _primitive_plain(Snum, d: int) -> list:
    """The plain coefficients of the degree-d polynomial whose exp series S
    has the numerators Snum, as a primitive integer vector.

    (-1)^i a_i = S_i (d)_i / d^i, so the integers Snum_i (d)_i d^(d-i) are
    the plain coefficients up to a positive scale.  Their content is divided
    out, which leaves the vector that the coefficients' own lcm would give.
    """
    weights = [(1, 1), *_falling_and_power(d)]
    top = weights[-1][1]
    return _primitive([s * f * (top // power) for s, (f, power) in zip(Snum, weights)])


def moments_from_cumulants(k: CumulantVector, N: int) -> MomentSequence:
    """First N moments from the cumulant vector; N may exceed d.

    The exp step gives S, and the plain coefficients of p, read off S, are
    the coefficients of prod (1 - r s): all that the moments' log step reads.
    """
    d = k.d
    Snum, _ = _exp_series(_standardize(k), d, d)
    return _moments(_primitive_plain(Snum, d), d, N)


def truncated_r_transform(p: MonicPoly) -> VarPoly:
    """sum_{j=0}^{d-1} kappa_{j+1} s^j, the first d terms of the R-transform."""
    return VarPoly("s", cumulants_from_coefficients(p).kappa)
