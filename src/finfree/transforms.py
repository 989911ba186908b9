"""The transform triangle: coefficients, moments, cumulants.

Each conversion is one O(d^2) recurrence on formal power series, from the
log/exp pair in polynomial.py.  With S(s) = sum_{i<=d} (-d)^i a_i s^i / (d)_i,
the cumulants are kappa_{k+1} = -(1/d) [s^k] S'/S, and the inverse is the exp
recurrence i S_i = -d sum_{j<=i} kappa_j S_{i-j}.  With the weights (-1)^i in
place of (-d)^i / (d)_i the same pair gives the moments (Newton's identities
with power sums p_i = d m_i) and back; moments <-> cumulants compose the two
steps.  There d enters only as a parameter, so cumulant_from_moments works at
any rational d except an integer below the order n, where (d)_n vanishes.

The paper states these maps as sums over the set partition lattice; those
sums live in lattice.py, the reference the tests compare this module with.

Cumulants here are the finite free cumulants kappa_1..kappa_d of a monic
degree-d polynomial: coefficients of the truncated R-transform, additive
under the finite free convolution, homogeneous of weight n under dilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InputFormatError
from .polynomial import (
    MomentSequence,
    MonicPoly,
    _alternate,
    _exp_series,
    _log_derivative,
    moments,
)
from .util import (VarPoly, _check_int, falling, format_rational, parse_int,
                   parse_rational, parse_rational_array, read_record)


@dataclass(frozen=True)
class CumulantVector:
    """kappa_1..kappa_d of a degree-d polynomial.

    variant "standard" stores kappa_n; "rescaled" stores
    kappa~_n = ((d)_n / d^n) kappa_n.
    """

    d: int
    kappa: tuple
    variant: str = "standard"

    def __post_init__(self):
        object.__setattr__(self, "kappa", parse_rational_array(self.kappa, "'kappa'"))
        _check_int(self.d, "degree")
        if self.d < 1:
            raise InputFormatError("degree must be >= 1")
        if len(self.kappa) != self.d:
            raise InputFormatError(
                "need exactly %d cumulants, got %d" % (self.d, len(self.kappa))
            )
        if self.variant not in ("standard", "rescaled"):
            raise InputFormatError("variant must be 'standard' or 'rescaled'")

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "variant": self.variant,
            "kappa": [format_rational(k) for k in self.kappa],
        }

    @classmethod
    def from_json(cls, obj) -> "CumulantVector":
        d, kappa, variant = read_record(obj, "cumulant", ("d", "kappa"), ("variant",))
        return cls(parse_int(d, "'d'"), kappa, "standard" if variant is None else variant)


def _standardize(k: CumulantVector) -> tuple:
    """Plain kappa_1..kappa_d regardless of stored variant."""
    if k.variant == "standard":
        return k.kappa
    d = k.d
    return tuple(
        kt * Fraction(d) ** n / falling(d, n)
        for n, kt in enumerate(k.kappa, start=1)
    )


def rescale_cumulants(k: CumulantVector) -> CumulantVector:
    """Toggle between kappa_n and kappa~_n = ((d)_n / d^n) kappa_n, exactly."""
    d = k.d
    if k.variant == "standard":
        vals = tuple(
            kn * falling(d, n) / Fraction(d) ** n
            for n, kn in enumerate(k.kappa, start=1)
        )
        return CumulantVector(d, vals, "rescaled")
    return CumulantVector(d, _standardize(k), "standard")


# ---------------------------------------------------------------------------
# the six directions
# ---------------------------------------------------------------------------


def _series_weights(d: Fraction, n: int) -> list:
    """w_i = (-d)^i / (d)_i for i = 0..n, so that S_i = w_i a_i; d must not
    be an integer in 0..n-1."""
    w = [Fraction(1)]
    for i in range(1, n + 1):
        w.append(w[-1] * -d / (d - i + 1))
    return w


def coefficients_from_cumulants(k: CumulantVector) -> MonicPoly:
    """a_i = S_i (d)_i / (-d)^i with S from the exp recurrence."""
    d = k.d
    dq = Fraction(d)
    S = _exp_series(_standardize(k), dq, d)
    return MonicPoly(d, tuple(s / w for s, w in zip(S, _series_weights(dq, d))))


def cumulants_from_coefficients(p: MonicPoly) -> CumulantVector:
    """kappa_n = -(1/d) [s^{n-1}] S'/S."""
    d = p.d
    dq = Fraction(d)
    S = [w * a for w, a in zip(_series_weights(dq, d), p.a)]
    return CumulantVector(d, _log_derivative(S, dq, d))


def coefficients_from_moments(m: MomentSequence, d: int) -> MonicPoly:
    """a_i = (-1)^i S_i with S the exp of the moment series: Newton's
    identities with power sums p_i = d m_i."""
    _check_int(d, "d")
    if len(m) < d:
        raise DomainError("need %d moments, got %d" % (d, len(m)))
    return MonicPoly(d, _alternate(_exp_series(m.entries, d, d)))


def moments_from_coefficients(p: MonicPoly, N: int) -> MomentSequence:
    """m_1..m_N by the log-derivative, with a_k = 0 past the degree."""
    return moments(p, N)


def _cumulants_from_moments(mv, d, n: int) -> tuple:
    """kappa_1..kappa_n from m_1..m_n at degree (or parameter) d: the exp
    step gives the coefficients a_i, the weighted log step the cumulants."""
    dq = Fraction(d)
    a = _alternate(_exp_series(mv, dq, n))
    return _log_derivative([w * x for w, x in zip(_series_weights(dq, n), a)], dq, n)


def cumulant_from_moments(m, d, n: int) -> Fraction:
    """Single kappa_n from the first n moments at degree (or parameter) d.

    d may be any rational except an integer below n; the cost is O(n^2)
    whatever d is.
    """
    mv = m.entries if isinstance(m, MomentSequence) else parse_rational_array(m, "'m'")
    _check_int(n, "cumulant order n")
    if n < 1:
        raise DomainError("cumulant order must be >= 1, got %d" % n)
    if len(mv) < n:
        raise DomainError("need %d moments, got %d" % (n, len(mv)))
    dq = parse_rational(d)
    if dq.denominator == 1 and dq < n:
        raise DomainError("integer d = %s below the order n = %d" % (dq, n))
    return _cumulants_from_moments(mv, dq, n)[-1]


def cumulants_from_moments(m: MomentSequence, d: int) -> CumulantVector:
    """All d cumulants from the first d moments."""
    _check_int(d, "d")
    if len(m) < d:
        raise DomainError("need %d moments, got %d" % (d, len(m)))
    return CumulantVector(d, _cumulants_from_moments(m.entries, d, d))


def moments_from_cumulants(k: CumulantVector, N: int) -> MomentSequence:
    """First N moments from the cumulant vector; N may exceed d."""
    return moments_from_coefficients(coefficients_from_cumulants(k), N)


def truncated_r_transform(p: MonicPoly) -> VarPoly:
    """sum_{j=0}^{d-1} kappa_{j+1} s^j, the first d terms of the R-transform."""
    return VarPoly("s", cumulants_from_coefficients(p).kappa)
