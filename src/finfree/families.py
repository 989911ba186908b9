"""The named families, each defined by its finite free cumulants: the Hermite
CLT fixed point kappa = (0, 1, 0, ..., 0), the finite free Poisson with every
kappa_n = lambda, and the rescaled n-fold sum behind the central limit
theorem, kappa_r -> kappa_r n^{1 - r/2}.  Each builds its cumulant vector
and passes it once to transforms.coefficients_from_cumulants."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DomainError, InputFormatError
from .polynomial import MonicPoly
from .transforms import (CumulantVector, coefficients_from_cumulants,
                         cumulants_from_coefficients)
from .util import _check_int


def hermite_clt(d: int, marcus_scaling: bool = False) -> MonicPoly:
    """The CLT fixed point: kappa = (0, 1, 0, ..., 0).

    This is the monic Hermite polynomial H_d with roots contracted by
    sqrt(d).  With marcus_scaling the variance kappa_2 is 1 - 1/d instead
    of 1.
    """
    _check_int(d, "degree")
    if d < 1:
        raise InputFormatError("degree must be >= 1")
    v = Fraction(d - 1, d) if marcus_scaling else Fraction(1)
    kappa = (Fraction(0), v) + (Fraction(0),) * (d - 2)
    return coefficients_from_cumulants(CumulantVector(d, kappa[:d]))


def finite_poisson(lam, d: int) -> MonicPoly:
    """All d cumulants equal to lam.

    Requires d*lam a positive integer; for lam < 1 the polynomial has a
    root at 0 of multiplicity d - d*lam.
    """
    _check_int(d, "degree")
    if d < 1:
        raise InputFormatError("degree must be >= 1")
    lam = Fraction(lam)
    dlam = lam * d
    if dlam.denominator != 1 or dlam <= 0:
        raise DomainError(
            "d*lambda must be a positive integer, got %s" % dlam
        )
    return coefficients_from_cumulants(CumulantVector(d, (lam,) * d))


def clt_rescaled_sum(p: MonicPoly, n: int) -> MonicPoly:
    """The n-fold convolution of p with itself, rescaled by sqrt(n): kappa_r
    picks up the factor n / sqrt(n)^r = n^{1 - r/2}.

    Requires kappa_1(p) = 0; center first.  n must be a perfect square, so
    that the rescaling by sqrt(n) stays exact.
    """
    _check_int(n, "n")
    if n < 1 or isqrt(n) ** 2 != n:
        raise DomainError("need a perfect square n >= 1, got %d" % n)
    kappa = cumulants_from_coefficients(p).kappa
    if kappa[0] != 0:
        raise DomainError(
            "kappa_1 = %s; center the polynomial before rescaling" % kappa[0]
        )
    root = isqrt(n)
    return coefficients_from_cumulants(CumulantVector(
        p.d, tuple(v * n / root**r for r, v in enumerate(kappa, start=1))))
