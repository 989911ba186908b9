"""Closed-form families: the Hermite CLT fixed point, finite free Poisson,
and the rescaled-sum demonstrator behind the central limit theorem."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .convolution import boxplus_power
from .errors import DomainError, InputFormatError
from .polynomial import MonicPoly
from .transforms import cumulants_from_coefficients
from .util import falling


def hermite_clt(d: int, marcus_scaling: bool = False) -> MonicPoly:
    """The CLT fixed point: kappa = (0, 1, 0, ..., 0).

    a_{2i} = ((d)_{2i} / d^i) (-1)^i / (2^i i!), odd coefficients zero;
    this is the monic Hermite polynomial H_d with roots contracted by
    sqrt(d).  With marcus_scaling the variance is 1 - 1/d instead of 1,
    which multiplies a_{2i} by ((d-1)/d)^i.
    """
    if d < 1:
        raise InputFormatError("degree must be >= 1")
    c = Fraction(d - 1, d) if marcus_scaling else Fraction(1)
    a = [Fraction(0)] * (d + 1)
    a[0] = Fraction(1)
    for i in range(1, d // 2 + 1):
        a[2 * i] = (
            falling(Fraction(d), 2 * i)
            / Fraction(d) ** i
            * Fraction((-1) ** i, 2**i * factorial(i))
            * c**i
        )
    return MonicPoly(d, tuple(a))


def finite_poisson(lam, d: int) -> MonicPoly:
    """All d cumulants equal to lam: a_n = ((d)_n / (d^n n!)) (d lam)_n.

    Requires d*lam a positive integer; for lam < 1 the polynomial has a
    root at 0 of multiplicity d - d*lam, since (d lam)_n = 0 for
    n >= d lam + 1.
    """
    if d < 1:
        raise InputFormatError("degree must be >= 1")
    lam = Fraction(lam)
    dlam = lam * d
    if dlam.denominator != 1 or dlam <= 0:
        raise DomainError(
            "d*lambda must be a positive integer, got %s" % dlam
        )
    dq = Fraction(d)
    a = [Fraction(1)]
    for n in range(1, d + 1):
        a.append(
            falling(dq, n) / (dq**n * factorial(n)) * falling(dlam, n)
        )
    return MonicPoly(d, tuple(a))


def clt_rescaled_sum(p: MonicPoly, n: int) -> MonicPoly:
    """The n-fold convolution of p with itself, rescaled: kappa_r picks up
    the factor n^{1 - r/2}.

    Requires kappa_1(p) = 0; center first.  n must be a perfect square, so
    that the rescaling by sqrt(n) stays exact.
    """
    if n < 1 or isqrt(n) ** 2 != n:
        raise DomainError("need a perfect square n >= 1, got %d" % n)
    k = cumulants_from_coefficients(p)
    if k.kappa[0] != 0:
        raise DomainError(
            "kappa_1 = %s; center the polynomial before rescaling" % k.kappa[0]
        )
    return boxplus_power(p, n).dilate(isqrt(n))
