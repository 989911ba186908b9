"""Finite free additive convolution of monic polynomials."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DimensionError, DomainError
from .polynomial import MonicPoly
from .transforms import (
    CumulantVector,
    coefficients_from_cumulants,
    cumulants_from_coefficients,
)


def boxplus(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Additive convolution of two monic polynomials of the same degree.

    a_k(p boxplus q) = sum_{i+j=k} (d-i)! (d-j)! / (d! (d-i-j)!) a_i(p) a_j(q).

    Exact, O(d^2); equals the expected characteristic polynomial of
    A + Q B Q^T over Haar-random orthogonal Q when p, q are the
    characteristic polynomials of the symmetric matrices A, B.
    """
    if p.d != q.d:
        raise DimensionError(
            "degree mismatch: %d vs %d" % (p.d, q.d)
        )
    d = p.d
    # the weight factors: alpha_i = (d-i)! a_i(p), beta_j = (d-j)! a_j(q)
    alpha = [factorial(d - i) * a for i, a in enumerate(p.a)]
    beta = [factorial(d - j) * b for j, b in enumerate(q.a)]
    dfac = factorial(d)
    return MonicPoly(d, tuple(
        Fraction(sum(alpha[i] * beta[k - i] for i in range(k + 1)),
                 dfac * factorial(d - k))
        for k in range(d + 1)
    ))


def boxplus_power(p: MonicPoly, t) -> MonicPoly:
    """Convolution power p^{boxplus t} for rational t > 0.

    Cumulants are additive under boxplus, so the power is defined by
    scaling every cumulant by t; integer t agrees with iterated boxplus.
    """
    t = Fraction(t)
    if t <= 0:
        raise DomainError("convolution power needs t > 0, got %s" % t)
    k = cumulants_from_coefficients(p)
    scaled = CumulantVector(k.d, tuple(t * v for v in k.kappa))
    return coefficients_from_cumulants(scaled)
