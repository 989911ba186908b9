"""Finite free additive convolution of monic polynomials."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from .errors import DimensionError, DomainError
from .polynomial import MonicPoly, _exp_series, _over_lcm
from .transforms import _primitive_plain, cumulants_from_coefficients
from .util import parse_rational


def boxplus(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Additive convolution of two monic polynomials of the same degree.

    a_k(p boxplus q) = sum_{i+j=k} (d-i)! (d-j)! / (d! (d-i-j)!) a_i(p) a_j(q).

    In integers over the lcms A, B of the denominators: a_k is the dot
    product of alpha_i = (d-i)! A a_i(p) and beta_j = (d-j)! B a_j(q), over
    A B d! (d-k)!.

    Exact, O(d^2); equals the expected characteristic polynomial of
    A + Q B Q^T over Haar-random orthogonal Q when p, q are the
    characteristic polynomials of the symmetric matrices A, B.
    """
    if p.d != q.d:
        raise DimensionError(
            "degree mismatch: %d vs %d" % (p.d, q.d)
        )
    d = p.d
    (a, A), (b, B) = _over_lcm(p.a), _over_lcm(q.a)
    alpha = [factorial(d - i) * x for i, x in enumerate(a)]
    beta = [factorial(d - j) * y for j, y in enumerate(b)]
    den = A * B * factorial(d)
    return MonicPoly(d, tuple(
        Fraction(sum(map(mul, alpha[:k + 1], beta[k::-1])), den * factorial(d - k))
        for k in range(d + 1)
    ))


def _power_family(p: MonicPoly):
    """t -> p^{boxplus t} as a primitive integer polynomial, for rational t > 0.

    kappa(p^{boxplus t}) = t kappa(p), so the exp recurrence of p^{boxplus t}
    at degree d, i S_i = -d sum_j t kappa_j S_{i-j}, is that of kappa(p) with
    the parameter d t.  kappa(p) is computed once; each t is one integer exp
    series, read as plain coefficients by transforms._primitive_plain.
    """
    d, kappa = p.d, cumulants_from_coefficients(p).kappa

    def at(t) -> list:
        return _primitive_plain(_exp_series(kappa, d * t, d)[0], d)

    return at


def boxplus_power(p: MonicPoly, t) -> MonicPoly:
    """Convolution power p^{boxplus t} for rational t > 0.

    Cumulants are additive under boxplus, so the power is defined by
    scaling every cumulant by t; integer t agrees with iterated boxplus.
    """
    t = parse_rational(t)
    if t <= 0:
        raise DomainError("convolution power needs t > 0, got %s" % t)
    f = _power_family(p)(t)
    return MonicPoly.from_plain_coefficients([Fraction(c, f[0]) for c in f])
