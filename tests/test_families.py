"""Hermite CLT fixed point, finite free Poisson, rescaled sums: the series
path against the closed forms and the coefficient formula of boxplus."""

import random
from fractions import Fraction
from functools import reduce
from math import factorial, isqrt, perm

import pytest

from finfree import (
    MonicPoly,
    boxplus,
    clt_rescaled_sum,
    coefficients_from_cumulants,
    CumulantVector,
    cumulants_from_coefficients,
    finite_poisson,
    hermite_clt,
    is_real_rooted,
    moments_from_coefficients,
    x_power,
)
from finfree.errors import DomainError


def hermite_expansion(d, variance=1):
    """d^{-d/2} H_d(sqrt(d) x) from the classical sum
    H_d(x) = d! sum_i (-1)^i x^{d-2i} / (i! (d-2i)! 2^i), with the roots
    scaled by sqrt(variance): x^{d-2i} picks up variance^i."""
    plain = [Fraction(0)] * (d + 1)
    for i in range(d // 2 + 1):
        c = Fraction((-1) ** i * factorial(d), factorial(i) * factorial(d - 2 * i) * 2**i)
        plain[2 * i] = c * (Fraction(variance) / d) ** i  # coefficient of x^{d-2i}
    return MonicPoly.from_plain_coefficients(plain)


def laguerre_expansion(lam, d):
    """The finite free Poisson polynomial in closed form, a rescaled Laguerre
    polynomial: a_n = (d)_n (d lam)_n / (d^n n!), d lam a positive integer."""
    dlam = int(lam * d)
    return MonicPoly(d, tuple(Fraction(perm(d, n) * perm(dlam, n), d**n * factorial(n))
                              for n in range(d + 1)))


def test_hermite_small_cases():
    assert hermite_clt(1) == x_power(1)
    assert hermite_clt(2).plain_coefficients() == [1, 0, Fraction(-1, 2)]
    assert hermite_clt(4).a[2] == Fraction(-3, 2)


def test_hermite_matches_classical_expansion():
    for d in [*range(1, 13), 50, 100, 200]:
        assert hermite_clt(d) == hermite_expansion(d)
    for d in [*range(1, 13), 50, 100]:
        assert hermite_clt(d, marcus_scaling=True) == hermite_expansion(d, 1 - Fraction(1, d))


def test_hermite_cumulants():
    for d in range(1, 13):
        k = cumulants_from_coefficients(hermite_clt(d))
        assert k.kappa == tuple(
            Fraction(1) if n == 2 else Fraction(0) for n in range(1, d + 1)
        )


def test_hermite_real_rooted_distinct():
    for d in range(1, 13):
        assert is_real_rooted(hermite_clt(d), require_distinct=True) == "yes"


def test_hermite_marcus_scaling():
    for d in range(2, 9):
        k = cumulants_from_coefficients(hermite_clt(d, marcus_scaling=True))
        assert k.kappa[1] == 1 - Fraction(1, d)
        assert all(v == 0 for i, v in enumerate(k.kappa) if i != 1)
    assert hermite_clt(1, marcus_scaling=True) == x_power(1)


def test_poisson_small_lambda():
    for d in range(1, 9):
        p = finite_poisson(Fraction(1, d), d)
        plain = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (d - 1)
        assert p.plain_coefficients() == plain


def test_poisson_cumulants_and_moments_all_lambda():
    for d in range(1, 11):
        for ell in range(1, d + 1):
            lam = Fraction(ell, d)
            p = finite_poisson(lam, d)
            assert cumulants_from_coefficients(p).kappa == (lam,) * d
    p = finite_poisson(Fraction(1, 4), 4)
    assert moments_from_coefficients(p, 4).entries == (Fraction(1, 4),) * 4


def test_poisson_matches_laguerre_expansion():
    for d in range(1, 41):
        for ell in range(1, d + 1):
            lam = Fraction(ell, d)
            assert finite_poisson(lam, d) == laguerre_expansion(lam, d), (d, ell)
    for lam in (Fraction(1, 100), Fraction(1), Fraction(2)):
        assert finite_poisson(lam, 100) == laguerre_expansion(lam, 100), lam


def test_poisson_trailing_zeros():
    # (d lam)_n = 0 once n > d lam: root at 0 of multiplicity d - d lam
    p = finite_poisson(Fraction(2, 5), 5)
    assert p.a[3] == p.a[4] == p.a[5] == 0
    assert p.a[2] != 0


def test_poisson_lambda_one_d2():
    assert finite_poisson(1, 2).a == (Fraction(1), Fraction(2), Fraction(1, 2))


def test_poisson_rejects_non_integral():
    with pytest.raises(DomainError):
        finite_poisson(Fraction(1, 3), 4)
    with pytest.raises(DomainError):
        finite_poisson(Fraction(-1, 4), 4)


def test_clt_identity_at_n_1():
    p = hermite_clt(5)
    assert clt_rescaled_sum(p, 1) == p


def test_clt_fixed_point():
    for d in (2, 4, 6):
        h = hermite_clt(d)
        for n in (4, 9, 100):
            assert clt_rescaled_sum(h, n) == h


def test_clt_requires_centered():
    p = MonicPoly.from_roots([1, 2])
    with pytest.raises(DomainError):
        clt_rescaled_sum(p, 4)


def test_clt_cumulant_scaling_square_n():
    # perfect square n keeps everything rational: kappa_r -> n^{1-r/2} kappa_r,
    # at d = 5 and d = 60
    rng = random.Random(127)
    for kappa in ([0, 1, Fraction(1, 2), Fraction(-2, 3), Fraction(7)],
                  [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(59)]):
        p = coefficients_from_cumulants(CumulantVector(kappa))
        for n in (4, 25, 100):
            got = cumulants_from_coefficients(clt_rescaled_sum(p, n)).kappa
            # n^{1-r/2} = n / sqrt(n)^r, exact for square n, r even and odd alike
            assert got == tuple(
                v * n / Fraction(isqrt(n)) ** r for r, v in enumerate(kappa, start=1))
        # against three applications of boxplus, the closed coefficient
        # formula, and the dilation by 2
        assert clt_rescaled_sum(p, 4) == reduce(boxplus, [p] * 4).dilate(2)


def test_clt_odd_cumulants_decay_non_square_n():
    # sqrt(n) is irrational for non-square n, and every export stays exact
    k = CumulantVector([0, 1, Fraction(1, 2), Fraction(1, 3)])
    p = coefficients_from_cumulants(k)
    for n in (2, 3, 10):
        with pytest.raises(DomainError):
            clt_rescaled_sum(p, n)


def test_clt_approaches_hermite():
    rng = random.Random(113)
    h4 = hermite_clt(4)
    k = CumulantVector([0, 1, Fraction(rng.randint(1, 5), 7), Fraction(-2, 9)])
    p = coefficients_from_cumulants(k)

    def dist(q):
        return max(abs(float(x - y)) for x, y in zip(q.a, h4.a))

    assert dist(clt_rescaled_sum(p, 10**4)) < dist(clt_rescaled_sum(p, 10**2))
