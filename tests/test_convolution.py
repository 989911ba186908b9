"""The convolution itself: coefficient formula vs cumulant arithmetic."""

import random
from fractions import Fraction

import pytest

from finfree import (
    CumulantVector,
    MonicPoly,
    boxplus,
    boxplus_power,
    coefficients_from_cumulants,
    cumulants_from_coefficients,
    finite_poisson,
    x_power,
)
from finfree.errors import DimensionError, DomainError


def rand_poly(rng, d):
    a = [Fraction(1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)
    ]
    return MonicPoly(d, tuple(a))


def test_basic_example():
    p = MonicPoly.from_plain_coefficients([1, 0, -1])
    assert boxplus(p, p).plain_coefficients() == [Fraction(1), Fraction(0), Fraction(-2)]


def test_x_power_is_identity():
    rng = random.Random(71)
    for _ in range(10):
        d = rng.randint(1, 8)
        p = rand_poly(rng, d)
        assert boxplus(p, x_power(d)) == p
        assert boxplus(x_power(d), p) == p


def test_commutative():
    rng = random.Random(73)
    for _ in range(15):
        d = rng.randint(1, 8)
        p, q = rand_poly(rng, d), rand_poly(rng, d)
        assert boxplus(p, q) == boxplus(q, p)


def test_degree_mismatch():
    with pytest.raises(DimensionError):
        boxplus(x_power(2), x_power(3))


def test_additivity_two_paths():
    """Coefficient-formula convolution vs adding cumulant vectors.

    The two sides share no code: boxplus never touches partitions or the
    series; d = 100 checks the series far past the lattice reference.
    """
    rng = random.Random(79)
    for d in [rng.randint(1, 9) for _ in range(30)] + [100]:
        p, q = rand_poly(rng, d), rand_poly(rng, d)
        direct = boxplus(p, q)
        kp = cumulants_from_coefficients(p)
        kq = cumulants_from_coefficients(q)
        summed = CumulantVector(
            d, tuple(a + b for a, b in zip(kp.kappa, kq.kappa))
        )
        assert direct == coefficients_from_cumulants(summed)


def test_associative():
    rng = random.Random(83)
    for _ in range(10):
        d = rng.randint(1, 6)
        p, q, r = (rand_poly(rng, d) for _ in range(3))
        assert boxplus(boxplus(p, q), r) == boxplus(p, boxplus(q, r))


def test_integer_power_is_iterated_boxplus():
    rng = random.Random(89)
    for _ in range(10):
        d = rng.randint(1, 7)
        p = rand_poly(rng, d)
        assert boxplus_power(p, 1) == p
        assert boxplus_power(p, 2) == boxplus(p, p)
        assert boxplus_power(p, 3) == boxplus(boxplus(p, p), p)


def test_fractional_power_frozen_value():
    # Poiss(1/4,4)^{boxplus 4/3}, the fractional power behind the
    # real-rootedness failure example
    p = finite_poisson(Fraction(1, 4), 4)
    got = boxplus_power(p, Fraction(4, 3))
    want = MonicPoly.from_plain_coefficients(
        [1, Fraction(-4, 3), Fraction(1, 6), Fraction(1, 54), Fraction(5, 2592)]
    )
    assert got == want


def test_power_scales_cumulants():
    rng = random.Random(97)
    for _ in range(10):
        d = rng.randint(1, 7)
        p = rand_poly(rng, d)
        t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        kp = cumulants_from_coefficients(p).kappa
        kt = cumulants_from_coefficients(boxplus_power(p, t)).kappa
        assert kt == tuple(t * v for v in kp)


def test_power_needs_positive_t():
    p = rand_poly(random.Random(101), 3)
    with pytest.raises(DomainError):
        boxplus_power(p, 0)
    with pytest.raises(DomainError):
        boxplus_power(p, Fraction(-1, 2))
