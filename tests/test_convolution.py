"""The convolution itself: coefficient formula vs cumulant arithmetic, and
vs the sum over permutations that shares no formula with either."""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

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
    assert boxplus(p, p) == MonicPoly.from_plain_coefficients([1, 0, -2])


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
        summed = CumulantVector(tuple(a + b for a, b in zip(kp.kappa, kq.kappa)))
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


# ---------------------------------------------------------------------------
# the permutation-sum oracle
# ---------------------------------------------------------------------------


def permutation_boxplus(a, b) -> tuple:
    """The signed coefficients of (1/d!) sum_{sigma in S_d} prod_i (x - a_i -
    b_sigma(i)) for rational roots a_i of p and b_i of q: p boxplus q
    (Marcus, Spielman and Srivastava, arXiv:1504.00350).

    A dynamic program over the used subsets of b: e[mask], for the subset
    mask of b's roots paired with a_0..a_{i-1} (i roots in mask), holds the
    elementary symmetric functions of the sums a_j + b_sigma(j), summed over
    those pairings, with every root as an integer over one common
    denominator L, so that a_k is one integer over d! L^k.
    """
    d = len(a)
    L = lcm(*(Fraction(r).denominator for r in (*a, *b)))
    A, B = [int(r * L) for r in a], [int(r * L) for r in b]
    e = [None] * (1 << d)
    e[0] = [1]
    for mask in range(1 << d):  # every subset comes before its supersets
        i, old = mask.bit_count(), e[mask]
        for k in range(d):
            if mask >> k & 1:
                continue
            c, up = A[i] + B[k], mask | 1 << k
            new = [x + c * y for x, y in zip(old + [0], [0] + old)]
            e[up] = new if e[up] is None else [x + y for x, y in zip(e[up], new)]
    return tuple(Fraction(x, factorial(d) * L**k) for k, x in enumerate(e[-1]))


def root_pair(rng, d):
    """Two lists of d k/m roots, drawn with repeats from a few values and 0."""
    def roots():
        pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d // 2 + 1)]
        return [rng.choice(pool + [Fraction(0)]) for _ in range(d)]
    return roots(), roots()


def test_the_permutation_oracle_is_the_sum_over_every_permutation():
    # the subset program against the plain sum over all d! permutations
    rng = random.Random(3401)
    for d in range(1, 6):
        a, b = root_pair(rng, d)
        total = [Fraction(0)] * (d + 1)
        for sigma in permutations(b):
            for k, x in enumerate(MonicPoly.from_roots([x + y for x, y in zip(a, sigma)]).a):
                total[k] += x
        assert permutation_boxplus(a, b) == tuple(x / factorial(d) for x in total), (a, b)


def test_boxplus_is_the_permutation_sum():
    rng = random.Random(3402)
    pairs = [root_pair(rng, d) for d in range(1, 11) for _ in range(3)]
    pairs += [([0] * 4, [Fraction(2, 3)] * 4), ([Fraction(-1, 2)] * 10, [0] * 10)]
    for a, b in pairs:
        got = boxplus(MonicPoly.from_roots(a), MonicPoly.from_roots(b)).a
        assert got == permutation_boxplus(a, b), (a, b)


def test_cumulants_add_on_the_permutation_sum():
    rng = random.Random(3403)
    for d in range(1, 11):
        a, b = root_pair(rng, d)
        kp, kq = (cumulants_from_coefficients(MonicPoly.from_roots(r)).kappa for r in (a, b))
        got = cumulants_from_coefficients(MonicPoly(d, permutation_boxplus(a, b))).kappa
        assert got == tuple(x + y for x, y in zip(kp, kq)), (a, b)
