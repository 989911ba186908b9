"""Acceptance gate.

One test per shipping criterion, numbered, so `pytest -v` prints a single
pass/fail line for each.  Tolerances are pinned here: exact assertions mean
Fraction equality, Monte Carlo gets five standard errors plus an absolute
0.02 floor and must also pass the scale-free MCEstimate.passes rule, float
root comparisons get 1e-4, and the criteria with a wall budget assert it at
the end.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np

from finfree import (
    FreeCumulantVector,
    MonicPoly,
    boxplus,
    boxplus_power,
    coefficients_from_cumulants,
    coefficients_from_moments,
    convergence_report,
    count_by_type,
    cumulants_from_coefficients,
    cumulants_from_moments,
    enumerate_partitions,
    finite_poisson,
    hermite_clt,
    infinite_divisibility_report,
    is_conditionally_positive_definite,
    is_real_rooted,
    iter_types,
    moments_from_coefficients,
    moments_from_cumulants,
    real_rooted_threshold,
    rescale_cumulants,
)
from finfree.lattice import (
    JOIN_FORM_SIGN,
    block_size_product,
    falling_poly,
    is_noncrossing,
    p_sigma,
    p_sigma_join_form,
    partition_lattice_charpoly,
    partition_type,
)
from finfree.matrix_oracle import mc_boxplus

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140,
        9: 21147, 10: 115975}
CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430,
           9: 4862, 10: 16796}


def rand_poly(rng, d):
    return MonicPoly.from_signed(
        [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
    )


def test_criterion_01_transform_round_trips():
    """Coefficients, cumulants, and moments determine each other exactly:
    all six conversion directions are mutually inverse on 200 random
    rational polynomials of degree up to 10, within 60 s."""
    start = time.monotonic()
    rng = random.Random(101)
    for trial in range(200):
        d = 2 + trial % 9
        p = rand_poly(rng, d)
        k = cumulants_from_coefficients(p)
        m = moments_from_coefficients(p, d)
        assert coefficients_from_cumulants(k) == p
        assert coefficients_from_moments(m, d) == p
        assert cumulants_from_moments(m, d).kappa == k.kappa
        assert moments_from_cumulants(k, d).entries == m.entries
    assert time.monotonic() - start < 60.0


def test_criterion_02_cumulants_linearize_convolution():
    """kappa_n(p boxplus q) = kappa_n(p) + kappa_n(q) on 100 random pairs,
    with the convolution computed from the coefficient formula alone (it
    never touches the partition machinery), within 30 s."""
    start = time.monotonic()
    rng = random.Random(211)
    for trial in range(100):
        d = 2 + trial % 9
        p, q = rand_poly(rng, d), rand_poly(rng, d)
        left = cumulants_from_coefficients(boxplus(p, q)).kappa
        kp = cumulants_from_coefficients(p).kappa
        kq = cumulants_from_coefficients(q).kappa
        assert left == tuple(a + b for a, b in zip(kp, kq))
    assert time.monotonic() - start < 30.0


def test_criterion_03_monte_carlo_agreement():
    """Randomized conjugation estimates reproduce the exact convolution
    coefficientwise to 5 stderr + 0.02 at 1e5 samples, and under the
    scale-free pass rule that verify-mc prints: the pinned pair
    (x^2-1) boxplus (x^2-1) = x^2-2 and two random real-rooted cubic
    pairs, within 60 s."""
    start = time.monotonic()
    s2 = MonicPoly.from_roots([1, -1])
    assert boxplus(s2, s2) == MonicPoly.from_plain_coefficients([1, 0, -2])
    rng = random.Random(31)
    pairs = [(s2, s2)]
    for _ in range(2):
        pairs.append(
            (
                MonicPoly.from_roots([rng.randint(-4, 4) for _ in range(3)]),
                MonicPoly.from_roots([rng.randint(-4, 4) for _ in range(3)]),
            )
        )
    for i, (p, q) in enumerate(pairs):
        est = mc_boxplus(p, q, 100000, seed=40 + i)
        exact = boxplus(p, q)
        for mean, se, want in zip(est.coeff_mean, est.coeff_stderr, exact.a):
            assert abs(mean - float(want)) <= 5.0 * se + 0.02
        assert all(est.passes(exact))
    assert time.monotonic() - start < 60.0


def test_criterion_04_hermite_is_the_gaussian_analogue():
    """The central-limit fixed point matches the rescaled classical Hermite
    expansion d^{-d/2} H_d(sqrt(d) x) for every degree up to 12, and its
    cumulant vector is exactly (0, 1, 0, ..., 0)."""
    for d in range(1, 13):
        plain = [Fraction(0)] * (d + 1)
        for i in range(d // 2 + 1):
            plain[2 * i] = Fraction(
                (-1) ** i * factorial(d),
                factorial(i) * factorial(d - 2 * i) * 2**i,
            ) / Fraction(d) ** i
        assert hermite_clt(d) == MonicPoly.from_plain_coefficients(plain)
        k = cumulants_from_coefficients(hermite_clt(d))
        assert k.kappa == tuple(
            Fraction(1) if n == 2 else Fraction(0) for n in range(1, d + 1)
        )


def test_criterion_05_poisson_family():
    """finite_poisson(1/d, d) = x^d - x^{d-1} with all d moments and all d
    cumulants equal to 1/d (degrees up to 10); for lambda < 1 the trailing
    coefficients a_n with n > d*lambda vanish."""
    for d in range(1, 11):
        p = finite_poisson(Fraction(1, d), d)
        want = [Fraction(0)] * (d + 1)
        want[0], want[1] = Fraction(1), Fraction(-1)
        assert p == MonicPoly.from_plain_coefficients(want)
        lam = Fraction(1, d)
        assert moments_from_coefficients(p, d).entries == (lam,) * d
        assert cumulants_from_coefficients(p).kappa == (lam,) * d
    p = finite_poisson(Fraction(2, 5), 5)
    assert p.a[1] != 0 and p.a[2] != 0
    assert p.a[3] == p.a[4] == p.a[5] == 0


def test_criterion_06_fractional_power_loses_real_roots():
    """The 4/3 convolution power of finite_poisson(1/4, 4) equals the
    frozen exact polynomial and its numerical roots include a conjugate
    complex pair, matching the pinned values to 1e-4."""
    got = boxplus_power(finite_poisson(Fraction(1, 4), 4), Fraction(4, 3))
    want = MonicPoly.from_plain_coefficients(
        [1, Fraction(-4, 3), Fraction(1, 6), Fraction(1, 54), Fraction(5, 2592)]
    )
    assert got == want
    assert is_real_rooted(got) == "no"
    rts = sorted(
        np.roots([float(c) for c in got.plain_coefficients()]),
        key=lambda z: (z.real, z.imag),
    )
    pinned = sorted(
        [0.250561, 1.17721, -0.0472193 + 0.0656519j, -0.0472193 - 0.0656519j],
        key=lambda z: (z.real, z.imag),
    )
    for z, w in zip(rts, pinned):
        assert abs(z - w) < 1e-4


def test_criterion_07_finite_cumulants_converge_to_free():
    """For random free cumulant vectors (orders 2..6), the exact error
    |kappa_n^{(d)} - r_n| at d = 16, 32, 64, 128 decays like 1/d: each
    doubling shrinks it by at least 0.65, and the endpoint obeys
    err(128) <= 10 * err(16) * 16/128, within 60 s."""
    start = time.monotonic()
    rng = random.Random(1)
    checked = 0
    for _ in range(24):
        n = rng.randint(2, 6)
        r = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        rep = convergence_report(FreeCumulantVector.make(r), n, [16, 32, 64, 128])
        errs = [abs(e) for e in rep.errors]
        if 0 in errs:
            continue
        checked += 1
        for a, b in zip(errs, errs[1:]):
            assert b <= Fraction(65, 100) * a
        assert errs[3] <= 10 * errs[0] * Fraction(16, 128)
    assert checked >= 15
    assert time.monotonic() - start < 60.0


def test_criterion_08_lattice_polynomials():
    """For every set partition with up to 8 elements: P_sigma has degree
    n+1-|sigma| with leading coefficient
    (-1)^{|sigma|} (n-1)! prod(block sizes) / (n+1-|sigma|)!, and the join
    sum over {rho : rho v sigma = 1} of d^{|rho|} mu(0, rho) equals
    -P_sigma(d) as a polynomial; the lattice characteristic polynomial is
    the falling factorial for n up to 10."""
    for n in range(2, 9):
        for sigma in enumerate_partitions(n):
            pol = p_sigma(sigma)
            m = len(sigma.blocks)
            assert len(pol.coeffs) - 1 == n + 1 - m
            assert pol.coeffs[-1] == Fraction(
                (-1) ** m * factorial(n - 1) * block_size_product(sigma),
                factorial(n + 1 - m),
            )
            assert p_sigma_join_form(sigma) == pol.scale(JOIN_FORM_SIGN)
    for n in range(1, 11):
        assert partition_lattice_charpoly(n) == falling_poly(n, var="t")


def test_criterion_09_partition_counts():
    """Type-grouped counts reproduce Bell and Catalan numbers through
    n = 10, and agree with brute-force enumeration through n = 8."""
    for n in range(1, 11):
        types = list(iter_types(n))
        assert sum(count_by_type(t, "all") for t in types) == BELL[n]
        assert sum(count_by_type(t, "noncrossing") for t in types) == CATALAN[n]
    for n in range(1, 9):
        allp = list(enumerate_partitions(n))
        assert len(allp) == BELL[n]
        assert sum(1 for pi in allp if is_noncrossing(pi)) == CATALAN[n]
        by_type = Counter(partition_type(pi) for pi in allp)
        for t in iter_types(n):
            assert by_type[t] == count_by_type(t, "all")


def test_criterion_10_infinite_divisibility():
    """Hermite passes both positivity tests and is certified infinitely
    divisible; rescaled Poisson(1, 4) cumulants (1, 3/4, 3/8, 3/32) fail
    conditional positivity with Hankel minor exactly -9/128; random
    real-rooted polynomials with a nonzero higher cumulant are never
    certified."""
    for d in (2, 5, 9, 12):
        rep = infinite_divisibility_report(hermite_clt(d))
        assert rep.verdict == "infinitely_divisible"
        assert rep.cpd_standard and rep.cpd_rescaled
    kt = rescale_cumulants(cumulants_from_coefficients(finite_poisson(1, 4)))
    assert kt.kappa == (Fraction(1), Fraction(3, 4), Fraction(3, 8), Fraction(3, 32))
    assert kt.kappa[1] * kt.kappa[3] - kt.kappa[2] ** 2 == Fraction(-9, 128)
    assert not is_conditionally_positive_definite(kt.kappa)
    assert (
        infinite_divisibility_report(finite_poisson(1, 4)).verdict
        == "not_infinitely_divisible"
    )
    rng = random.Random(67)
    rejected = 0
    for _ in range(20):
        d = rng.randint(3, 8)
        p = MonicPoly.from_roots(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(d)]
        )
        if any(cumulants_from_coefficients(p).kappa[2:]):
            assert (
                infinite_divisibility_report(p).verdict
                == "not_infinitely_divisible"
            )
            rejected += 1
    assert rejected >= 15


def test_criterion_11_real_rootedness_thresholds():
    """For 20 random real-rooted polynomials (degrees 2..6, distinct
    roots), a finite real-rootedness threshold below 2^20 exists and the
    power at twice the threshold has all roots real and distinct by Sturm
    count, within 120 s."""
    start = time.monotonic()
    rng = random.Random(911)
    grid = [Fraction(i, 2) for i in range(-10, 11)]
    for trial in range(20):
        d = 2 + trial % 5
        p = MonicPoly.from_roots(rng.sample(grid, d))
        t = real_rooted_threshold(p, 2**20)
        assert t is not None and t <= 2**20
        doubled = boxplus_power(p, 2 * t)
        assert is_real_rooted(doubled, require_distinct=True) == "yes"
    assert time.monotonic() - start < 120.0
