"""Free (d to infinity) layer and the convergence diagnostics."""

import random
from fractions import Fraction

import pytest

from finfree import (
    FreeCumulantVector,
    lattice,
    MomentSequence,
    convergence_report,
    free_cumulants_from_moments,
    free_moments_from_free_cumulants,
)
from finfree.errors import DomainError, InputFormatError


def test_semicircle_moments_are_catalan():
    r = FreeCumulantVector.make([0, 1])
    m = free_moments_from_free_cumulants(r, 8)
    assert m.entries == (0, 1, 0, 2, 0, 5, 0, 14)


def test_point_mass():
    r = FreeCumulantVector.make([Fraction(3, 2)])
    m = free_moments_from_free_cumulants(r, 5)
    # only the all-singletons partition survives
    assert m.entries == tuple(Fraction(3, 2) ** n for n in range(1, 6))


def test_zero_maps_to_zero():
    r = FreeCumulantVector.make([0, 0, 0])
    assert free_moments_from_free_cumulants(r, 6).entries == (0,) * 6
    m = MomentSequence((Fraction(0),) * 6)
    assert free_cumulants_from_moments(m, 6).entries == (0,) * 6


def test_grouped_equals_noncrossing_enumeration():
    rng = random.Random(103)
    for _ in range(10):
        r = FreeCumulantVector.make(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)]
        )
        a = free_moments_from_free_cumulants(r, 8)
        assert a.entries == lattice.free_moments_from_free_cumulants(r, 8)


def test_inversion_round_trip():
    rng = random.Random(107)
    for _ in range(10):
        r = FreeCumulantVector.make(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(10)]
        )
        m = free_moments_from_free_cumulants(r, 10)
        assert free_cumulants_from_moments(m, 10).entries == r.entries
        assert free_moments_from_free_cumulants(
            free_cumulants_from_moments(m, 10), 10
        ).entries == m.entries


def test_semicircle_inversion():
    m = MomentSequence((Fraction(0), Fraction(1), Fraction(0), Fraction(2)))
    r = free_cumulants_from_moments(m, 4)
    assert r.entries == (0, 1, 0, 0)


def test_short_vectors_pad_with_zeros():
    short = free_moments_from_free_cumulants(FreeCumulantVector.make([0, 1]), 6)
    full = free_moments_from_free_cumulants(
        FreeCumulantVector.make([0, 1, 0, 0, 0, 0]), 6
    )
    assert short.entries == full.entries


def test_convergence_first_order_is_exact():
    r = FreeCumulantVector.make([Fraction(2, 3)])
    rep = convergence_report(r, 1, [4, 64, 1024])
    assert rep.errors == (0, 0, 0)


def test_convergence_second_order_rate():
    # kappa_2^{(d)} = (d/(d-1)) m_2 for centered input, so the error against
    # r_2 = 1 is exactly 1/(d-1)
    r = FreeCumulantVector.make([0, 1])
    rep = convergence_report(r, 2, [16, 32, 64, 128])
    assert rep.finite_kappa == (
        Fraction(16, 15), Fraction(32, 31), Fraction(64, 63), Fraction(128, 127)
    )
    assert rep.errors == (
        Fraction(1, 15), Fraction(1, 31), Fraction(1, 63), Fraction(1, 127)
    )


def test_convergence_monotone_decay():
    r = FreeCumulantVector.make([0, 1, 1, 0])
    rep = convergence_report(r, 4, [8, 16, 32, 64])
    for a, b in zip(rep.errors, rep.errors[1:]):
        assert b < a


def test_convergence_rejects_small_d():
    r = FreeCumulantVector.make([0, 1, 0, 0])
    with pytest.raises(DomainError):
        convergence_report(r, 4, [16, 3])
    # a degree is an integer: 7/2 and 10.9 are refused, not truncated
    for bad in (Fraction(7, 2), 10.9):
        with pytest.raises(InputFormatError):
            convergence_report(r, 3, [bad])
    assert convergence_report(r, 3, [Fraction(16)]).d_values == (16,)
    # the order is not capped here (the command line bounds it)
    assert convergence_report(r, 13, [16]).free_kappa == 0


def test_convergence_rejects_order_below_1():
    r = FreeCumulantVector.make([0, 1])
    for n in (0, -2):
        with pytest.raises(InputFormatError, match="cumulant order"):
            convergence_report(r, n, [16])


def test_nc_collapse_identity():
    """d^{n+1} m_n = sum over NC(n) of Q_sigma(d) d^{|sigma|} kappa_sigma,
    as exact polynomials in d (the mechanism behind the 1/d rate: each
    Q_sigma is monic of degree n+1-|sigma|)."""
    from finfree import (
        enumerate_partitions,
        mobius_from_zero,
        is_noncrossing,
    )
    from finfree.lattice import multiplicative_extension, p_sigma, q_sigma
    from finfree.util import VarPoly
    from math import factorial

    rng = random.Random(109)
    for n in range(1, 7):
        kap = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        lhs = VarPoly.zero("d")
        rhs = VarPoly.zero("d")
        for sig in enumerate_partitions(n):
            kprod = multiplicative_extension(kap, sig)
            mono = VarPoly("d", (Fraction(0),) * len(sig.blocks) + (Fraction(1),))
            lhs = lhs + (mono * p_sigma(sig)).scale(
                Fraction(mobius_from_zero(sig)) * kprod
            )
            if is_noncrossing(sig):
                rhs = rhs + (mono * q_sigma(sig)).scale(kprod)
        lhs = lhs.scale(Fraction((-1) ** n, factorial(n - 1)))
        assert lhs.coeffs == rhs.coeffs
