"""Free (d to infinity) layer and the convergence diagnostics.

The term-by-term inversion that free_cumulants_from_moments replaced is kept
below, verbatim, as the reference its output must be == to.
"""

import random
from fractions import Fraction

import pytest

from finfree import (
    DEFAULT_N_MAX,
    FreeCumulantVector,
    lattice,
    MomentSequence,
    MonicPoly,
    coefficients_from_moments,
    convergence_report,
    cumulant_from_moments,
    cumulants_from_moments,
    free_cumulants_from_moments,
    free_moments_from_free_cumulants,
    moments,
)
from finfree.errors import DomainError, FinFreeError, InputFormatError, SizeCapError, _digits
from finfree.polynomial import _exp_series
from finfree.util import _check_int


def ref_lagrange_moment(log, n: int) -> Fraction:
    Snum, DS = _exp_series(log, n + 1, n)
    return Fraction(Snum[n], DS * (n + 1))


def ref_free_cumulants_from_moments(m: MomentSequence, N: int) -> FreeCumulantVector:
    """Triangular inversion in L = log(1 + R): L_n enters m_n only as the term
    L_n itself, so L_n = m_n - (m_n with L_n = 0); then 1 + R = exp(L).  The
    log series holds -n L_n, as _log_derivative writes it."""
    _check_int(N, "N", 1)
    if len(m) < N:
        raise DomainError("need %s moments, got %d" % (_digits(N), len(m)))
    log = []
    for n in range(1, N + 1):
        log.append(0)
        log[-1] = -n * (m.entries[n - 1] - ref_lagrange_moment(log, n))
    Snum, DS = _exp_series(log, 1, N)
    return FreeCumulantVector([Fraction(s, DS) for s in Snum[1:]])


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


def _rand_q(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 9))


def test_inversion_matches_the_term_by_term_reference():
    # free laws, root distributions and arbitrary rationals, some of them
    # longer than N
    rng = random.Random(2601)
    for N in range(1, 41):
        r = FreeCumulantVector([_rand_q(rng) for _ in range(rng.randint(1, N))])
        p = MonicPoly.from_roots([_rand_q(rng) for _ in range(12)])
        for m in (free_moments_from_free_cumulants(r, N), moments(p, N),
                  MomentSequence([_rand_q(rng) for _ in range(N + rng.randint(0, 3))])):
            got = free_cumulants_from_moments(m, N).entries
            assert got == ref_free_cumulants_from_moments(m, N).entries, N
            assert all(type(x) is Fraction for x in got), N


# every reader of a moment argument, as (label, reader(m, N), the name its
# size N goes by): a degree d, a cumulant order n at d = 7/2, a count N, and
# the lattice reference's ground-set size
MOMENT_READERS = [
    ("coefficients_from_moments", coefficients_from_moments, "d"),
    ("cumulants_from_moments", cumulants_from_moments, "d"),
    ("cumulant_from_moments", lambda m, n: cumulant_from_moments(m, Fraction(7, 2), n),
     "cumulant order n"),
    ("free_cumulants_from_moments", free_cumulants_from_moments, "N"),
    ("lattice.coefficients_from_moments", lattice.coefficients_from_moments,
     "ground-set size"),
    ("lattice.cumulant_from_moments",
     lambda m, n: lattice.cumulant_from_moments(m, Fraction(7, 2), n), "ground-set size"),
]


def _outcome(call):
    """("value", the value), or the type and message of the FinFreeError."""
    try:
        return "value", call()
    except FinFreeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("N, m, error, message", [
    (3, [1, 2, 3], None, None),
    (2, ["1/2", 0, -3, "7/5"], None, None),
    (0, [1, 2], InputFormatError, "{} must be an integer >= 1, got 0"),
    (-1, [1, 2, 3], InputFormatError, "{} must be an integer >= 1, got -1"),
    (2.0, [1, 2], InputFormatError, "{} must be an integer >= 1, got 2.0"),
    (4, [1, 2, 3], DomainError, "need 4 moments, got 3"),
    (10**50, [1], DomainError, "need 10000000000000000000...(51 digits) moments, got 1"),
], ids=["exact", "more-than-N", "N-zero", "N-negative", "N-float", "too-few", "N-long"])
def test_inversion_refuses_what_the_reference_refuses(N, m, error, message):
    # each moment reader takes a MomentSequence or a plain array with the
    # same value or the same refusal, and the free inversion refuses what
    # its term-by-term reference refuses; the lattice reference checks its
    # partition cap before the moments
    free = _outcome(lambda: free_cumulants_from_moments(MomentSequence(m), N))
    assert _outcome(lambda: ref_free_cumulants_from_moments(MomentSequence(m), N)) == free
    for label, reader, size in MOMENT_READERS:
        got = _outcome(lambda: reader(MomentSequence(m), N))
        assert _outcome(lambda: reader(m, N)) == got, label
        if error is None:
            assert got[0] == "value", (label, got)
        elif label.startswith("lattice.") and N > DEFAULT_N_MAX:
            assert got[0] is SizeCapError, (label, got)
        else:
            assert got == (error, message.format(size)), label


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
    with pytest.raises(DomainError, match=r"^integer d = 3 below the order n = 4$"):
        convergence_report(r, 4, [16, 3])
    with pytest.raises(DomainError, match=r"^integer d = 16 below the order n = "
                                          r"10000000000000000000\.\.\.\(51 digits\)$"):
        convergence_report(r, 10**50, [16])
    # a degree is an int: 7/2 and 10.9 are refused, not truncated, and an
    # integral Fraction, float or string is refused too
    for bad in (Fraction(7, 2), 10.9, Fraction(16), 16.0, "32", True):
        with pytest.raises(InputFormatError):
            convergence_report(r, 3, [bad])
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
    from finfree import enumerate_partitions, mobius_from_zero
    from finfree.lattice import is_noncrossing, multiplicative_extension, p_sigma, q_sigma
    from finfree.util import VarPoly
    from math import factorial

    rng = random.Random(109)
    for n in range(1, 7):
        kap = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        lhs = VarPoly("d", ())
        rhs = VarPoly("d", ())
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
