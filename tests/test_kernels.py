"""The exact kernels against the Fraction recurrences they replaced.

The log/exp series, its weights and boxplus run as integer dot products over
one lcm.  The recurrences below are their earlier Fraction forms, kept
verbatim as the reference: every output must be == to theirs, entry by
entry of the same type.  The last tests check identities known by
construction at d = 100 and 200 with a map that shares no code with the
kernels: the normalised derivative on plain coefficients.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from finfree import lattice
from finfree.convolution import boxplus
from finfree.errors import DomainError, InputFormatError
from finfree.polynomial import (MomentSequence, MonicPoly, _alternate,
                                _exp_series, _log_derivative, _over_lcm, moments)
from finfree.transforms import (CumulantVector, _standardize,
                                coefficients_from_cumulants,
                                coefficients_from_moments, cumulant_from_moments,
                                cumulants_from_coefficients, cumulants_from_moments)


# ---------------------------------------------------------------------------
# the reference: the Fraction recurrences, verbatim
# ---------------------------------------------------------------------------


def ref_log_derivative(S, d, n: int) -> tuple:
    top = len(S) - 1
    T = []
    for k in range(n):
        lower = sum(
            (T[j] * S[k - j] for j in range(max(0, k - top), k)), Fraction(0)
        )
        T.append(((k + 1) * S[k + 1] if k < top else 0) - lower)
    return tuple(-t / d for t in T)


def ref_exp_series(c, d, n: int) -> list:
    S = [Fraction(1)]
    for i in range(1, n + 1):
        acc = sum((c[j - 1] * S[i - j] for j in range(1, i + 1)), Fraction(0))
        S.append(-d * acc / i)
    return S


def ref_series_weights(d: Fraction, n: int) -> list:
    w = [Fraction(1)]
    for i in range(1, n + 1):
        w.append(w[-1] * -d / (d - i + 1))
    return w


def ref_coefficients_from_cumulants(k: CumulantVector) -> tuple:
    d = k.d
    dq = Fraction(d)
    S = ref_exp_series(_standardize(k), dq, d)
    return tuple(s / w for s, w in zip(S, ref_series_weights(dq, d)))


def ref_cumulants_from_coefficients(p: MonicPoly) -> tuple:
    d = p.d
    dq = Fraction(d)
    S = [w * a for w, a in zip(ref_series_weights(dq, d), p.a)]
    return ref_log_derivative(S, dq, d)


def ref_cumulants_from_moments(mv, d, n: int) -> tuple:
    dq = Fraction(d)
    a = _alternate(ref_exp_series(mv, dq, n))
    return ref_log_derivative([w * x for w, x in zip(ref_series_weights(dq, n), a)], dq, n)


def ref_boxplus(p: MonicPoly, q: MonicPoly) -> tuple:
    d = p.d
    alpha = [factorial(d - i) * a for i, a in enumerate(p.a)]
    beta = [factorial(d - j) * b for j, b in enumerate(q.a)]
    dfac = factorial(d)
    return tuple(
        Fraction(sum(alpha[i] * beta[k - i] for i in range(k + 1)),
                 dfac * factorial(d - k))
        for k in range(d + 1)
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def same(got, want):
    assert got == want
    assert type(got) is type(want)
    assert [type(x) for x in got] == [type(x) for x in want]


def rand_q(rng, top=20, den=9):
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def rand_poly(rng, d):
    return MonicPoly.from_roots([rand_q(rng) for _ in range(d)])


def rational_parameters(rng):
    """A negative and a positive non-integer parameter d, and an integer one."""
    return (Fraction(-7 * rng.randint(0, 4) - rng.randint(1, 6), 7),
            Fraction(2 * rng.randint(-20, 20) + 1, 2),
            rng.randint(1, 40))


# ---------------------------------------------------------------------------
# == to the reference
# ---------------------------------------------------------------------------


def test_over_lcm_takes_ints_and_fractions():
    assert _over_lcm([]) == ([], 1)
    assert _over_lcm([1, -2, 3]) == ([1, -2, 3], 1)
    assert _over_lcm([1, Fraction(1, 6), Fraction(-3, 4)]) == ([12, 2, -9], 12)


def test_log_derivative_matches_the_fraction_recurrence():
    rng = random.Random(2101)
    for length in range(1, 31):
        for d in rational_parameters(rng):
            fracs = [Fraction(1)] + [rand_q(rng) for _ in range(length - 1)]
            ints = [1] + [rng.randint(-9, 9) for _ in range(length - 1)]
            # n below, at and past the series' length
            for n in (max(1, length // 2), length, length + 7):
                same(_log_derivative(fracs, d, n), ref_log_derivative(fracs, d, n))
                same(_log_derivative(ints, d, n), ref_log_derivative(ints, d, n))
                same(_log_derivative(tuple(ints), d, n),
                     ref_log_derivative(tuple(ints), d, n))
    assert _log_derivative([1], 3, 0) == ref_log_derivative([1], 3, 0) == ()


def test_log_derivative_reads_s_up_to_scale():
    # S'/S is invariant under S -> cS, so integers over an implicit
    # denominator give the cumulants of S itself
    rng = random.Random(2102)
    for length in range(1, 16):
        S = [Fraction(1)] + [rand_q(rng) for _ in range(length - 1)]
        num, D = _over_lcm(S)
        for c in (D, -3 * D):
            same(_log_derivative([c // D * x for x in num], Fraction(5, 3), length + 2),
                 ref_log_derivative(S, Fraction(5, 3), length + 2))


def test_exp_series_matches_the_fraction_recurrence():
    rng = random.Random(2103)
    for n in range(0, 31):
        for d in rational_parameters(rng):
            fracs = [rand_q(rng) for _ in range(n + 3)]
            ints = [rng.randint(-9, 9) for _ in range(n)]
            same(_exp_series(fracs, d, n), ref_exp_series(fracs, d, n))
            same(_exp_series(ints, d, n), ref_exp_series(ints, d, n))
            same(_exp_series(tuple(ints), d, n), ref_exp_series(tuple(ints), d, n))


def test_weighted_paths_and_boxplus_match_the_reference():
    rng = random.Random(2104)
    for d in range(1, 31):
        p, q = rand_poly(rng, d), rand_poly(rng, d)
        kappa = cumulants_from_coefficients(p).kappa
        same(kappa, ref_cumulants_from_coefficients(p))
        k = CumulantVector(d, [rand_q(rng, 50, 30) for _ in range(d)])
        same(coefficients_from_cumulants(k).a, ref_coefficients_from_cumulants(k))
        rk = CumulantVector(d, [rand_q(rng) for _ in range(d)], "rescaled")
        same(coefficients_from_cumulants(rk).a, ref_coefficients_from_cumulants(rk))
        same(boxplus(p, q).a, ref_boxplus(p, q))
        # int entries, as the free series passes them
        ints = MonicPoly(d, [1] + [rng.randint(-9, 9) for _ in range(d)])
        same(cumulants_from_coefficients(ints).kappa, ref_cumulants_from_coefficients(ints))
        same(boxplus(ints, p).a, ref_boxplus(ints, p))
        m = moments(p, d + 5)
        same(cumulants_from_moments(m, d).kappa, ref_cumulants_from_moments(m.entries, d, d))
        for n in (1, d, d + 5):
            for dq in rational_parameters(rng)[:2]:
                assert cumulant_from_moments(m, dq, n) == ref_cumulants_from_moments(
                    m.entries, dq, n)[-1]
        mv = [rng.randint(-5, 5) for _ in range(d)]
        assert cumulant_from_moments(mv, Fraction(-7, 3), d) == ref_cumulants_from_moments(
            mv, Fraction(-7, 3), d)[-1]


def test_a_4000_digit_d_matches_the_reference():
    rng = random.Random(2105)
    d = Fraction(10**4000 + 7, 3)
    mv = [rand_q(rng) for _ in range(6)]
    for n in (1, 4, 6):
        assert cumulant_from_moments(mv, d, n) == ref_cumulants_from_moments(mv, d, n)[-1]


def test_domain_errors_are_unchanged():
    m = MomentSequence([1, 2, 3])
    with pytest.raises(DomainError, match=r"^integer d = 2 below the order n = 3$"):
        cumulant_from_moments(m, 2, 3)
    with pytest.raises(DomainError, match=r"^integer d = -4 below the order n = 3$"):
        cumulant_from_moments(m, "-4", 3)
    with pytest.raises(DomainError, match=r"^need 4 moments, got 3$"):
        cumulant_from_moments(m, 9, 4)
    with pytest.raises(DomainError, match=r"^cumulant order must be >= 1, got 0$"):
        cumulant_from_moments(m, 9, 0)
    with pytest.raises(DomainError, match=r"^need 4 moments, got 3$"):
        cumulants_from_moments(m, 4)
    with pytest.raises(DomainError, match=r"^need 4 moments, got 3$"):
        coefficients_from_moments(m, 4)


def test_round_trip_and_boxplus_at_d_200():
    rng = random.Random(2106)
    p, q = rand_poly(rng, 200), rand_poly(rng, 200)
    assert coefficients_from_cumulants(cumulants_from_coefficients(p)) == p
    same(boxplus(p, q).a, ref_boxplus(p, q))


# ---------------------------------------------------------------------------
# large-d identities, checked through the normalised derivative
# ---------------------------------------------------------------------------


def derivative(p: MonicPoly) -> MonicPoly:
    """The normalised derivative p'/d, monic of degree d - 1."""
    return MonicPoly.from_plain_coefficients(
        [c * Fraction(p.d - i, p.d) for i, c in enumerate(p.plain_coefficients()[:-1])])


@pytest.mark.parametrize("d, steps", [(100, (1, 3)), (200, (1, 2))])
def test_cumulants_of_derivatives_scale_by_a_power(d, steps):
    # kappa_n of the k-th normalised derivative is ((d-k)/d)^{n-1} kappa_n(p)
    rng = random.Random(2107 + d)
    p = rand_poly(rng, d)
    kappa = cumulants_from_coefficients(p).kappa
    q, k = p, 0
    for step in steps:
        while k < step:
            q, k = derivative(q), k + 1
        got = cumulants_from_coefficients(q).kappa
        assert got == tuple(Fraction(d - k, d) ** (n - 1) * kappa[n - 1]
                            for n in range(1, d - k + 1))


def test_derivative_commutes_with_boxplus_at_d_100():
    rng = random.Random(2109)
    p, q = rand_poly(rng, 100), rand_poly(rng, 100)
    assert derivative(boxplus(p, q)) == boxplus(derivative(p), derivative(q))


# ---------------------------------------------------------------------------
# the lattice reference reads through the same exact gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, d", [([0.5, 0.25], 3), ([1, 2], 2.5), ((1, True), 3)])
def test_both_cumulant_paths_refuse_a_float_alike(m, d):
    messages = []
    for fn in (cumulant_from_moments, lattice.cumulant_from_moments):
        with pytest.raises(InputFormatError) as err:
            fn(m, d, 2)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_multiplicative_extension_refuses_a_float():
    pi = lattice.one_partition(2)
    assert lattice.multiplicative_extension([1, Fraction(3, 2)], pi) == Fraction(3, 2)
    with pytest.raises(InputFormatError):
        lattice.multiplicative_extension([1.0, 1.5], pi)
