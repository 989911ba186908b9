"""Transform triangle tests.

The load-bearing checks are cross-path: the series recurrences of the
production path against the paper's lattice sums (finfree.lattice), and
the cumulants against a separate series division written out here.
"""

import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from finfree import (
    CumulantVector,
    MonicPoly,
    SetPartition,
    coefficients_from_cumulants,
    coefficients_from_moments,
    cumulant_from_moments,
    cumulants_from_coefficients,
    cumulants_from_moments,
    enumerate_partitions,
    lattice,
    moments,
    moments_from_coefficients,
    moments_from_cumulants,
    mobius_from_zero,
    rescale_cumulants,
    truncated_r_transform,
    x_power,
)
from finfree.errors import DomainError, InputFormatError, SizeCapError
from finfree.lattice import (
    JOIN_FORM_SIGN,
    block_size_product,
    falling,
    join,
    one_partition,
    p_sigma,
    p_sigma_defining_sum,
    p_sigma_join_form,
    q_sigma,
)
from finfree.util import VarPoly


def rand_poly(rng, d):
    a = [Fraction(1)]
    for _ in range(d):
        a.append(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return MonicPoly(d, tuple(a))


def series_cumulants(p):
    """kappa_n as coefficients of -(1/d) (log S)' with
    S(s) = sum_i (-d)^i a_i s^i / (d)_i, computed by series division.

    Independent derivation: no partitions involved.
    """
    d = p.d
    S = [
        Fraction(-d) ** i * p.a[i] / falling(Fraction(d), i)
        for i in range(d + 1)
    ]
    dS = [i * S[i] for i in range(1, d + 1)]  # S' up to order d-1
    # T = S'/S by long division, T_k = (dS_k - sum_{j<k} T_j S_{k-j}) / S_0
    T = []
    for k in range(d):
        acc = dS[k]
        for j in range(k):
            acc -= T[j] * S[k - j]
        T.append(acc)  # S_0 = 1
    return tuple(-t / d for t in T)


def test_hermite_d2_frozen():
    p = MonicPoly.from_plain_coefficients([1, 0, Fraction(-1, 2)])
    assert cumulants_from_coefficients(p).kappa == (Fraction(0), Fraction(1))


def test_first_two_cumulants_closed_form():
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(2, 9)
        p = rand_poly(rng, d)
        k = cumulants_from_coefficients(p)
        m = moments(p, 2)
        assert k.kappa[0] == m[0]
        assert k.kappa[1] == Fraction(d, d - 1) * (m[1] - m[0] ** 2)


def assert_matches_reference(p):
    """All six directions at p against the lattice sums."""
    d = p.d
    k = cumulants_from_coefficients(p)
    m = moments_from_coefficients(p, d)
    assert k == lattice.cumulants_from_coefficients(p)
    assert m.entries == lattice.moments_from_coefficients(p, d).entries
    assert coefficients_from_cumulants(k) == lattice.coefficients_from_cumulants(k)
    assert coefficients_from_moments(m, d) == lattice.coefficients_from_moments(m, d)
    assert cumulants_from_moments(m, d).kappa == tuple(
        lattice.cumulant_from_moments(m, d, n) for n in range(1, d + 1)
    )
    assert moments_from_cumulants(k, d).entries == tuple(
        lattice.moment_from_cumulants(k, n) for n in range(1, d + 1)
    )


def test_series_equals_lattice_reference():
    rng = random.Random(31)
    for _ in range(12):
        assert_matches_reference(rand_poly(rng, rng.randint(1, 8)))
    assert_matches_reference(rand_poly(rng, 10))


def test_moment_kernel_is_the_p_sigma_formula():
    # m_n = (-1)^n / (d^{n+1} (n-1)!) * sum over sigma in P(n) of
    # d^{|sigma|} mu(0,sigma) kappa_sigma P_sigma(d), written out literally
    rng = random.Random(37)
    for d in (3, 6):
        k = CumulantVector([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in range(d)])
        kap = k.kappa + (Fraction(0),) * 7
        for n in range(1, 8):
            s = sum(
                Fraction(d) ** len(sig.blocks) * mobius_from_zero(sig)
                * prod(kap[len(b) - 1] for b in sig.blocks) * p_sigma(sig)(d)
                for sig in enumerate_partitions(n)
            )
            want = (-1) ** n * s / (Fraction(d) ** (n + 1) * factorial(n - 1))
            assert lattice.moment_from_cumulants(k, n) == want, (d, n)


def test_series_division_third_path():
    rng = random.Random(37)
    for _ in range(25):
        p = rand_poly(rng, rng.randint(1, 9))
        assert cumulants_from_coefficients(p).kappa == series_cumulants(p)


def test_round_trips_all_sides():
    rng = random.Random(41)
    for _ in range(15):
        d = rng.randint(1, 8)
        p = rand_poly(rng, d)
        k = cumulants_from_coefficients(p)
        m = moments_from_coefficients(p, d)
        assert coefficients_from_cumulants(k) == p
        assert coefficients_from_moments(m, d) == p
        assert cumulants_from_moments(m, d) == k
        assert moments_from_cumulants(k, d).entries == m.entries
        # the triangle commutes
        assert moments_from_cumulants(cumulants_from_moments(m, d), d).entries == m.entries


def test_moments_agree_with_newton_path():
    rng = random.Random(43)
    for _ in range(15):
        d = rng.randint(1, 7)
        p = rand_poly(rng, d)
        n = d + rng.randint(0, 4)
        assert lattice.moments_from_coefficients(p, n).entries == moments(p, n).entries


def test_moments_from_cumulants_past_degree():
    # kappa_j = 0 for j > d extends the sum; compare against Newton moments
    rng = random.Random(47)
    for _ in range(10):
        d = rng.randint(1, 6)
        p = rand_poly(rng, d)
        k = cumulants_from_coefficients(p)
        n = d + rng.randint(1, 3)
        assert moments_from_cumulants(k, n).entries == moments(p, n).entries
        assert lattice.moment_from_cumulants(k, n) == moments(p, n)[n - 1]


def test_kernel_large_d():
    # the cost depends on n, not d, so d far above the lattice cap is fine
    m = [Fraction(0), Fraction(1), Fraction(1), Fraction(2)]
    v = cumulant_from_moments(m, 10**6, 4)
    assert abs(v - Fraction(0)) < Fraction(1, 10**5)  # free kappa_4 of these moments is 0
    with pytest.raises(DomainError):
        cumulant_from_moments(m, 3, 4)  # integer d below n
    # too few moments, in the series path and in the lattice reference
    for call in (lambda: cumulant_from_moments([Fraction(1)], 5, 3),
                 lambda: lattice.cumulant_from_moments([Fraction(1)], 5, 3),
                 lambda: lattice.coefficients_from_moments(moments(x_power(3), 1), 3)):
        with pytest.raises(DomainError, match="need 3 moments, got 1"):
            call()


def small_then_d100(rng, count):
    """count random inputs at d <= 7, then one from_roots input at d = 100;
    lazy, so that each input's draws come before the test's own."""
    for _ in range(count):
        yield rand_poly(rng, rng.randint(1, 7))
    yield MonicPoly.from_roots(
        [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(100)])


def test_homogeneity_under_dilation():
    # kappa_n(D_lam p) = kappa_n(p) / lam^n, at small d and at d = 100
    rng = random.Random(53)
    for p in small_then_d100(rng, 20):
        d = p.d
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        kp = cumulants_from_coefficients(p).kappa
        kq = cumulants_from_coefficients(p.dilate(lam)).kappa
        for n in range(1, d + 1):
            assert kq[n - 1] == kp[n - 1] / lam**n


def test_translation_shifts_only_kappa_1():
    rng = random.Random(59)
    for p in small_then_d100(rng, 15):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        kp = cumulants_from_coefficients(p).kappa
        kq = cumulants_from_coefficients(p.translate(c)).kappa
        assert kq[0] == kp[0] - c
        assert kq[1:] == kp[1:]


def test_rescale_toggle():
    rng = random.Random(61)
    p = rand_poly(rng, 6)
    k = cumulants_from_coefficients(p)
    kt = rescale_cumulants(k)
    assert kt.variant == "rescaled"
    for n in range(1, 7):
        assert kt.kappa[n - 1] == falling(Fraction(6), n) / Fraction(6) ** n * k.kappa[n - 1]
    assert rescale_cumulants(kt) == k
    # rescaled input converts transparently
    assert coefficients_from_cumulants(kt) == p


def test_cumulant_vector_json():
    k = CumulantVector(["0", "1", "-2/3"])
    again = CumulantVector.from_json(json.loads(json.dumps(k.to_json())))
    assert again == k
    assert again.variant == "standard"
    with pytest.raises(InputFormatError):
        CumulantVector.from_json({"d": 3, "kappa": [1, 2]})
    assert CumulantVector.from_json({"d": 1, "kappa": ["5"]}) == CumulantVector([5])
    with pytest.raises(InputFormatError):
        CumulantVector([1, 2], variant="other")
    assert CumulantVector.from_json({"d": 3, "kappa": ["0", "1", "-2/3"], "variant": None}) == k
    for bad in ({"d": 3, "kappa": ["0", "1", "-2/3"], "varient": "rescaled"},
                ["0", "1", "-2/3"], "kappa", 5, None):
        with pytest.raises(InputFormatError):
            CumulantVector.from_json(bad)


def test_truncated_r_transform():
    p = MonicPoly.from_plain_coefficients([1, 0, -1])
    r = truncated_r_transform(p)
    assert r.var == "s" and r.coeffs == (Fraction(0), Fraction(2))
    assert truncated_r_transform(x_power(5)).coeffs == ()


def test_size_caps():
    # the lattice reference stops at the partition cap; the series path does not
    rng = random.Random(67)
    p = rand_poly(rng, 13)
    with pytest.raises(SizeCapError):
        lattice.cumulants_from_coefficients(p)
    with pytest.raises(SizeCapError):
        lattice.cumulant_from_moments([Fraction(1)] * 13, 13, 13)
    k = CumulantVector([0, 1, 0, 0])
    with pytest.raises(SizeCapError):
        lattice.moment_from_cumulants(k, 13)
    sigma13 = SetPartition([[1, 2], range(3, 14)])
    with pytest.raises(SizeCapError):
        p_sigma(sigma13)
    with pytest.raises(SizeCapError):
        p_sigma_join_form(sigma13)
    assert cumulants_from_coefficients(p).kappa == series_cumulants(p)


def test_p_sigma_agrees_with_defining_sum():
    for n in range(1, 7):
        for sig in enumerate_partitions(n):
            assert p_sigma(sig).coeffs == p_sigma_defining_sum(sig).coeffs


def test_p_sigma_smallest_cases():
    # P at the two-element lattice: (d)_1^2 1! - (d)_2 1! = d
    s = SetPartition([[1], [2]])
    assert p_sigma(s).coeffs == (Fraction(0), Fraction(1))
    one = SetPartition([[1, 2]])
    assert p_sigma(one).coeffs == (Fraction(0), Fraction(1), Fraction(-1))


def test_join_form_sign():
    assert JOIN_FORM_SIGN == -1
    for n in range(1, 7):
        rhos = enumerate_partitions(n)
        for sig in rhos:
            got = p_sigma_join_form(sig)
            want = p_sigma(sig).scale(JOIN_FORM_SIGN)
            assert got.coeffs == want.coeffs, sig
            # the join form written out with the public join
            coeffs = [0] * (n + 1)
            for rho in rhos:
                if join(rho, sig) == one_partition(n):
                    coeffs[len(rho.blocks)] += mobius_from_zero(rho)
            assert got == VarPoly("d", coeffs), sig


def test_q_sigma_monic_with_expected_degree():
    for n in range(1, 8):
        for sig in enumerate_partitions(n):
            m = len(sig.blocks)
            P = p_sigma(sig)
            assert len(P.coeffs) - 1 == n + 1 - m
            assert P.coeffs[-1] == Fraction(
                (-1) ** m * factorial(n - 1) * block_size_product(sig),
                factorial(n + 1 - m),
            )
            Q = q_sigma(sig)
            assert len(Q.coeffs) - 1 == n + 1 - m and Q.coeffs[-1] == 1
