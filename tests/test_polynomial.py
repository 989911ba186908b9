"""Exact polynomial layer: constructors, shifts, Newton moments, Sturm."""

import json
import math
import random
from fractions import Fraction

import pytest

from finfree import (
    MomentSequence,
    MonicPoly,
    is_real_rooted,
    moments,
    moments_from_coefficients,
    x_power,
)
from finfree.errors import InputFormatError, NonMonicError
from finfree.polynomial import _distinct_if_real, _from_plain, _primitive_form


def rand_roots(rng, d):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(d)]


def value_at(p, x):
    """p(x): the constant term of p.translate(x), the polynomial p(y + x)."""
    return (-1) ** p.d * p.translate(x).a[-1]


def test_monic_validation():
    with pytest.raises(NonMonicError) as caught:
        MonicPoly(2, (Fraction(2), Fraction(0), Fraction(1)))
    assert str(caught.value) == "leading coefficient a_0 must be exactly 1, got 2"
    with pytest.raises(InputFormatError):
        MonicPoly(2, (Fraction(1), Fraction(0)))
    with pytest.raises(InputFormatError):
        MonicPoly(0, (Fraction(1),))
    with pytest.raises(NonMonicError):
        MonicPoly.from_plain_coefficients([Fraction(3), Fraction(1)])


def test_plain_integer_form_round_trips():
    # the one integer form of the kernels: _primitive_form is primitive with
    # no gcd of its own, _from_plain inverts it and ignores a positive scale
    rng = random.Random(46)
    for d in range(1, 61):
        ps = [MonicPoly.from_signed([1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                           for _ in range(d)]),
              MonicPoly.from_signed([1] + [rng.randint(-9, 9) for _ in range(d)]),
              MonicPoly.from_roots(rand_roots(rng, d)), x_power(d)]
        for p in ps:
            f = _primitive_form(p)
            assert len(f) == d + 1 and all(type(x) is int for x in f), (d, p)
            assert math.gcd(*f) == 1, (d, p)
            assert _from_plain(f) == p, (d, p)
            for scale in (2, 3**40):
                assert _from_plain([scale * x for x in f]) == p, (d, p, scale)


def test_sign_convention():
    # p(x) = sum x^{d-i} (-1)^i a_i, so a alternates against plain coefficients
    p = MonicPoly.from_plain_coefficients([1, -6, 11, -6])
    assert p.a == (Fraction(1), Fraction(6), Fraction(11), Fraction(6))
    assert [(-1) ** i * a for i, a in enumerate(p.a)] == [1, -6, 11, -6]
    q = MonicPoly.from_roots([1, 2, 3])
    assert q == p  # a_i are the elementary symmetric functions of the roots


def test_evaluate():
    p = MonicPoly.from_roots([1, 2, 3])
    assert value_at(p, Fraction(1)) == 0
    assert value_at(p, Fraction(5, 2)) == Fraction(3, 2) * Fraction(1, 2) * Fraction(-1, 2)
    assert value_at(p, 0) == -6


def test_evaluate_at_every_root():
    rng = random.Random(2)
    for _ in range(50):
        rs = rand_roots(rng, rng.randint(1, 7))
        p = MonicPoly.from_roots(rs)
        for r in rs:
            assert value_at(p, r) == 0


def test_dilate_defining_equation():
    # D_lam p(x) = lam^{-d} p(lam x); for x^2 - 1 and lam = 2 this is x^2 - 1/4
    p = MonicPoly.from_plain_coefficients([1, 0, -1])
    q = p.dilate(2)
    assert q == MonicPoly.from_plain_coefficients([1, 0, Fraction(-1, 4)])
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 6)
        pp = MonicPoly.from_roots(rand_roots(rng, d))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        qq = pp.dilate(lam)
        for _ in range(3):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert value_at(qq, x) == value_at(pp, lam * x) / lam**d
    assert p.dilate(0) == x_power(2)


def test_translate():
    p = MonicPoly.from_roots([0, 1])
    # p(x + 1) has roots -1 and 0
    assert p.translate(1) == MonicPoly.from_roots([-1, 0])
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(1, 6)
        rs = rand_roots(rng, d)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert MonicPoly.from_roots(rs).translate(c) == MonicPoly.from_roots(
            [r - c for r in rs]
        )


def test_moments_newton():
    # x^2 - 1 has root set {-1, 1}: even moments 1, odd 0
    p = MonicPoly.from_plain_coefficients([1, 0, -1])
    m = moments(p, 6)
    assert m.entries == (0, 1, 0, 1, 0, 1)
    assert m.degree_context == 2
    # power sums straight from the roots
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 6)
        rs = rand_roots(rng, d)
        m = moments(MonicPoly.from_roots(rs), d + 3)
        for n in range(1, d + 4):
            assert m[n - 1] == sum(r**n for r in rs) / d
    # far past the degree, where each step sums over the d nonzero a_i only
    for _ in range(8):
        d = rng.randint(1, 4)
        rs = rand_roots(rng, d)
        m = moments(MonicPoly.from_roots(rs), 200)
        assert m.entries == tuple(sum(r**n for r in rs) / d for n in range(1, 201))


def test_moment_count_below_one_is_input_error():
    # one fault, one error type, whichever entry point sees it
    p = MonicPoly.from_roots([1, -1])
    for entry in (moments, moments_from_coefficients):
        for N in (0, -1):
            with pytest.raises(InputFormatError):
                entry(p, N)


def test_moment_sequence_json():
    m = MomentSequence((Fraction(1, 2), Fraction(3)), degree_context=2)
    again = MomentSequence.from_json(json.loads(json.dumps(m.to_json())))
    assert again == m
    assert MomentSequence.from_json({"m": ["1/2"]}).degree_context is None
    with pytest.raises(InputFormatError):
        MomentSequence.from_json({})
    assert MomentSequence.from_json({"m": ["1/2"], "d": None}).degree_context is None
    for bad in ({"m": ["1/2"], "extra": 1}, ["1/2"], "m", 5, None):
        with pytest.raises(InputFormatError):
            MomentSequence.from_json(bad)


def test_poly_json_roundtrip():
    p = MonicPoly.from_roots([Fraction(1, 3), Fraction(-2), Fraction(7, 4)])
    assert MonicPoly.from_json(json.loads(json.dumps(p.to_json()))) == p
    with pytest.raises(InputFormatError):
        MonicPoly.from_json({"degree": 2, "a": ["1", "0"]})
    # decimal strings are exact and accepted; float objects are refused
    assert MonicPoly.from_json({"degree": 1, "a": ["1", "0.5"]}).a[1] == Fraction(1, 2)
    with pytest.raises(InputFormatError):
        MonicPoly.from_json({"degree": 1, "a": ["1", 0.5]})
    for bad in ({"degree": 1, "a": ["1", "0"], "roots": ["5"]}, ["1", "0"], "a", 5, None):
        with pytest.raises(InputFormatError):
            MonicPoly.from_json(bad)


def test_distinct_root_count_if_real():
    def count(p):
        return _distinct_if_real(_primitive_form(p))

    assert count(MonicPoly.from_roots([1, 2, 3])) == 3
    assert count(MonicPoly.from_roots([1, 1, 2])) == 2
    assert count(x_power(5)) == 1
    # x^2 + 1
    assert count(MonicPoly.from_plain_coefficients([1, 0, 1])) is None
    # x^4 - 1 = (x^2+1)(x-1)(x+1)
    assert count(MonicPoly.from_plain_coefficients([1, 0, 0, 0, -1])) is None


def test_is_real_rooted_three_answers():
    assert is_real_rooted(MonicPoly.from_roots([0, 1, 2])) == "yes"
    assert is_real_rooted(MonicPoly.from_plain_coefficients([1, 0, 1])) == "no"
    rep = MonicPoly.from_roots([1, 1, 3])
    assert is_real_rooted(rep) == "yes"
    assert is_real_rooted(rep, require_distinct=True) == "boundary"
    assert is_real_rooted(MonicPoly.from_roots([1, 2, 3]), require_distinct=True) == "yes"
    # large d, answers known by construction: a repeated rational root, and
    # the same polynomial times x^2 + 1/3, which has no real roots
    rng = random.Random(19)
    for d in (40, 60):
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d - 1)]
        p = MonicPoly.from_roots(roots + roots[:1])
        assert is_real_rooted(p) == "yes"
        assert is_real_rooted(p, require_distinct=True) == "boundary"
        plain = [(-1) ** i * a for i, a in enumerate(p.a)]
        q = [x + Fraction(y, 3) for x, y in zip(plain + [0, 0], [0, 0] + plain)]
        assert is_real_rooted(MonicPoly.from_plain_coefficients(q)) == "no"
    # (x-2)^2 (x^2+1): repeated real root plus a complex pair stays "no"
    prod_plain = [Fraction(1), Fraction(-4), Fraction(5), Fraction(-4), Fraction(4)]
    assert is_real_rooted(MonicPoly.from_plain_coefficients(prod_plain)) == "no"


def test_real_rooted_random_from_roots():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 8)
        p = MonicPoly.from_roots(rand_roots(rng, d))
        assert is_real_rooted(p) == "yes"

