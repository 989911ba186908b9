"""Monte Carlo cross-check machinery: Jacobi matrices, Haar conjugates,
characteristic polynomials, the randomized convolution estimator and its
pass rule."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from finfree import (
    MonicPoly,
    boxplus,
    is_real_rooted,
    x_power,
)
from finfree.errors import DimensionError, DomainError, InputFormatError
from finfree.matrix_oracle import (
    _char_poly_batch,
    _conjugate_batch,
    _jacobi,
    _reflect,
    mc_boxplus,
)
from test_properties import _charpoly


def test_char_poly_examples():
    def char_poly(m):
        return _char_poly_batch(np.array(m, dtype=float)[:, :, None])[:, 0].tolist()

    assert char_poly(np.diag([1.0, -1.0])) == [1.0, 0.0, -1.0]
    assert char_poly(np.zeros((3, 3))) == [1.0, 0.0, 0.0, 0.0]
    got = char_poly(np.diag([1.0, 2.0, 3.0]))
    for g, want in zip(got, (1, 6, 11, 6)):
        assert abs(g - want) < 1e-12


@pytest.mark.parametrize("d", range(1, 13))
def test_jacobi_matrix_has_the_rational_roots_as_eigenvalues(d):
    # roots k/m, every third draw a few of them repeated
    rng = np.random.default_rng(100 + d)
    for _ in range(25):
        roots = [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 10)))
                 for _ in range(d)]
        if rng.integers(3) == 0:
            roots = [roots[int(k)] for k in rng.integers(0, max(1, d // 3), d)]
        j = _jacobi(MonicPoly.from_roots(roots))
        assert np.array_equal(j, j.T) and np.count_nonzero(np.triu(j, 2)) == 0
        want = np.array(sorted(float(r) for r in roots))
        got = np.linalg.eigvalsh(j)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def _times(f, g) -> list:
    """The product of two plain descending coefficient lists."""
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _refusal_sweep_inputs(rng, d) -> list:
    """Degree-d inputs of each class: rational roots with repeats,
    (x^2 + c)^m times rational roots, random rational coefficients, and
    powers of a few roots."""
    def root():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))

    roots = [root() for _ in range(d)]
    repeated = [roots[rng.randrange(max(1, d // 3))] for _ in range(d)]
    m = rng.randint(0, d // 2)
    mixed = [Fraction(1)]
    for r in roots[:d - 2 * m]:
        mixed = _times(mixed, [1, -r])
    for _ in range(m):
        mixed = _times(mixed, [1, 0, Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
    base = [root() for _ in range(rng.choice([b for b in (1, 2, 3) if d % b == 0]))]
    return [MonicPoly.from_roots(repeated), MonicPoly.from_plain_coefficients(mixed),
            MonicPoly.from_plain_coefficients(
                [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]),
            MonicPoly.from_roots(base * (d // len(base)))]


def test_jacobi_refuses_non_real_roots():
    for plain in ([1, 0, 1], [1, 0, 0, 1], [1, -1, 0, 0, 1], [1, 0, 2, 0, 1]):
        with pytest.raises(DomainError):
            _jacobi(MonicPoly.from_plain_coefficients(plain))
    # a seeded sweep: _jacobi refuses exactly what is_real_rooted calls "no",
    # many of them from degree 18 up, where is_real_rooted counts by isolation
    rng = random.Random(44)
    high_refusals = 0
    for d in range(1, 31):
        for p in [x_power(d)] + [q for _ in range(3) for q in _refusal_sweep_inputs(rng, d)]:
            try:
                _jacobi(p)
                refused = False
            except DomainError:
                refused = True
            assert refused == (is_real_rooted(p) == "no"), p.a
            high_refusals += refused and d >= 18
    assert high_refusals >= 20


def reflector_q(seed, count, d):
    """The Q behind _conjugate_batch(default_rng(seed), count, b), formed by
    applying the same reflectors to I as explicit matrices: Q = G_d ... G_2,
    G_m = H_m diag(-sign(x_0), 1, ..., 1) on the trailing m coordinates,
    H_m = I - 2 u u^T / u^T u with u = x + sign(x_0) |x| e_1."""
    g = np.random.default_rng(seed).standard_normal((d * (d + 1) // 2 - 1, count))
    q = np.broadcast_to(np.eye(d), (count, d, d)).copy()
    for m in range(2, d + 1):
        x, g = g[:m].T, g[m:]
        u = x.copy()
        u[:, 0] += np.copysign(np.linalg.norm(x, axis=1), x[:, 0])
        h = np.eye(m) - 2 * u[:, :, None] * u[:, None, :] / np.sum(u * u, axis=1)[:, None, None]
        h[:, :, 0] *= -np.copysign(1.0, x[:, 0])[:, None]
        q[:, d - m:] = h @ q[:, d - m:]
    return q


def tridiagonal(rng, d):
    off = rng.uniform(0.5, 2.0, d - 1) * rng.choice([-1.0, 1.0], d - 1)
    return np.diag(rng.uniform(-2.0, 2.0, d)) + np.diag(off, 1) + np.diag(off, -1)


def test_haar_samples_are_orthogonal():
    for d in range(1, 13):
        q = reflector_q(d, 200, d)
        assert np.max(np.abs(q @ np.swapaxes(q, 1, 2) - np.eye(d))) < 1e-12


def test_haar_d1():
    # the one 1 x 1 conjugate of B is B itself: no reflector, no draw used
    got = _conjugate_batch(np.random.default_rng(11), 64, np.array([[2.5]]))
    assert np.array_equal(got, np.full((1, 1, 64), 2.5))


@pytest.mark.parametrize("d", range(1, 13))
def test_conjugates_are_the_reflector_product(d):
    b = tridiagonal(np.random.default_rng(100 + d), d)
    q = reflector_q(d, 256, d)
    got = _conjugate_batch(np.random.default_rng(d), 256, b)  # (d, d, N): sample last
    want = np.moveaxis(q @ b @ np.swapaxes(q, 1, 2), 0, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("d", [3, 6])
def test_conjugates_have_the_haar_moments(d):
    # E[Q B Q^T] = tr(B)/d I and E[Q_0j^2] = 1/d, each within 5 standard
    # errors; B is far from diagonal, so a Q that is not Haar, such as the
    # product of bare reflectors without the sign flips, biases the mean
    n = 40000
    b = tridiagonal(np.random.default_rng(d), d)
    for got, want in ((_conjugate_batch(np.random.default_rng(7), n, b), np.trace(b) / d * np.eye(d)),
                      (np.moveaxis(reflector_q(7, n, d)[:, :1] ** 2, 0, 2), np.full((1, d), 1 / d))):
        se = got.std(axis=2) / np.sqrt(n)
        assert np.all(np.abs(got.mean(axis=2) - want) <= 5 * se + 1e-12), got.mean(axis=2)


@pytest.mark.parametrize("d", range(1, 13))
def test_batched_char_poly_matches_exact_faddeev_leverrier(d):
    # the exact recurrence runs on the very float entries, as Fractions;
    # beside three random matrices, 0, diag(1..d) and diag(1, -1, 1, ...)
    rng = np.random.default_rng(50 + d)
    q, _ = np.linalg.qr(rng.standard_normal((3, d, d)))
    ra = rng.integers(-4, 5, d).astype(float)
    rb = rng.integers(-4, 5, d).astype(float)
    m = np.concatenate([(q * rb) @ np.swapaxes(q, 1, 2) + np.diag(ra), np.zeros((1, d, d)),
                        np.diag(np.arange(1.0, d + 1))[None], np.diag((-1.0) ** np.arange(d))[None]])
    m = np.moveaxis(m, 0, 2)  # (d, d, N), as the sampler holds it
    # a shift of the argument moves every root: det(xI - (M - I) - I); each
    # call gets its own copy, as the tridiagonalization overwrites it
    for got in (_char_poly_batch(m.copy()), _char_poly_batch(m - np.eye(d)[:, :, None], 1.0)):
        for k in range(m.shape[2]):
            plain = _charpoly([[Fraction(x) for x in row] for row in m[:, :, k].tolist()])
            want = [float((-1) ** i * c) for i, c in enumerate(plain)]
            bound = 1e-9 * max(1.0, max(map(abs, want)))
            assert max(abs(g - w) for g, w in zip(got[:, k], want)) <= bound


@pytest.mark.parametrize("centred", [False, True], ids=["uncentred", "centred"])
@pytest.mark.parametrize("roots", [
    [Fraction(-1, 3)] * 5 + [2] * 4 + [5] * 3,
    [Fraction(k, 7) for k in range(1, 13)],
    list(range(1000, 1006))], ids=["repeated", "sevenths", "offset"])
def test_char_poly_keeps_every_coefficient_to_relative_rounding(roots, centred):
    # the exact Jacobi matrix of p, or of p centred with its mean root as
    # the shift: each a_k within 1e-13 of p's, relative to a_k itself, the
    # small ones beside the large included (a_12 = -8.23 beside a_4 = 1669
    # on the first p)
    p = MonicPoly.from_roots(roots)
    mean = p.a[1] / p.d if centred else 0
    got = _char_poly_batch(_jacobi(p.translate(mean))[:, :, None], float(mean))[:, 0]
    for k, (g, want) in enumerate(zip(got, p.a)):
        assert abs(g - float(want)) <= 1e-13 * abs(float(want)), (k, g, float(want))


def test_reflect_reduces_the_column_it_is_built_from():
    # as in the tridiagonalization: the reflector of column 0 below the
    # diagonal, x, leaves it -sign(x_0) |x| e_1, keeps entry (0, 0) and
    # keeps the eigenvalues
    rng = np.random.default_rng(3)
    for d in range(2, 8):
        a = rng.standard_normal((d, d, 8))
        a += np.swapaxes(a, 0, 1)
        got = a.copy()
        _reflect(got, 1, a[1:, 0].copy())
        want = -np.copysign(np.linalg.norm(a[1:, 0], axis=0), a[1, 0])
        tol = 1e-14 * np.max(np.abs(a))
        assert np.array_equal(got[0, 0], a[0, 0])
        for column in (got[1:, 0], got[0, 1:]):
            assert np.max(np.abs(column[0] - want)) <= tol and np.all(np.abs(column[1:]) <= tol)
        assert np.max(np.abs(np.linalg.eigvalsh(np.moveaxis(got, 2, 0))
                             - np.linalg.eigvalsh(np.moveaxis(a, 2, 0)))) <= 10 * tol


def test_reflect_of_a_zero_vector_is_the_identity():
    # a column that is already reduced, as at a repeated root where beta = 0
    rng = np.random.default_rng(4)
    blk = rng.standard_normal((4, 4, 5))
    blk += np.swapaxes(blk, 0, 1)
    before = blk.copy()
    v = np.zeros((3, 5))
    with np.errstate(divide="raise", invalid="raise"):
        _reflect(blk, 1, v)
    assert np.array_equal(blk, before) and not v.any()


def test_mc_deterministic_given_seed():
    p = MonicPoly.from_roots([1, -1])
    q = MonicPoly.from_roots([2, 0])
    e1 = mc_boxplus(p, q, 2000, seed=7)
    e2 = mc_boxplus(p, q, 2000, seed=7)
    assert e1.coeff_mean == e2.coeff_mean
    assert e1.coeff_stderr == e2.coeff_stderr
    e3 = mc_boxplus(p, q, 2000, seed=8)
    assert e1.coeff_mean != e3.coeff_mean


def test_mc_identity_has_zero_spread():
    # convolving with x^d conjugates a zero matrix: every sample is exact
    p = MonicPoly.from_roots([3, 1, -2])
    est = mc_boxplus(p, x_power(3), 1500, seed=1)
    for mean, se, want in zip(est.coeff_mean, est.coeff_stderr, p.a):
        assert se < 1e-9
        assert abs(mean - float(want)) < 1e-9


@pytest.mark.parametrize("roots", [(7, 7, 7), (3,) * 6, (1, 1, 1, 1, 2, 2), (3,) * 12,
                                   (Fraction(-1, 3),) * 5 + (2,) * 4 + (5,) * 3])
def test_mc_reproduces_repeated_roots_against_x_power(roots):
    # convolving with x^d must give p back; a float root finder spreads a
    # repeated root into a cluster, the Jacobi matrix keeps it exact
    p = MonicPoly.from_roots(list(roots))
    want = [float(a) for a in p.a]
    est = mc_boxplus(p, x_power(p.d), 1000, seed=5)
    scale = max(1.0, max(map(abs, want)))
    assert max(abs(m - w) for m, w in zip(est.coeff_mean, want)) <= 1e-9 * scale


@pytest.mark.parametrize("roots", [(1, 2, 3), (1000, 1001, 1002)])
def test_mc_identical_samples_have_no_spread(roots):
    # every sample is diag(roots); one pass of sum and sum of squares would
    # leave the rounding of their difference, growing with the roots
    p = MonicPoly.from_roots(list(roots))
    est = mc_boxplus(p, x_power(3), 10000, seed=4)
    for se, want in zip(est.coeff_stderr, p.a):
        assert se <= 1e-12 * max(1.0, abs(float(want)))


def test_mc_unbiased_for_semicircle_pair():
    p = MonicPoly.from_roots([1, -1])
    est = mc_boxplus(p, p, 20000, seed=3)
    exact = boxplus(p, p).a
    for mean, se, want in zip(est.coeff_mean, est.coeff_stderr, exact):
        assert abs(mean - float(want)) <= 5 * se + 0.02


def test_mc_symmetric_in_arguments():
    p = MonicPoly.from_roots([2, 0, -1])
    q = MonicPoly.from_roots([1, 1, -3])
    a = mc_boxplus(p, q, 20000, seed=9)
    b = mc_boxplus(q, p, 20000, seed=10)
    for ma, sa, mb, sb in zip(a.coeff_mean, a.coeff_stderr, b.coeff_mean, b.coeff_stderr):
        assert abs(ma - mb) <= 5 * (sa + sb) + 0.02


def test_mc_rejects_bad_requests():
    p = MonicPoly.from_roots([1, -1])
    with pytest.raises(DomainError):
        mc_boxplus(p, p, 999)
    with pytest.raises(DimensionError):
        mc_boxplus(p, MonicPoly.from_roots([1, 2, 3]), 2000)
    complex_rooted = MonicPoly.from_plain_coefficients([1, 0, 1])
    with pytest.raises(DomainError):
        mc_boxplus(p, complex_rooted, 2000)


@pytest.mark.parametrize("d", [4, 8, 12])
def test_mc_agrees_with_boxplus_at_larger_degrees(d):
    rng = np.random.default_rng(d)
    p = MonicPoly.from_roots([Fraction(int(k), 2) for k in rng.integers(-6, 7, d)])
    q = MonicPoly.from_roots([int(k) for k in rng.integers(-3, 4, d)])
    est = mc_boxplus(p, q, 20000, seed=d)
    for mean, se, want in zip(est.coeff_mean, est.coeff_stderr, boxplus(p, q).a):
        assert abs(mean - float(want)) <= 5 * se + 0.02
    assert all(est.passes(boxplus(p, q)))


@pytest.mark.parametrize("degree", [2, 4])
def test_pass_rule_refuses_another_degree(degree):
    # zipping a shorter or longer exact polynomial would compare a prefix
    p = MonicPoly.from_roots([1, -1, 2])
    est = mc_boxplus(p, p, 1000, seed=1)
    with pytest.raises(DimensionError):
        est.passes(MonicPoly.from_roots(range(degree)))


def test_mc_refuses_malformed_arguments():
    p = MonicPoly.from_roots([1, -1])
    for seed in (-1, 1.5, True, "3", np.int64(3)):
        with pytest.raises(InputFormatError):
            mc_boxplus(p, p, 2000, seed=seed)
    for samples in (2000.0, True, "2000"):
        with pytest.raises(InputFormatError):
            mc_boxplus(p, p, samples)


def test_mc_estimate_json():
    p = MonicPoly.from_roots([1, -1])
    est = mc_boxplus(p, p, 1200, seed=2)
    blob = est.to_json()
    assert blob["samples"] == 1200 and blob["seed"] == 2
    assert len(blob["coeff_mean"]) == 3
    assert all(isinstance(v, float) for v in blob["coeff_mean"])
    assert not math.isnan(blob["coeff_stderr"][0])


def test_mc_centring_keeps_the_small_coefficients():
    # a_12 = -8.23 beside a_4 = 1669: each mean within 1e-10 of itself
    p = MonicPoly.from_roots([Fraction(-1, 3)] * 5 + [2] * 4 + [5] * 3)
    est = mc_boxplus(p, x_power(12), 1000)
    for mean, want in zip(est.coeff_mean, p.a):
        assert abs(mean - float(want)) <= 1e-10 * abs(float(want))


def test_pass_rule_has_no_absolute_floor():
    # every coefficient of p boxplus p past a_0 is at most 0.012, so an
    # absolute floor such as 0.02 would let the wrong answer x^3 through
    p = MonicPoly.from_roots([Fraction(k, 1000) for k in (1, 2, 3)])
    est = mc_boxplus(p, p, 100000, seed=0)
    assert all(est.passes(boxplus(p, p)))
    assert not any(est.passes(x_power(3))[1:])


@pytest.mark.parametrize("scale", [Fraction(1, 10**6), 1, 10**6], ids=["1e-6", "1", "1e6"])
@pytest.mark.parametrize("d", [1, 6, 12])
def test_pass_rule_on_zero_spread_pairs(scale, d):
    # (x - c)^d gives cI and x^d the zero matrix, so in each pair every
    # sample has the same characteristic polynomial up to rounding: the
    # rounding term alone must pass the exact answer and catch a relative
    # error of 1e-9 in a_d, at every scale
    c = MonicPoly.from_roots([3 * scale] * d)
    r = MonicPoly.from_roots([k * scale for k in range(d)])
    for p, q in ((c, x_power(d)), (x_power(d), c), (r, x_power(d)), (c, r)):
        est = mc_boxplus(p, q, 1000, seed=d)
        exact = boxplus(p, q)
        assert all(est.passes(exact)), (p, q)
        if exact.a[-1] != 0:
            off = MonicPoly(d, exact.a[:-1] + (exact.a[-1] * (1 + Fraction(1, 10**9)),))
            assert not est.passes(off)[-1], (p, q)


def test_mc_refuses_what_leaves_the_float_range():
    for c in ("-1e400", "-1e-400"):  # a_2 past the largest or below the least float
        big = MonicPoly.from_json({"degree": 2, "a": ["1", "0", c]})
        with pytest.raises(DomainError):
            mc_boxplus(big, big, 1000)
    with pytest.raises(DomainError):
        mc_boxplus(MonicPoly.from_roots([k * 10**30 for k in range(12)]),
                   MonicPoly.from_roots(range(12)), 1000)
    # a_12 is near 1e282 and its square past the float range; sampled
    # divided by R, nothing overflows
    wide = MonicPoly.from_roots([s * k * 10**22 for k in range(1, 7) for s in (1, -1)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        est = mc_boxplus(wide, wide, 1000)
    assert all(math.isfinite(v) for v in est.coeff_mean + est.coeff_stderr)
    assert all(est.passes(boxplus(wide, wide)))
