"""Infinite divisibility: conditional positive definiteness of cumulant
sequences, the Hermite-uniqueness classification, real-rootedness thresholds
for fractional convolution powers, and the Cramer-failure construction.
Like the families in families.py, p+ of the Cramer pair is built from its
finite free cumulants by transforms.coefficients_from_cumulants.  Shifts,
dilations and the reflection x -> -x act on the roots through
MonicPoly.translate and MonicPoly.dilate, never on the cumulants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor, gcd, isqrt, prod

from .convolution import boxplus
from .errors import DomainError, InputFormatError
from .polynomial import (MonicPoly, _primitive, _primitive_form, _sturm_counts,
                         is_real_rooted)
from .transforms import (
    CumulantVector,
    coefficients_from_cumulants,
    cumulants_from_coefficients,
    rescale_cumulants,
)
from .util import _check_int, _is_int, parse_rational, parse_rational_array


def _exact_psd(rows) -> bool:
    """Exact PSD test for a symmetric rational matrix: diagonal-pivot
    elimination.  A negative pivot, or a zero pivot with a nonzero row,
    certifies an indefinite direction; otherwise recurse on the Schur
    complement."""
    m = [list(r) for r in rows]
    while m:
        piv = m[0][0]
        if piv < 0:
            return False
        if piv == 0:
            if any(x != 0 for x in m[0]):
                return False
            m = [row[1:] for row in m[1:]]
            continue
        m = [
            [m[i][j] - m[i][0] * m[0][j] / piv for j in range(1, len(m))]
            for i in range(1, len(m))
        ]
    return True


def is_conditionally_positive_definite(seq) -> bool:
    """Whether the shifted Hankel form of kappa_1..kappa_d is PSD.

    Tests M_{ij} = kappa_{i+j} for 1 <= i, j <= floor(d/2), the largest
    square window a degree-d cumulant vector supports.  Exact: no floats,
    so boundary cases (Hermite) are decided correctly.
    """
    vals = parse_rational_array(seq, "cumulants")
    d = len(vals)
    if d < 2:
        raise DomainError("need at least two cumulants to test, got %d" % d)
    k = d // 2
    rows = [[vals[i + j + 1] for j in range(k)] for i in range(k)]
    return _exact_psd(rows)


@dataclass(frozen=True)
class IDReport:
    centered_normalized: MonicPoly
    cpd_standard: bool
    cpd_rescaled: bool
    higher_cumulants_zero: bool
    verdict: str

    def to_json(self) -> dict:
        return {
            "centered_normalized": self.centered_normalized.to_json(),
            "cpd_standard": self.cpd_standard,
            "cpd_rescaled": self.cpd_rescaled,
            "higher_cumulants_zero": self.higher_cumulants_zero,
            "verdict": self.verdict,
        }


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def infinite_divisibility_report(p: MonicPoly) -> IDReport:
    """Classify a real-rooted polynomial: infinitely divisible iff, after
    centering, every cumulant of order >= 3 vanishes (the Hermite case, or
    x^d when kappa_2 = 0).

    centered_normalized is p shifted by kappa_1 (the mean root), then dilated
    by s = sqrt(kappa_2) when that is rational.  The flags read p's own
    cumulants: kappa_1 never enters the shifted Hankel form kappa_{i+j},
    i, j >= 1, and dividing kappa_n by s^n turns that form H into D H D with
    D = diag(s^-i), a congruence that keeps H PSD or not.  Neither map
    changes whether the higher cumulants vanish.  For d = 1 both
    conditional-positive-definiteness conditions hold vacuously.
    """
    if is_real_rooted(p) == "no":
        raise DomainError("infinite divisibility is defined for real-rooted input")
    k = cumulants_from_coefficients(p)
    q = p.translate(k.kappa[0])
    s = _rational_sqrt(k.kappa[1]) if p.d >= 2 and k.kappa[1] > 0 else None
    if s is not None:
        q = q.dilate(s)
    higher_zero = all(v == 0 for v in k.kappa[2:])
    if p.d >= 2:
        cpd_std = is_conditionally_positive_definite(k.kappa)
        cpd_res = is_conditionally_positive_definite(rescale_cumulants(k).kappa)
    else:
        cpd_std = cpd_res = True
    verdict = "infinitely_divisible" if higher_zero else "not_infinitely_divisible"
    return IDReport(q, cpd_std, cpd_res, higher_zero, verdict)


def _power_family(p: MonicPoly):
    """t -> p^{boxplus t} as a primitive integer polynomial, for rational t > 0.

    S(s) = sum_i c_i s^i / (d)_i, c_i the plain coefficients, multiplies under
    boxplus to order s^d (log S holds the cumulants), so S^t = sum_j binom(t, j)
    (S - 1)^j.  With S - 1 = sigma / F over the integers, the rows [s^i] sigma^j
    (d)_i (d!/j!) F^(d-j), times v^(d-j) u (u - v) ... (u - (j-1) v) and
    summed over j, give a positive multiple of c_i(u/v).
    """
    d, f = p.d, _primitive_form(p)
    F = factorial(d) * f[0]
    sigma = [factorial(d - i) * c if i else 0 for i, c in enumerate(f)]
    sj, cols = [1] + [0] * d, []  # sj = sigma^j, truncated past s^d
    for j in range(d + 1):
        wj = factorial(d) // factorial(j) * F ** (d - j)
        cols.append([c * wj * factorial(d) // factorial(d - i) for i, c in enumerate(sj)])
        sj = [sum(sj[k] * sigma[i - k] for k in range(j, i)) for i in range(d + 1)]
    g = gcd(*(x for col in cols for x in col))
    rows = [[x // g for x in row] for row in zip(*cols)]

    def at(t) -> list:
        u, v = t.as_integer_ratio()
        basis = [prod(u - k * v for k in range(j)) * v ** (d - j) for j in range(d + 1)]
        return _primitive([sum(x * y for x, y in zip(row, basis)) for row in rows])

    return at


def real_rooted_threshold(p: MonicPoly, t_max, steps: int = 16):
    """Smallest t found such that p^{boxplus s} has d distinct real roots for
    every sampled s >= t; None if no such t <= t_max shows up.

    Grid: t = 1/16, 1/8, ..., doubling up to t_max, walked down from the top
    until the first failing point, then one bisection refinement (steps
    iterations) between that point and the grid point above it.  Each probe
    is one _power_family evaluation and its integer Sturm chain.
    """
    if not _is_int(steps) or steps < 0:
        raise InputFormatError("steps must be an integer >= 0, got %.80r" % (steps,))
    t_max = parse_rational(t_max)
    if all(v == 0 for v in p.a[1:]):
        raise DomainError("x^d is excluded: every convolution power is x^d")
    if t_max <= 0:
        raise DomainError("t_max must be positive")
    grid = [Fraction(2**k, 16) for k in range(floor(16 * t_max).bit_length())]
    if not grid:
        return None
    power = _power_family(p)

    def ok(t) -> bool:
        return _sturm_counts(power(t))[0] == p.d

    first = len(grid)  # grid[first:] all pass
    while first > 0 and ok(grid[first - 1]):
        first -= 1
    if first == len(grid):
        return None
    if first == 0:
        return grid[0]
    lo, hi = grid[first - 1], grid[first]  # ok fails at lo, holds at hi
    for _ in range(steps):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class CramerPair:
    p_plus: MonicPoly
    p_minus: MonicPoly
    convolution: MonicPoly
    p_plus_real_rooted: bool
    p_minus_real_rooted: bool

    def to_json(self) -> dict:
        return {
            "p_plus": self.p_plus.to_json(),
            "p_minus": self.p_minus.to_json(),
            "convolution": self.convolution.to_json(),
            "p_plus_real_rooted": self.p_plus_real_rooted,
            "p_minus_real_rooted": self.p_minus_real_rooted,
        }


def cramer_counterexample(d: int, eps) -> CramerPair:
    """p± with cumulants (0, 1, ±eps, 0, ..., 0) and their convolution.

    p- is p+ with its roots negated, dilate(-1), which flips the sign of
    every odd cumulant; negating the roots keeps them real or not, so one
    Sturm test answers for both.  The convolution has cumulants
    (0, 2, 0, ..., 0), a sqrt(2)-dilate of the Hermite polynomial, hence
    real-rooted; for suitable eps > 0 the factors p± themselves are not,
    which is the failure of Cramer's theorem here.  At eps = 0 both factors
    are the Hermite polynomial hermite_clt(d).
    """
    _check_int(d, "degree")
    if d < 3:
        raise DomainError("need d >= 3 to place a third cumulant")
    eps = parse_rational(eps)
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    kappa = (0, 1, eps) + (0,) * (d - 3)
    p_plus = coefficients_from_cumulants(CumulantVector(d, kappa))
    p_minus = p_plus.dilate(-1)
    real = is_real_rooted(p_plus) == "yes"
    return CramerPair(p_plus, p_minus, boxplus(p_plus, p_minus), real, real)
