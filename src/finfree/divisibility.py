"""Infinite divisibility: conditional positive definiteness of cumulant
sequences, the Hermite-uniqueness classification, real-rootedness thresholds
for fractional convolution powers, and the Cramer-failure construction.
Like the families in families.py, p+ of the Cramer pair is built from its
finite free cumulants by transforms.coefficients_from_cumulants.  Shifts,
dilations and the reflection x -> -x act on the roots through
MonicPoly.translate and MonicPoly.dilate, never on the cumulants.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt

from .convolution import _power_family, boxplus
from .errors import DomainError
from .polynomial import MonicPoly, _sturm_counts, is_real_rooted
from .transforms import (
    CumulantVector,
    coefficients_from_cumulants,
    cumulants_from_coefficients,
    rescale_cumulants,
)
from .util import Value, _check_int, parse_rational, parse_rational_array


def _exact_psd(rows) -> bool:
    """Exact PSD test for a symmetric rational matrix: diagonal-pivot
    elimination.  A negative pivot, or a zero pivot with a nonzero row,
    certifies an indefinite direction; otherwise recurse on the Schur
    complement, in which a row with a zero pivot-column entry is the row
    itself less that entry, with no arithmetic (for a zero pivot every row
    is such a row, by symmetry)."""
    while rows:
        piv, top = rows[0][0], rows[0][1:]
        if piv < 0 or piv == 0 and any(top):
            return False
        rows = [[x - row[0] * y / piv for x, y in zip(row[1:], top)] if row[0] else row[1:]
                for row in rows[1:]]
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


class IDReport(Value):
    """centered_normalized (a MonicPoly), the three flags cpd_standard,
    cpd_rescaled and higher_cumulants_zero, and the verdict string."""

    __slots__ = ("centered_normalized", "cpd_standard", "cpd_rescaled",
                 "higher_cumulants_zero", "verdict")

    def to_json(self) -> dict:
        return {
            "centered_normalized": self.centered_normalized.to_json(),
            "cpd_standard": self.cpd_standard,
            "cpd_rescaled": self.cpd_rescaled,
            "higher_cumulants_zero": self.higher_cumulants_zero,
            "verdict": self.verdict,
        }


def _rational_sqrt(q: Fraction):
    """Exact square root of a positive rational, or None."""
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


def real_rooted_threshold(p: MonicPoly, t_max, steps: int = 16):
    """Smallest t found such that p^{boxplus s} has d distinct real roots for
    every sampled s >= t; None if no such t <= t_max shows up.

    Grid: t = 1/16, 1/8, ..., doubling up to t_max.  The least grid point
    from which every point up to t_max passes, and the grid point below it,
    bound one bisection refinement (steps iterations).  kappa(p) is computed
    once; each probe is one integer exp series of t kappa(p), from
    convolution._power_family, and one count of its real roots,
    polynomial._sturm_counts.

    The passing grid points form an up-set, for every p.  Lemma: if p is
    real-rooted and q has d simple real roots, then so has p boxplus q.
    Proof: p boxplus q = P(D) q with P(0) = 1, so p boxplus (q +- eps) =
    (p boxplus q) +- eps.  For small eps, q +- eps still has d simple real
    roots, so p boxplus (q +- eps) is real-rooted (Walsh's theorem, stated
    for boxplus_d by Marcus, Spielman and Srivastava), while a root of
    p boxplus q of multiplicity m >= 2 would split into non-real roots for
    one of the two signs.  P itself need not be real-rooted.  Cumulants add
    under boxplus, so p^{boxplus 2t} = p^{boxplus t} boxplus p^{boxplus t},
    and a pass at t (d simple real roots, so real-rooted) is a pass at 2t,
    the next grid point, whether p is real-rooted or not.

    So one galloping search finds the boundary.  grid[lo] fails and
    grid[hi] passes, starting from the virtual ends -1 and len(grid).  The
    first probe is t = 1; while one end is still virtual, the next probe
    steps out from the other by 1, 2, 4, ... indices, and once both are
    probed, it bisects them.  That takes at most 2 bit_length(len(grid))
    probes, and no grid point is probed twice.
    """
    _check_int(steps, "steps", 0)
    t_max = parse_rational(t_max)
    if all(v == 0 for v in p.a[1:]):
        raise DomainError("x^d is excluded: every convolution power is x^d")
    if t_max <= 0:
        raise DomainError("t_max must be positive")
    grid = [Fraction(2**k, 16) for k in range(floor(16 * t_max).bit_length())]
    power = _power_family(p)

    def ok(t) -> bool:
        return _sturm_counts(power(t))[0] == p.d

    lo, hi = -1, len(grid)  # grid[lo] fails, grid[hi] passes
    mid, step = min(4, len(grid) - 1), 1  # grid[4] is t = 1
    for _ in range(2 * len(grid).bit_length()):
        if ok(grid[mid]):
            hi = mid
        else:
            lo = mid
        if hi - lo == 1:
            break
        if lo < 0:
            mid = max(hi - step, 0)
        elif hi == len(grid):
            mid = min(lo + step, hi - 1)
        else:
            mid = (lo + hi) // 2
        step *= 2
    if hi == len(grid):
        return None
    if hi == 0:
        return grid[0]
    lo, hi = grid[hi - 1], grid[hi]  # ok fails at lo, holds at hi
    for _ in range(steps):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


class CramerPair(Value):
    """The MonicPolys p_plus, p_minus and their convolution, and whether
    each factor is real-rooted."""

    __slots__ = ("p_plus", "p_minus", "convolution", "p_plus_real_rooted",
                 "p_minus_real_rooted")

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
    is_real_rooted call answers for both: at d = 100, its certificate that
    p+ is squarefree and its count by continued-fraction isolation, where
    a Sturm chain took seconds.  The convolution has cumulants
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
    p_plus = coefficients_from_cumulants(CumulantVector(kappa))
    p_minus = p_plus.dilate(-1)
    real = is_real_rooted(p_plus) == "yes"
    return CramerPair(p_plus, p_minus, boxplus(p_plus, p_minus), real, real)
