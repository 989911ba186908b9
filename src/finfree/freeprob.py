"""Free cumulants over non-crossing partitions and d -> infinity diagnostics.

The finite cumulants of degree-d polynomials converge, order by order, to
the free cumulants of the limiting distribution.  convergence_report makes
this quantitative: it takes a target free-cumulant vector, produces the
matching moment sequence over NC(n), and evaluates the exact finite
cumulant of that moment data at each requested d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InputFormatError, SizeCapError
from .partitions import DEFAULT_N_MAX, count_by_type, iter_types
from .polynomial import MomentSequence
from .transforms import cumulant_from_moments
from .util import format_rational, parse_rational


@dataclass(frozen=True)
class FreeCumulantVector:
    """r_1..r_N, the free (d = infinity) cumulants."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) < 1:
            raise InputFormatError("need at least one free cumulant")

    @classmethod
    def make(cls, entries) -> "FreeCumulantVector":
        return cls(tuple(Fraction(x) for x in entries))

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {"r": [format_rational(x) for x in self.entries]}

    @classmethod
    def from_json(cls, obj) -> "FreeCumulantVector":
        try:
            raw = obj["r"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError("free cumulant JSON needs 'r'") from exc
        return cls.make([parse_rational(x) for x in raw])


def _nc_sum(rv, n: int, proper: bool = False) -> Fraction:
    """sum over NC(n) (without 1_n when proper) of r_pi.  Summands depend on
    pi only through its type, so the sum is taken type by type with the
    non-crossing counts."""
    s = Fraction(0)
    for t in iter_types(n):
        if proper and t.num_blocks == 1:
            continue
        prod = Fraction(1)
        for i, ri in enumerate(t.r, start=1):
            if ri:
                prod *= rv[i - 1] ** ri
        if prod:
            s += count_by_type(t, "noncrossing") * prod
    return s


def free_moments_from_free_cumulants(
    r: FreeCumulantVector, N: int, n_max: int = DEFAULT_N_MAX
) -> MomentSequence:
    """m_n = sum over NC(n) of r_pi, n = 1..N."""
    if N > n_max:
        raise SizeCapError(N, n_max)
    # entries past the stored length are zero
    rv = r.entries + (Fraction(0),) * max(0, N - len(r))
    return MomentSequence(tuple(_nc_sum(rv, n) for n in range(1, N + 1)))


def free_cumulants_from_moments(
    m: MomentSequence, N: int, n_max: int = DEFAULT_N_MAX
) -> FreeCumulantVector:
    """Triangular inversion: r_n = m_n - sum over NC(n) \\ {1_n} of r_pi."""
    if N > n_max:
        raise SizeCapError(N, n_max)
    if len(m) < N:
        raise DomainError("need %d moments, got %d" % (N, len(m)))
    rv = []
    for n in range(1, N + 1):
        rv.append(m.entries[n - 1] - _nc_sum(rv, n, proper=True))
    return FreeCumulantVector(tuple(rv))


@dataclass(frozen=True)
class ConvergenceReport:
    """kappa_n at each d against the free target r_n, with exact errors."""

    n: int
    d_values: tuple
    finite_kappa: tuple
    free_kappa: Fraction
    errors: tuple

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "free_kappa": format_rational(self.free_kappa),
            "rows": [
                {
                    "d": d,
                    "finite_kappa": format_rational(k),
                    "error": format_rational(e),
                }
                for d, k, e in zip(self.d_values, self.finite_kappa, self.errors)
            ],
        }


def convergence_report(
    r: FreeCumulantVector, n: int, d_values, n_max: int = DEFAULT_N_MAX
) -> ConvergenceReport:
    """Exact |kappa_n^{(d)} - r_n| for each d.

    d may be large (10^3 and beyond): the cost grows with n, not d.  What
    must hold is d >= n, else the finite cumulant of order n does not exist
    at degree d.
    The free moments are a sum over NC(n), so n is bounded by n_max.
    """
    if n > n_max:
        raise SizeCapError(n, n_max)
    ds = tuple(int(d) for d in d_values)
    for d in ds:
        if d < n:
            raise DomainError("d = %d below the cumulant order n = %d" % (d, n))
    m = free_moments_from_free_cumulants(r, n, n_max=n_max)
    finite = tuple(cumulant_from_moments(m, d, n) for d in ds)
    target = r.entries[n - 1] if n <= len(r) else Fraction(0)
    errors = tuple(abs(k - target) for k in finite)
    return ConvergenceReport(n, ds, finite, target, errors)
