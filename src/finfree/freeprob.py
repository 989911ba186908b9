"""Free cumulants and d -> infinity diagnostics.

The finite cumulants of degree-d polynomials converge, order by order, to
the free cumulants of the limiting distribution.  convergence_report makes
this quantitative: it takes a target free-cumulant vector, produces the
matching moment sequence, and evaluates the exact finite cumulant of that
moment data at each requested d.

Free moments and free cumulants are related by M(z) = 1 + R(z M(z)) with
M(z) = 1 + sum m_n z^n and R(w) = sum r_k w^k; Lagrange inversion gives
m_n = [w^n] (1 + R(w))^{n+1} / (n+1), with the power from the same log/exp
series pair as the finite cumulants: O(n^2) per moment, no cap on n.
The paper's sum over non-crossing partitions is lattice.py's reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InputFormatError
from .polynomial import MomentSequence, _exp_series, _log_derivative
from .transforms import cumulant_from_moments
from .util import _check_int, format_rational, parse_rational_array


@dataclass(frozen=True)
class FreeCumulantVector:
    """r_1..r_N, the free (d = infinity) cumulants."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", parse_rational_array(self.entries, "free cumulants"))
        if len(self.entries) < 1:
            raise InputFormatError("need at least one free cumulant")

    @classmethod
    def make(cls, entries) -> "FreeCumulantVector":
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)


def _lagrange_moment(log, n: int) -> Fraction:
    """[w^n] (1 + R(w))^{n+1} / (n+1) = [w^n] exp((n+1) log(1 + R)) / (n+1),
    from polynomial's log/exp series pair; log is _log_derivative of the
    series 1 + R, and only its first n entries are read."""
    return _exp_series(log, n + 1, n)[n] / (n + 1)


def free_moments_from_free_cumulants(r: FreeCumulantVector, N: int) -> MomentSequence:
    """m_n = sum over NC(n) of r_pi, n = 1..N, by Lagrange inversion."""
    _check_int(N, "N")
    # _log_derivative takes the entries past the stored length as zero
    log = _log_derivative((1, *r.entries[:N]), 1, N)
    return MomentSequence([_lagrange_moment(log, n) for n in range(1, N + 1)])


def free_cumulants_from_moments(m: MomentSequence, N: int) -> FreeCumulantVector:
    """Triangular inversion in L = log(1 + R): L_n enters m_n only as the term
    L_n itself, so L_n = m_n - (m_n with L_n = 0); then 1 + R = exp(L).  The
    log series holds -n L_n, as _log_derivative writes it."""
    _check_int(N, "N")
    if len(m) < N:
        raise DomainError("need %d moments, got %d" % (N, len(m)))
    log = []
    for n in range(1, N + 1):
        log.append(0)
        log[-1] = -n * (m.entries[n - 1] - _lagrange_moment(log, n))
    return FreeCumulantVector(_exp_series(log, 1, N)[1:])


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


def convergence_report(r: FreeCumulantVector, n: int, d_values) -> ConvergenceReport:
    """Exact |kappa_n^{(d)} - r_n| for each d.

    d may be large (10^3 and beyond): the cost grows with n, not d.  What
    must hold is d >= n, else the finite cumulant of order n does not exist
    at degree d.
    """
    _check_int(n, "cumulant order n")
    if n < 1:
        raise InputFormatError("cumulant order n must be >= 1, got %d" % n)
    ds = tuple(d_values)
    for d in ds:
        _check_int(d, "d")
        if d < n:
            raise DomainError("d = %d below the cumulant order n = %d" % (d, n))
    m = free_moments_from_free_cumulants(r, n)
    finite = tuple(cumulant_from_moments(m, d, n) for d in ds)
    target = r.entries[n - 1] if n <= len(r) else Fraction(0)
    errors = tuple(abs(k - target) for k in finite)
    return ConvergenceReport(n, ds, finite, target, errors)
