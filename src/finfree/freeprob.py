"""Free cumulants and d -> infinity diagnostics.

The finite cumulants of degree-d polynomials converge, order by order, to
the free cumulants of the limiting distribution.  convergence_report makes
this quantitative: it takes a target free-cumulant vector, produces the
matching moment sequence, and evaluates the exact finite cumulant of that
moment data at each requested d.

Free moments and free cumulants are related by M(z) = 1 + R(z M(z)) with
M(z) = 1 + sum m_n z^n and R(w) = sum r_k w^k.  Lagrange inversion of
w = z M(z) gives m_n = [w^n] (1 + R(w))^{n+1} / (n+1) and, for n >= 2,
r_n = [z^n] M(z)^{1-n} / (1-n), with r_1 = m_1.  Each power comes from the
same log/exp series pair as the finite cumulants: O(n^2) per entry, no cap
on n.  The paper's sum over non-crossing partitions is lattice.py's reference.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputFormatError
from .polynomial import MomentSequence, _exp_series, _log_derivative, _over_lcm
from .transforms import _first_moments, _order_parameter, cumulant_from_moments
from .util import Value, _check_int, _store, format_rational, parse_rational_array


class FreeCumulantVector(Value):
    """r_1..r_N, the free (d = infinity) cumulants."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = parse_rational_array(entries, "free cumulants")
        if len(entries) < 1:
            raise InputFormatError("need at least one free cumulant")
        _store(self, "entries", entries)

    @classmethod
    def make(cls, entries) -> "FreeCumulantVector":
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)


def _lagrange(log, e: int, n: int) -> Fraction:
    """[z^n] F^e / e = [z^n] exp(e log F) / e, from polynomial's log/exp
    series pair; log is _log_derivative of F at d = 1, and only its first n
    entries are read."""
    Snum, DS = _exp_series(log, e, n)
    return Fraction(Snum[n], DS * e)


def free_moments_from_free_cumulants(r: FreeCumulantVector, N: int) -> MomentSequence:
    """m_n = sum over NC(n) of r_pi, n = 1..N, by Lagrange inversion."""
    _check_int(N, "N", 1)
    # _log_derivative takes the entries past the stored length as zero, and
    # 1 + R up to scale, as integers
    log = _log_derivative(_over_lcm((1, *r.entries[:N]))[0], 1, N)
    return MomentSequence([_lagrange(log, n + 1, n) for n in range(1, N + 1)])


def free_cumulants_from_moments(m: MomentSequence, N: int) -> FreeCumulantVector:
    """r_1..r_N from m_1..m_N, the inverse map, by Lagrange inversion."""
    mv = _first_moments(m, N, "N")
    log = _log_derivative(_over_lcm((1, *mv))[0], 1, N)
    r = [_lagrange(log, 1 - n, n) for n in range(2, N + 1)]
    return FreeCumulantVector([mv[0], *r])


class ConvergenceReport(Value):
    """kappa_n at each d against the free target r_n, with exact errors:
    n, d_values, finite_kappa, free_kappa (a Fraction) and errors."""

    __slots__ = ("n", "d_values", "finite_kappa", "free_kappa", "errors")

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
    _check_int(n, "cumulant order n", 1)
    ds = tuple(d_values)
    for d in ds:
        _check_int(d, "d")
        _order_parameter(d, n)
    m = free_moments_from_free_cumulants(r, n)
    finite = tuple(cumulant_from_moments(m, d, n) for d in ds)
    target = r.entries[n - 1] if n <= len(r) else Fraction(0)
    errors = tuple(abs(k - target) for k in finite)
    return ConvergenceReport(n, ds, finite, target, errors)
