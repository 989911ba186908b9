"""Seeded input generators shared by the workloads.

Every input is drawn from the random.Random the worker seeds with --seed;
the library only ever sees the generated values.
"""

from __future__ import annotations

from fractions import Fraction

from finfree.polynomial import MonicPoly

HALF_GRID = tuple(Fraction(i, 2) for i in range(-10, 11))


def rand_rational(rng, num=9, den=9) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_poly(rng, d: int) -> MonicPoly:
    """Monic, signed coefficients a_1..a_d drawn as in criterion 01."""
    return MonicPoly.from_signed([1] + [rand_rational(rng) for _ in range(d)])


def distinct_rooted(rng, d: int) -> MonicPoly:
    """d distinct roots from the half-integer grid on [-5, 5] (criterion 11)."""
    return MonicPoly.from_roots(rng.sample(HALF_GRID, d))


def rational_rooted(rng, d: int, num=8, den=3) -> MonicPoly:
    """d rational roots, repeats allowed (criterion 10)."""
    return MonicPoly.from_roots([rand_rational(rng, num, den) for _ in range(d)])


def roots_arg(p_roots) -> str:
    return ",".join(str(r) for r in p_roots)
