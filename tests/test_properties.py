"""Property tests on inputs drawn by hypothesis.

The series path of finfree.transforms against the lattice sums of
finfree.lattice, the additivity of the cumulants, round trips past the
lattice cap, and the domain of cumulant_from_moments.  The settings are
derandomized and keep no example database, so every run draws the same
examples.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finfree import (
    MonicPoly,
    boxplus,
    coefficients_from_cumulants,
    coefficients_from_moments,
    cumulant_from_moments,
    cumulants_from_coefficients,
    cumulants_from_moments,
    lattice,
    moment_from_cumulants,
    moments_from_coefficients,
    moments_from_cumulants,
    rescale_cumulants,
)
from finfree.errors import DomainError

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=25)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)

# The reference moment kernel builds P_sigma(d) for every type of P(n);
# past n = 8 that costs seconds, so it is compared up to this order.
KERNEL_ORDERS = 8


@st.composite
def polys(draw, min_d=1, max_d=8):
    d = draw(st.integers(min_d, max_d))
    return MonicPoly(d, (Fraction(1),) + tuple(draw(st.lists(rationals, min_size=d, max_size=d))))


@PROPS
@given(polys(), st.integers(0, 3), st.booleans())
def test_series_equals_lattice_reference(p, extra, rescaled):
    d, N = p.d, p.d + extra
    k = cumulants_from_coefficients(p)
    assert k == lattice.cumulants_from_coefficients(p)
    kin = rescale_cumulants(k) if rescaled else k
    assert coefficients_from_cumulants(kin) == lattice.coefficients_from_cumulants(kin) == p
    m = moments_from_coefficients(p, N)
    assert m.entries == lattice.moments_from_coefficients(p, N).entries
    assert coefficients_from_moments(m, d) == lattice.coefficients_from_moments(m, d) == p
    assert cumulants_from_moments(m, d).kappa == tuple(
        lattice.cumulant_from_moments(m, d, n) for n in range(1, d + 1)
    )
    assert cumulant_from_moments(m, d, d) == lattice.cumulant_from_moments(m, d, d)
    top = min(N, KERNEL_ORDERS)
    assert moments_from_cumulants(kin, top).entries == tuple(
        lattice.moment_from_cumulants(kin, n) for n in range(1, top + 1)
    )
    assert moment_from_cumulants(kin, top) == lattice.moment_from_cumulants(kin, top)


@PROPS
@given(
    st.lists(rationals, min_size=1, max_size=KERNEL_ORDERS),
    st.sampled_from([Fraction(7, 2), Fraction(-5, 3), Fraction(10**6)]),
)
def test_cumulant_from_moments_at_any_d(mv, d):
    n = len(mv)
    assert cumulant_from_moments(mv, d, n) == lattice.cumulant_from_moments(mv, d, n)


@settings(PROPS, max_examples=8)
@given(st.data())
def test_cumulants_add_under_boxplus_past_the_cap(data):
    d = data.draw(st.integers(13, 40))
    p, q = data.draw(polys(d, d)), data.draw(polys(d, d))
    kp = cumulants_from_coefficients(p).kappa
    kq = cumulants_from_coefficients(q).kappa
    assert cumulants_from_coefficients(boxplus(p, q)).kappa == tuple(
        a + b for a, b in zip(kp, kq)
    )


@settings(PROPS, max_examples=3)
@given(polys(50, 50))
def test_round_trips_at_d50(p):
    k = cumulants_from_coefficients(p)
    m = moments_from_coefficients(p, 50)
    assert coefficients_from_cumulants(k) == p
    assert coefficients_from_moments(m, 50) == p
    assert cumulants_from_moments(m, 50) == k
    assert moments_from_cumulants(k, 50).entries == m.entries
    assert coefficients_from_cumulants(rescale_cumulants(k)) == p


@PROPS
@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(-20, n - 1))),
    st.lists(rationals, min_size=12, max_size=12),
)
@example((4, 0), [Fraction(1)] * 12)
@example((1, -1), [Fraction(1)] * 12)
def test_integer_d_below_the_order_is_a_domain_error(nd, mv):
    n, d = nd
    for fn in (cumulant_from_moments, lattice.cumulant_from_moments):
        with pytest.raises(DomainError):
            fn(mv, d, n)
        with pytest.raises(DomainError):
            fn(mv, Fraction(d), n)
