"""Property tests on inputs drawn by hypothesis.

The series path of finfree.transforms against the lattice sums of
finfree.lattice, the additivity of the cumulants, their homogeneity under
dilation and translation, round trips past the lattice cap, the free series
of finfree.freeprob against the non-crossing enumeration, the domain of
cumulant_from_moments, of the size arguments and of the exact rational
arguments, the Sturm counts against Hermite's criterion, and the error
contract of the command line.  The settings are derandomized and keep no
example database, so every run draws the same examples.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finfree import (
    CumulantVector,
    FreeCumulantVector,
    MomentSequence,
    MonicPoly,
    boxplus,
    boxplus_power,
    clt_rescaled_sum,
    coefficients_from_cumulants,
    coefficients_from_moments,
    convergence_report,
    cramer_counterexample,
    cumulant_from_moments,
    cumulants_from_coefficients,
    cumulants_from_moments,
    enumerate_noncrossing,
    enumerate_partitions,
    finite_poisson,
    free_cumulants_from_moments,
    free_moments_from_free_cumulants,
    hermite_clt,
    is_conditionally_positive_definite,
    is_real_rooted,
    iter_types,
    lattice,
    moments,
    moments_from_coefficients,
    moments_from_cumulants,
    real_rooted_threshold,
    rescale_cumulants,
    x_power,
)
from finfree.cli import main
from finfree.errors import DomainError, InputFormatError
from finfree.matrix_oracle import mc_boxplus
from finfree.polynomial import _distinct_if_real, _primitive_form
from finfree.util import VarPoly

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
@given(polys(), rationals.filter(bool), rationals)
def test_dilation_and_translation(p, lam, c):
    k = cumulants_from_coefficients(p).kappa
    assert cumulants_from_coefficients(p.dilate(lam)).kappa == tuple(
        kn / lam**n for n, kn in enumerate(k, start=1)
    )
    # p(x + c) moves every root by -c: only the mean kappa_1 changes
    assert cumulants_from_coefficients(p.translate(c)).kappa == (k[0] - c,) + k[1:]


@PROPS
@given(st.lists(rationals, min_size=1, max_size=10), st.integers(1, KERNEL_ORDERS))
def test_free_series_equals_nc_enumeration(rv, N):
    r = FreeCumulantVector.make(rv)
    m = free_moments_from_free_cumulants(r, N)
    assert m.entries == lattice.free_moments_from_free_cumulants(r, N)
    assert free_cumulants_from_moments(m, N).entries == (r.entries + (0,) * N)[:N]


@settings(PROPS, max_examples=5)
@given(st.lists(rationals, min_size=40, max_size=40))
def test_free_round_trip_past_the_old_cap(rv):
    r = FreeCumulantVector.make(rv)
    assert free_cumulants_from_moments(free_moments_from_free_cumulants(r, 40), 40) == r


def test_free_poisson_moments_are_catalan():
    # r_n = 1 for every n: the moments are the Catalan numbers, |NC(n)|
    m = free_moments_from_free_cumulants(FreeCumulantVector.make([1] * 40), 40)
    assert m.entries == tuple(comb(2 * n, n) // (n + 1) for n in range(1, 41))


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


_P = MonicPoly.from_roots([1, -1])
_M = MomentSequence(tuple(map(Fraction, (0, 1, 0, 2))))
_R = FreeCumulantVector.make([0, 1])
# (call on a size, an int size it takes, what the refusal calls the size,
# its least value); each size with a least is taken at it, and one without
# has a lower limit that is a rule about the value, with its own error
SIZED = {
    "MonicPoly": (lambda n: MonicPoly(n, (Fraction(1), Fraction(0))), 1, "degree", 1),
    "MomentSequence": (lambda n: MomentSequence((Fraction(1),), n), 1, "degree context d", 1),
    "x_power": (x_power, 1, "degree", 1),
    "hermite_clt": (hermite_clt, 1, "degree", 1),
    "finite_poisson": (lambda n: finite_poisson(1, n), 1, "degree", 1),
    "clt_rescaled_sum": (lambda n: clt_rescaled_sum(_P, n), 1, "n", 1),
    "cramer_counterexample": (
        lambda n: cramer_counterexample(n, Fraction(1, 32)), 4, "degree", None),
    "moments": (lambda n: moments(_P, n), 1, "N", 1),
    "moments_from_cumulants": (
        lambda n: moments_from_cumulants(CumulantVector([0, 1]), n), 1, "N", 1),
    "coefficients_from_moments": (lambda n: coefficients_from_moments(_M, n), 1, "d", 1),
    "cumulants_from_moments": (lambda n: cumulants_from_moments(_M, n), 1, "d", 1),
    "cumulant_from_moments": (
        lambda n: cumulant_from_moments(_M, 3, n), 1, "cumulant order n", 1),
    "free_moments_from_free_cumulants": (
        lambda n: free_moments_from_free_cumulants(_R, n), 1, "N", 1),
    "free_cumulants_from_moments": (lambda n: free_cumulants_from_moments(_M, n), 1, "N", 1),
    "convergence_report": (
        lambda n: convergence_report(_R, n, [10]), 1, "cumulant order n", 1),
    "convergence_report d": (lambda n: convergence_report(_R, 2, [n]), 10, "d", None),
    "iter_types": (lambda n: list(iter_types(n)), 1, "ground-set size", 1),
    "enumerate_partitions": (enumerate_partitions, 1, "ground-set size", 1),
    "enumerate_noncrossing": (enumerate_noncrossing, 1, "ground-set size", 1),
    "zero_partition": (lattice.zero_partition, 1, "ground-set size", 1),
    "one_partition": (lattice.one_partition, 1, "ground-set size", 1),
    "real_rooted_threshold steps": (
        lambda n: real_rooted_threshold(_P, 4, steps=n), 0, "steps", 0),
    "mc_boxplus seed": (lambda n: mc_boxplus(_P, _P, 1000, seed=n), 0, "seed", 0),
    "mc_boxplus samples": (lambda n: mc_boxplus(_P, _P, n), 1000, "samples", None),
}
# a value that is not an int, however integral, and how the refusal shows it
NOT_INTS = [(True, "True"), (2.0, "2.0"), (Fraction(3), "Fraction(3, 1)"), ("3", "'3'")]


@pytest.mark.parametrize("name", sorted(SIZED))
def test_size_arguments_must_be_ints(name):
    # every size passes one gate, util._check_int: a value that is not an
    # int, or one below the least, is refused where it enters with one
    # InputFormatError in one shape, rather than ending in a TypeError or
    # passing through, and a long integer is shortened
    call, n, what, least = SIZED[name]
    call(n)
    bad, bound = NOT_INTS, ""
    if least is not None:
        bad = [*NOT_INTS, (least - 1, str(least - 1)),
               (-10**50, "-10000000000000000000...(51 digits)")]
        bound = " >= %d" % least
    for value, shown in bad:
        with pytest.raises(InputFormatError) as caught:
            call(value)
        assert type(caught.value) is InputFormatError
        assert str(caught.value) == "%s must be an integer%s, got %s" % (what, bound, shown), value


# (call on an exact rational, a value it takes); every rational argument or
# entry passes util.parse_rational, which takes an int, a Fraction or a string
RATIONAL = {
    "MonicPoly": (lambda x: MonicPoly(2, [1, x, 0]), 1),
    "MonicPoly.from_signed": (lambda x: MonicPoly.from_signed([1, x]), 1),
    "MonicPoly.from_plain_coefficients": (
        lambda x: MonicPoly.from_plain_coefficients([1, x]), 1),
    "MonicPoly.from_roots": (lambda x: MonicPoly.from_roots([x, 0]), 1),
    "MonicPoly.dilate": (_P.dilate, 2),
    "MonicPoly.translate": (_P.translate, 1),
    "CumulantVector": (lambda x: CumulantVector([0, x]), 1),
    "MomentSequence": (lambda x: MomentSequence([x]), 1),
    "FreeCumulantVector": (lambda x: FreeCumulantVector([x]), 1),
    "FreeCumulantVector.make": (lambda x: FreeCumulantVector.make([x]), 1),
    "VarPoly": (lambda x: VarPoly("s", [x]), 1),
    "VarPoly.scale": (VarPoly("s", [1, 1]).scale, 2),
    "boxplus_power": (lambda x: boxplus_power(_P, x), 2),
    "finite_poisson": (lambda x: finite_poisson(x, 2), 1),
    "cramer_counterexample": (lambda x: cramer_counterexample(3, x), 1),
    "cumulant_from_moments m": (lambda x: cumulant_from_moments([0, x], 3, 2), 1),
    "cumulant_from_moments d": (lambda x: cumulant_from_moments(_M, x, 2), 3),
    "is_conditionally_positive_definite": (
        lambda x: is_conditionally_positive_definite([0, x]), 1),
    "real_rooted_threshold": (lambda x: real_rooted_threshold(_P, x), 1),
}


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_rational_arguments_pass_one_gate(name):
    # equal rationals give equal results; a float, a bool, a complex number
    # or None is refused where it enters, never converted
    call, v = RATIONAL[name]
    assert call(v) == call(Fraction(v)) == call(str(v))
    for bad in (float(v), True, complex(v), None):
        with pytest.raises(InputFormatError):
            call(bad)


# (build from a sequence of rationals, a sequence it takes)
SEQUENCES = {
    "MonicPoly": (lambda s: MonicPoly(2, s), [1, 0, -1]),
    "CumulantVector": (CumulantVector, [0, 1]),
    "MomentSequence": (MomentSequence, [0, 1]),
    "FreeCumulantVector": (FreeCumulantVector, [0, 1]),
    "VarPoly": (lambda s: VarPoly("s", s), [0, 1]),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_values_compare_and_hash_by_their_entries(name):
    build, seq = SEQUENCES[name]
    values = {build(seq), build(tuple(seq)), build([str(x) for x in seq])}
    assert len(values) == 1


def test_equal_values_from_different_constructors():
    # a list of ints and the elementary symmetric functions of the roots
    assert len({MonicPoly(2, [1, 0, -1]), MonicPoly.from_roots([1, -1])}) == 1
    # trailing zeros are trimmed in the constructor
    assert VarPoly("s", [0, 1, 0]) == VarPoly("s", (0, 1)) != VarPoly("s", [0, 1]).scale(0)


# ---------------------------------------------------------------------------
# Sturm counts against Hermite's criterion
# ---------------------------------------------------------------------------


def _charpoly(h):
    """Coefficients c_0 = 1, c_1, ..., c_n of det(x I - h), highest power
    first, by the Faddeev-LeVerrier recurrence."""
    n = len(h)
    c = [Fraction(1)]
    hm = [[0] * n for _ in range(n)]  # h M_0 with M_0 = 0
    for k in range(1, n + 1):
        m = [[hm[i][j] + (c[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        hm = [[sum(h[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c.append(-sum(hm[i][i] for i in range(n)) / k)
    return c


def _variations(seq):
    signs = [x > 0 for x in seq if x != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def hermite_inertia(p):
    """(positive, negative, rank) of the Hankel matrix of power sums of p.

    By Hermite's theorem, H_ij = p_{i+j}, 0 <= i, j < d, has the number of
    distinct real roots as its signature (positive - negative) and the
    number of distinct roots as its rank; p is real-rooted iff H is PSD.  H is
    symmetric, so its characteristic polynomial is real-rooted and Descartes'
    rule of signs counts its positive and negative roots exactly.  Scaling H
    by a positive integer to clear denominators leaves the inertia alone.
    """
    d = p.d
    m = (Fraction(1),) + moments(p, max(1, 2 * d - 2)).entries
    scale = lcm(*(x.denominator for x in m))
    h = [[int(m[i + j] * scale) for j in range(d)] for i in range(d)]
    c = _charpoly(h)
    positive = _variations(c)
    negative = _variations([x * (-1) ** k for k, x in enumerate(c)])
    zero = next(k for k, x in enumerate(reversed(c)) if x != 0)
    return positive, negative, d - zero


def _times_quadratic(plain, c):
    """Plain coefficients of (descending plain) * (x^2 + c)."""
    out = list(plain) + [Fraction(0), Fraction(0)]
    for i, x in enumerate(plain):
        out[i + 2] += c * x
    return out


small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def factored_polys(draw, min_d=1, max_d=12, quadratics=True):
    """Rational roots, repeats likely, times x^2 + c factors (c < 0 gives a
    real pair, c = 0 a double root at 0, c > 0 a complex pair)."""
    d = draw(st.integers(min_d, max_d))
    cs = draw(st.lists(small, max_size=d // 2 if quadratics else 0))
    n_roots = d - 2 * len(cs)
    roots = draw(st.lists(small, min_size=n_roots, max_size=n_roots))
    a = MonicPoly.from_roots(roots).a if roots else [Fraction(1)]
    plain = [(-1) ** i * x for i, x in enumerate(a)]
    for c in cs:
        plain = _times_quadratic(plain, c)
    return MonicPoly.from_plain_coefficients(plain)


def boxplus_outputs(quadratics):
    return st.integers(1, 12).flatmap(
        lambda d: st.tuples(*(factored_polys(d, d, quadratics) for _ in range(2)))
    ).map(lambda pq: boxplus(*pq))


@settings(PROPS, max_examples=60)
@given(st.one_of(factored_polys(), boxplus_outputs(True), boxplus_outputs(False)))
def test_sturm_agrees_with_hermite(p):
    positive, negative, rank = hermite_inertia(p)
    # the rank of H counts the distinct roots
    assert _distinct_if_real(_primitive_form(p)) == (rank if negative == 0 else None)
    want = "yes" if negative == 0 else "no"  # real-rooted iff H is PSD
    assert is_real_rooted(p) == want
    if want == "yes" and rank < p.d:
        want = "boundary"
    assert is_real_rooted(p, require_distinct=True) == want


def test_boxplus_real_rooted_at_d40():
    rng = random.Random(40)
    p, q = (
        MonicPoly.from_roots([Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(40)])
        for _ in range(2)
    )
    assert is_real_rooted(boxplus(p, q)) == "yes"


# ---------------------------------------------------------------------------
# command-line error contract
# ---------------------------------------------------------------------------

POLY_ARGS = [
    '{"degree": 2, "a": ["1", "0", "-1/2"]}',
    '{"degree": 3, "a": ["1", "0", "1", "0"]}',
    '{"degree": 2, "a": ["2", "0", "0"]}',
    '{"degree": true, "a": ["1", "2"]}',
    '{"degree": 2, "a": [',
    '{"degree": 2, "a": 5}',
    '{"d": 2, "kappa": 7}',
    '{"kappa": ["0", "1"], "d": 2}',
    '{"m": ["0", "1"]}',
    '{"m": "x"}',
    "[]",
    "missing.json",
]
# Every value stays cheap in any combination: degrees past MAX_DEGREE and
# sizes past the caps are refused, and the removed --nmax flag is refused.
INTS = ["-1", "0", "1", "2", "3", "13", "31", "40", "101", "x"]
RATIONALS = INTS + ["1/2", "-1/3", "nan", "1e999999"]
FLAG_VALUES = {
    "--roots": ["1,-1", "0,0,1", "1/2,x", ","],
    "--plain": ["1,0,1", "2,1", "1,0,-1/2"],
    "--t": RATIONALS,
    "--N": INTS,
    "--d": INTS + ["16,32", "5/2"],
    "--n": INTS,
    "--tmax": RATIONALS,
    "--steps": INTS,
    "--eps": RATIONALS,
    "--lambda": RATIONALS,
    "--r": ["0,1,1", "x", "1"],
    "--samples": ["-1", "0", "10", "x"],
    "--nmax": ["-1", "2", "x"],
    "--tol": ["nan", "0", "1e-9", "x"],
    "--seed": ["0", "x", "1.5"],
    "--config": ['{"nmax": 3}', '{"tol": "abc"}', '{"seed": true}', "[]", "missing.json"],
}
SWITCHES = ["--types", "--noncrossing", "--rescaled", "--marcus"]
# The arguments each command needs, before a few random extras: a "poly"
# slot is a positional JSON argument, "poly_in" may also be --roots/--plain.
TEMPLATES = {
    "convolve": ["poly", "poly"],
    "power": ["poly_in", "--t"],
    "cumulants": ["poly_in"],
    "moments": ["poly_in", "--N"],
    "coeffs": ["poly"],
    "rtransform": ["poly_in"],
    "family": ["which", "--d"],
    "converge": ["--r", "--n", "--d"],
    "check-id": ["poly_in"],
    "threshold": ["poly_in", "--tmax"],
    "cramer": ["--d", "--eps"],
    "verify-mc": ["poly", "poly", "--samples"],
    "partitions": ["--n"],
}


def _flag(name):
    return st.sampled_from(FLAG_VALUES[name]).map(lambda v: [name, v])


_poly = st.sampled_from(POLY_ARGS).map(lambda a: [a])
SLOTS = {
    "poly": _poly,
    "poly_in": st.one_of(_poly, _flag("--roots"), _flag("--plain")),
    "which": st.sampled_from(["hermite", "poisson"]).map(lambda a: [a]),
}
# a third of the extras are the setting flags: only verify-mc takes --seed,
# and no command takes --tol, --nmax or --config
extras = st.one_of(
    st.sampled_from(["--nmax", "--tol", "--seed", "--config"]).flatmap(_flag),
    st.sampled_from(SWITCHES).map(lambda a: [a]),
    st.sampled_from(sorted(FLAG_VALUES)).flatmap(_flag),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(TEMPLATES)))
    groups = [draw(SLOTS[slot] if slot in SLOTS else _flag(slot)) for slot in TEMPLATES[command]]
    groups += draw(st.lists(extras, max_size=2))
    return [command] + [a for g in groups for a in g]


@settings(PROPS, max_examples=500)
@given(cli_argv())
def test_cli_failures_are_one_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        json.loads(out)
        assert err == ""
        return
    assert code in (3, 4, 5)
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)  # one object: trailing data would not parse
    assert set(doc) == {"error"} and set(doc["error"]) == {"type", "message"}
