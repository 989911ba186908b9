"""The exact kernels against the Fraction recurrences they replaced.

The log/exp series, its weights, boxplus and the root map from_roots run
as integer sums over one denominator, translate as one integer Taylor shift
of the scaled coefficients, and the Monte Carlo oracle centres and scales
its Jacobi matrices through translate and dilate.
The code below keeps their earlier forms verbatim as the reference: every
output must be == to theirs, entry by entry of the same type, and each
conversion builds one Fraction per entry it returns.  The integer Sturm
chain, whose remainder fuses its two elimination steps, is checked against
its earlier step-by-step form, and its cost in gcds is bounded.  The
squarefree certificate and the continued-fraction isolation that replace
the chain from degree 18 up must give the reference chain's counts, fall
back to it on a repeated root or an unlucky prime, and stay within a
bound on their Taylor shifts.  The last tests check identities known by
construction at d = 100 to 300 with a map that shares no code with the
kernels: the normalised derivative on plain coefficients.
"""

import math
import random
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from finfree import lattice, polynomial
from finfree.convolution import _power_family, boxplus
from finfree.errors import DomainError, InputFormatError
from finfree.freeprob import (FreeCumulantVector, free_cumulants_from_moments,
                              free_moments_from_free_cumulants)
from finfree.lattice import falling
from finfree.matrix_oracle import _jacobi
from finfree.polynomial import (_ELL, _ISOLATION_DEGREE, MomentSequence, MonicPoly,
                                _alternate, _exp_series, _isolated_count,
                                _log_derivative, _over_lcm, _primitive_form,
                                _root_bound, _squarefree_mod, _sturm_chain,
                                _sturm_counts, _taylor_shift, is_real_rooted, moments)
from finfree.transforms import (CumulantVector, _standardize,
                                coefficients_from_cumulants,
                                coefficients_from_moments, cumulant_from_moments,
                                cumulants_from_coefficients, cumulants_from_moments,
                                moments_from_coefficients, moments_from_cumulants,
                                rescale_cumulants)
from finfree.util import parse_rational


# ---------------------------------------------------------------------------
# the reference: the Fraction recurrences, verbatim
# ---------------------------------------------------------------------------


def ref_log_derivative(S, d, n: int) -> tuple:
    top = len(S) - 1
    T = []
    for k in range(n):
        lower = sum(
            (T[j] * S[k - j] for j in range(max(0, k - top), k)), Fraction(0)
        )
        T.append(((k + 1) * S[k + 1] if k < top else 0) - lower)
    return tuple(-t / d for t in T)


def ref_exp_series(c, d, n: int) -> list:
    S = [Fraction(1)]
    for i in range(1, n + 1):
        acc = sum((c[j - 1] * S[i - j] for j in range(1, i + 1)), Fraction(0))
        S.append(-d * acc / i)
    return S


def ref_series_weights(d: Fraction, n: int) -> list:
    w = [Fraction(1)]
    for i in range(1, n + 1):
        w.append(w[-1] * -d / (d - i + 1))
    return w


def ref_coefficients_from_cumulants(k: CumulantVector) -> tuple:
    d = k.d
    dq = Fraction(d)
    S = ref_exp_series(_standardize(k), dq, d)
    return tuple(s / w for s, w in zip(S, ref_series_weights(dq, d)))


def ref_cumulants_from_coefficients(p: MonicPoly) -> tuple:
    d = p.d
    dq = Fraction(d)
    S = [w * a for w, a in zip(ref_series_weights(dq, d), p.a)]
    return ref_log_derivative(S, dq, d)


def ref_cumulants_from_moments(mv, d, n: int) -> tuple:
    dq = Fraction(d)
    a = _alternate(ref_exp_series(mv, dq, n))
    return ref_log_derivative([w * x for w, x in zip(ref_series_weights(dq, n), a)], dq, n)


def ref_moments(a, d: int, N: int) -> tuple:
    return ref_log_derivative([(-1) ** i * x for i, x in enumerate(a)], Fraction(d), N)


def ref_rescale(k: CumulantVector) -> tuple:
    d = k.d
    if k.variant == "standard":
        return tuple(kn * falling(d, n) / Fraction(d) ** n
                     for n, kn in enumerate(k.kappa, start=1))
    return tuple(kt * Fraction(d) ** n / falling(d, n)
                 for n, kt in enumerate(k.kappa, start=1))


def ref_boxplus(p: MonicPoly, q: MonicPoly) -> tuple:
    d = p.d
    alpha = [factorial(d - i) * a for i, a in enumerate(p.a)]
    beta = [factorial(d - j) * b for j, b in enumerate(q.a)]
    dfac = factorial(d)
    return tuple(
        Fraction(sum(alpha[i] * beta[k - i] for i in range(k + 1)),
                 dfac * factorial(d - k))
        for k in range(d + 1)
    )


def ref_from_roots(roots) -> MonicPoly:
    e = [Fraction(1)]
    for r in map(parse_rational, roots):
        new = e + [Fraction(0)]
        for i in range(len(e), 0, -1):
            new[i] += r * e[i - 1]
        e = new
    return MonicPoly(len(e) - 1, e)


def ref_translate(p: MonicPoly, c) -> MonicPoly:
    c = parse_rational(c)
    plain = [(-1) ** i * ai for i, ai in enumerate(p.a)]
    # synthetic Taylor shift: repeated division by (x - (-c))
    out = []
    work = list(plain)
    for _ in range(p.d + 1):
        acc = Fraction(0)
        for i in range(len(work)):
            acc = acc * c + work[i]
            work[i] = acc
        out.append(work.pop())
    out.reverse()
    return MonicPoly(p.d, [(-1) ** i * x for i, x in enumerate(out)])


def ref_primitive(c):
    """c divided by its positive content; signs are kept."""
    g = math.gcd(c[0], c[-1])
    if any(x % g for x in c):  # cheaper than a gcd over every coefficient
        g = math.gcd(g, *c)
    return c if g == 1 else [x // g for x in c]


def ref_remainder(a, b):
    """A positive multiple of the remainder of a by b, descending integers.

    Each step scales a by u > 0 and subtracts a multiple of b, so the sign
    of the Euclidean remainder survives without any Fractions.
    """
    lb, n = b[0], len(b)
    while len(a) >= n:
        la = a[0]
        if la:
            g = math.gcd(la, lb)
            u, v = lb // g, la // g
            if u < 0:
                u, v = -u, -v
            a = [u * x - v * y for x, y in zip(a, b)] + [u * x for x in a[n:]]
        a = a[1:]
    lead = next((i for i, x in enumerate(a) if x), len(a))
    return a[lead:]


def ref_sturm_chain(f) -> list:
    """The Sturm chain of a primitive integer polynomial f (descending).

    f, f', then minus each remainder, all primitive: positive multiples of
    the Euclidean chain, so the signs Sturm's theorem reads are unchanged.
    The last element is gcd(f, f') up to a constant factor.
    """
    chain = [f, ref_primitive([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])]
    while True:
        r = ref_remainder(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-x for x in ref_primitive(r)])


def ref_jacobi(p: MonicPoly, shift=0, scale=1) -> np.ndarray:
    if is_real_rooted(p) == "no":
        raise DomainError("Monte-Carlo oracle needs real-rooted input")
    alpha, beta = [], []
    f = _primitive_form(p)
    while len(f) > 1:
        chain = ref_sturm_chain(f)
        top = [[Fraction(c, s[0]) for c in (s + [0, 0])[1:3]] for s in chain]
        for (s1, s2), (t1, t2) in zip(top, top[1:]):
            alpha.append(t1 - s1)
            beta.append(t2 - alpha[-1] * t1 - s2)
        f = chain[-1]
    off = [math.sqrt(b / scale**2) for b in beta[:-1]]
    diag = [float((a - shift) / scale) for a in alpha]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def same(got, want):
    assert got == want
    assert type(got) is type(want)
    assert [type(x) for x in got] == [type(x) for x in want]


def rand_q(rng, top=20, den=9):
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def rand_poly(rng, d):
    return MonicPoly.from_roots([rand_q(rng) for _ in range(d)])


def rational_parameters(rng):
    """A negative and a positive non-integer parameter d, and an integer one."""
    return (Fraction(-7 * rng.randint(0, 4) - rng.randint(1, 6), 7),
            Fraction(2 * rng.randint(-20, 20) + 1, 2),
            rng.randint(1, 40))


# ---------------------------------------------------------------------------
# == to the reference
# ---------------------------------------------------------------------------


def test_over_lcm_takes_ints_and_fractions():
    assert _over_lcm([]) == ([], 1)
    assert _over_lcm([1, -2, 3]) == ([1, -2, 3], 1)
    assert _over_lcm([1, Fraction(1, 6), Fraction(-3, 4)]) == ([12, 2, -9], 12)


def test_log_derivative_matches_the_fraction_recurrence():
    rng = random.Random(2101)
    for length in range(1, 31):
        for d in rational_parameters(rng):
            fracs = [Fraction(1)] + [rand_q(rng) for _ in range(length - 1)]
            ints = [1] + [rng.randint(-9, 9) for _ in range(length - 1)]
            # n below, at and past the series' length
            for n in (max(1, length // 2), length, length + 7):
                same(_log_derivative(_over_lcm(fracs)[0], d, n),
                     ref_log_derivative(fracs, d, n))
                same(_log_derivative(ints, d, n), ref_log_derivative(ints, d, n))
                same(_log_derivative(tuple(ints), d, n),
                     ref_log_derivative(tuple(ints), d, n))
    assert _log_derivative([1], 3, 0) == ref_log_derivative([1], 3, 0) == ()


def test_log_derivative_reads_s_up_to_scale():
    # S'/S is invariant under S -> cS, so integers over an implicit
    # denominator give the cumulants of S itself
    rng = random.Random(2102)
    for length in range(1, 16):
        S = [Fraction(1)] + [rand_q(rng) for _ in range(length - 1)]
        num, D = _over_lcm(S)
        for c in (D, -3 * D):
            same(_log_derivative([c // D * x for x in num], Fraction(5, 3), length + 2),
                 ref_log_derivative(S, Fraction(5, 3), length + 2))


def test_exp_series_matches_the_fraction_recurrence():
    def exp_values(c, d, n):
        # S_i = Snum_i / DS, with DS the lcm of the reduced denominators
        Snum, DS = _exp_series(c, d, n)
        S = [Fraction(s, DS) for s in Snum]
        assert DS == math.lcm(*(x.denominator for x in S))
        return S

    rng = random.Random(2103)
    for n in range(0, 31):
        for d in rational_parameters(rng):
            fracs = [rand_q(rng) for _ in range(n + 3)]
            ints = [rng.randint(-9, 9) for _ in range(n)]
            same(exp_values(fracs, d, n), ref_exp_series(fracs, d, n))
            same(exp_values(ints, d, n), ref_exp_series(ints, d, n))
            same(exp_values(tuple(ints), d, n), ref_exp_series(tuple(ints), d, n))


def test_weighted_paths_and_boxplus_match_the_reference():
    rng = random.Random(2104)
    for d in range(1, 31):
        p, q = rand_poly(rng, d), rand_poly(rng, d)
        kappa = cumulants_from_coefficients(p).kappa
        same(kappa, ref_cumulants_from_coefficients(p))
        k = CumulantVector([rand_q(rng, 50, 30) for _ in range(d)])
        same(coefficients_from_cumulants(k).a, ref_coefficients_from_cumulants(k))
        rk = CumulantVector([rand_q(rng) for _ in range(d)], "rescaled")
        same(coefficients_from_cumulants(rk).a, ref_coefficients_from_cumulants(rk))
        same(rescale_cumulants(k).kappa, ref_rescale(k))
        same(rescale_cumulants(rk).kappa, ref_rescale(rk))
        for N in (1, d, d + 5):
            same(moments(p, N).entries, ref_moments(p.a, d, N))
            same(moments_from_cumulants(rk, N).entries,
                 ref_moments(ref_coefficients_from_cumulants(rk), d, N))
        same(boxplus(p, q).a, ref_boxplus(p, q))
        # int entries, as the free series passes them
        ints = MonicPoly(d, [1] + [rng.randint(-9, 9) for _ in range(d)])
        same(cumulants_from_coefficients(ints).kappa, ref_cumulants_from_coefficients(ints))
        same(boxplus(ints, p).a, ref_boxplus(ints, p))
        m = moments(p, d + 5)
        same(cumulants_from_moments(m, d).kappa, ref_cumulants_from_moments(m.entries, d, d))
        for n in (1, d, d + 5):
            for dq in rational_parameters(rng)[:2]:
                assert cumulant_from_moments(m, dq, n) == ref_cumulants_from_moments(
                    m.entries, dq, n)[-1]
        mv = [rng.randint(-5, 5) for _ in range(d)]
        assert cumulant_from_moments(mv, Fraction(-7, 3), d) == ref_cumulants_from_moments(
            mv, Fraction(-7, 3), d)[-1]


def fractions_built(call) -> int:
    """How many times Fraction.__new__ runs during call()."""
    code, built = Fraction.__new__.__code__, [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built[0] += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return built[0]


def test_each_direction_builds_one_fraction_per_output_entry():
    # the series stay in integers; a Fraction is built only for a value a
    # public function returns
    rng = random.Random(2501)
    d, N, n, dq = 10, 13, 8, Fraction(-7, 3)
    p = rand_poly(rng, d)
    k = CumulantVector([rand_q(rng) for _ in range(d)])
    kt = rescale_cumulants(k)
    m = moments(p, N)
    ints = [rng.randint(-9, 9) for _ in range(d)]
    r = FreeCumulantVector([Fraction(1, 3), 2, Fraction(-1, 5)])
    bounds = [
        (lambda: cumulants_from_coefficients(p), d),
        (lambda: moments_from_coefficients(p, N), N),
        (lambda: coefficients_from_cumulants(k), d + 1),
        (lambda: coefficients_from_moments(m, d), d + 1),
        (lambda: cumulants_from_moments(m, d), d),
        (lambda: moments_from_cumulants(k, N), N),
        # at a non-integer parameter the series runs to order n and builds
        # its n entries; the kernels themselves build only the log's
        (lambda: cumulant_from_moments(m, dq, n), n),
        (lambda: _log_derivative(ints, dq, n), n),
        (lambda: _exp_series(m.entries, dq, n), 0),
        # two steps per entry: one Fraction of the full products would
        # take a gcd of their full size, slower at large d
        (lambda: rescale_cumulants(k), 2 * d),
        (lambda: rescale_cumulants(kt), 2 * d),
        # N for the series log(1 + R), which the exp step reads as values,
        # and one per moment
        (lambda: free_moments_from_free_cumulants(r, N), 2 * N),
        # likewise N for log M, and one per cumulant past r_1 = m_1
        (lambda: free_cumulants_from_moments(m, N), 2 * N),
    ]
    for i, (call, bound) in enumerate(bounds):
        assert fractions_built(call) <= bound, i


def test_a_4000_digit_d_matches_the_reference():
    rng = random.Random(2105)
    d = Fraction(10**4000 + 7, 3)
    mv = [rand_q(rng) for _ in range(6)]
    for n in (1, 4, 6):
        assert cumulant_from_moments(mv, d, n) == ref_cumulants_from_moments(mv, d, n)[-1]


def test_domain_errors_are_unchanged():
    m = MomentSequence([1, 2, 3])
    with pytest.raises(DomainError, match=r"^integer d = 2 below the order n = 3$"):
        cumulant_from_moments(m, 2, 3)
    with pytest.raises(DomainError, match=r"^integer d = -4 below the order n = 3$"):
        cumulant_from_moments(m, "-4", 3)
    with pytest.raises(DomainError, match=r"^need 4 moments, got 3$"):
        cumulant_from_moments(m, 9, 4)
    with pytest.raises(InputFormatError, match=r"^cumulant order n must be an integer >= 1, got 0$"):
        cumulant_from_moments(m, 9, 0)
    with pytest.raises(DomainError, match=r"^need 4 moments, got 3$"):
        cumulants_from_moments(m, 4)
    with pytest.raises(DomainError, match=r"^need 4 moments, got 3$"):
        coefficients_from_moments(m, 4)


def test_round_trip_and_boxplus_at_d_200():
    rng = random.Random(2106)
    p, q = rand_poly(rng, 200), rand_poly(rng, 200)
    assert coefficients_from_cumulants(cumulants_from_coefficients(p)) == p
    same(boxplus(p, q).a, ref_boxplus(p, q))


def root_lists(rng, d):
    """Int, Fraction and string roots, each with repeats."""
    fracs = [rand_q(rng) for _ in range(d)]
    fracs = [fracs[rng.randrange(max(1, 2 * d // 3))] for _ in range(d)]
    ints = [rng.randint(-20, 20) for _ in range(d)]
    ints = [ints[rng.randrange(max(1, 2 * d // 3))] for _ in range(d)]
    return ints, fracs, [str(x) for x in fracs]


# the last shift's numerator has 500 digits, so a_d of a translate at
# d = 30 has about 15,000: it runs at the small degrees only
SHIFTS = (0, -3, Fraction(-7, 3), Fraction(5, 8), Fraction(10**499 + 3, 7))


@pytest.mark.parametrize("ds, shifts", [(range(1, 31), SHIFTS), ((100, 200), SHIFTS[:4])],
                         ids=["d=1..30", "d=100,200"])
def test_root_maps_match_the_fraction_recurrences(ds, shifts):
    rng = random.Random(2201 + len(ds))
    for d in ds:
        ints, fracs, strs = root_lists(rng, d)
        same(MonicPoly.from_roots(strs).a, ref_from_roots(strs).a)
        for roots in (ints, fracs):
            p = MonicPoly.from_roots(roots)
            same(p.a, ref_from_roots(roots).a)
            for c in shifts + (str(rand_q(rng)),):
                same(p.translate(c).a, ref_translate(p, c).a)
    assert MonicPoly.from_roots(["3/4", "-0.5", 2]) == ref_from_roots(["3/4", "-0.5", 2])
    with pytest.raises(InputFormatError):
        MonicPoly.from_roots([])


def test_jacobi_of_the_centred_dilate_is_the_old_shift_and_scale():
    # mc_boxplus's Jacobi matrices: p centred by translate and divided by
    # 2^e through dilate give the same rationals, so the same floats, as
    # the old (alpha - shift)/scale and sqrt(beta/scale^2)
    rng = random.Random(2203)
    for d in range(1, 13):
        for _, fracs, _ in [root_lists(rng, d) for _ in range(4)]:
            p = MonicPoly.from_roots(fracs)
            m = p.a[1] / d
            for e in (-3, 0, 1, 6):
                got = _jacobi(p.translate(m).dilate(Fraction(2) ** e))
                assert np.array_equal(got, ref_jacobi(p, m, Fraction(2) ** e))


# ---------------------------------------------------------------------------
# the Sturm chain against its earlier form
# ---------------------------------------------------------------------------


def sturm_inputs(seed):
    """Primitive integer polynomials, the cheap ones first: chains with a
    degree drop of more than one or a constant divisor (x^4 + 1, x^5 - x,
    linear f, whose f' is constant, and sparse random coefficients), random
    rational roots at d = 1..40, repeated roots, random coefficients with
    non-real roots, p boxplus q at d = 24 and 40, and power-family probes
    at t = k/2^16."""
    rng = random.Random(seed)
    yield from ([1, 0, 0, 0, 1], [1, 0, 0, 0, -1, 0], [3, -2], [1, 0, 1], [2, 0, 0, 0, 0, 0, 0, 1])
    for d in [*range(3, 13)] * 3:  # sparse: degree drops, leading coefficients other than 1
        yield ref_primitive([rng.choice((-3, -2, 2, 5))]
                            + [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(d)])
    for d in range(1, 41):
        yield _primitive_form(rand_poly(rng, d))
    for d in range(2, 25):
        roots = [rand_q(rng) for _ in range(d // 2 + 1)]
        yield _primitive_form(MonicPoly.from_roots([rng.choice(roots) for _ in range(d)]))
    for d in range(1, 25):
        yield _primitive_form(MonicPoly.from_signed([1] + [rand_q(rng) for _ in range(d)]))
    for d in (24, 40):
        yield _primitive_form(boxplus(rand_poly(rng, d), rand_poly(rng, d)))
    for d in (3, 6, 10):
        power = _power_family(rand_poly(rng, d))
        for k in (1, 4097, 2**15 + 3, 2**16, 3 * 2**16 - 1):
            yield power(Fraction(k, 2**16))


def test_sturm_chain_matches_the_reference():
    # the primitive part with a fixed sign is unique, so the chains are
    # equal element for element, whatever positive multiple of each
    # remainder the kernel computes
    for f in sturm_inputs(2301):
        assert _sturm_chain(f) == ref_sturm_chain(f), f


def test_sturm_chain_takes_one_gcd_per_element(monkeypatch):
    # one gcd makes f' primitive and one each remainder: the remainder
    # itself takes none
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return math.gcd(*args)

    inputs = [f for f in sturm_inputs(2302) if len(f) <= 30]  # the count is the same at any d
    monkeypatch.setattr(polynomial, "gcd", counted)
    for f in inputs:
        calls[0] = 0
        chain = _sturm_chain(f)
        assert calls[0] <= len(chain) - 1, (f, calls[0], len(chain))


# ---------------------------------------------------------------------------
# the isolation path against the chain
# ---------------------------------------------------------------------------


def ref_counts(f):
    """(distinct real roots, distinct roots) read off the reference chain."""
    chain = ref_sturm_chain(f)
    at_minus_oo = [_alternate(q[::-1])[::-1] for q in chain]  # q(-x)
    changes = [sum((x[0] > 0) != (y[0] > 0) for x, y in zip(c, c[1:]))
               for c in (chain, at_minus_oo)]
    return changes[1] - changes[0], len(f) - len(chain[-1])


def isolation_inputs(seed):
    """Squarefree primitive integer polynomials from _ISOLATION_DEGREE to
    40, the cheap ones first: distinct rational roots with one at 0, random
    coefficients with non-real roots, roots +-r, a cluster within 10^-9 of
    1/3 beside roots far out, p boxplus q, and power-family probes at
    dyadic t."""
    rng = random.Random(seed)
    grid = sorted({Fraction(k, m) for k in range(-30, 31) for m in range(1, 4)} - {0})
    for d in (_ISOLATION_DEGREE, 21, 24, 32, 40):
        yield _primitive_form(MonicPoly.from_roots([0] + rng.sample(grid, d - 1)))
        yield _primitive_form(MonicPoly.from_signed([1] + [rand_q(rng) for _ in range(d)]))
    for d in (_ISOLATION_DEGREE, 24):
        half = rng.sample([r for r in grid if r > 0], d // 2)  # roots +-r: x^(d-1) drops out
        yield _primitive_form(MonicPoly.from_roots(half + [-r for r in half]))
        # the chain's remainders grow fastest here, so d stays small
        cluster = [Fraction(1, 3) + Fraction(k, 10**9) for k in range(d // 2)]
        yield _primitive_form(MonicPoly.from_roots(
            cluster + [rng.choice((-1, 1)) * 2**j for j in rng.sample(range(1, 41), d - d // 2)]))
    for d in (_ISOLATION_DEGREE, 24, 32):
        yield _primitive_form(boxplus(*(MonicPoly.from_roots(rng.sample(grid, d)) for _ in (0, 1))))
        power = _power_family(MonicPoly.from_roots(rng.sample(grid, d)))
        for t in (Fraction(1, 64), Fraction(3, 4), Fraction(2**20 + 1, 2**10)):
            yield power(t)


def test_isolation_counts_match_the_chain(monkeypatch):
    # every input is certified squarefree, and the isolation itself, not
    # the fallback chain, answers
    inputs = [(f, ref_counts(f)) for f in isolation_inputs(2311)]
    monkeypatch.setattr(polynomial, "_sturm_chain", None)
    for f, want in inputs:
        assert want[1] == len(f) - 1 and _squarefree_mod(f), f
        assert _isolated_count(f) == want[0], f
        assert _sturm_counts(f) == want, f


def test_repeated_roots_fall_back_to_the_chain():
    rng = random.Random(2312)
    grid = sorted({Fraction(k, m) for k in range(-20, 21) for m in range(1, 4)})
    for d in (_ISOLATION_DEGREE, 30):
        roots = rng.sample(grid, d - 2)
        p = MonicPoly.from_roots(roots + roots[:2])
        f = _primitive_form(p)
        assert not _squarefree_mod(f)
        assert _sturm_counts(f) == ref_counts(f) == (d - 2, d - 2)
        assert is_real_rooted(p) == "yes"
        assert is_real_rooted(p, require_distinct=True) == "boundary"
    # a double irrational root keeps two sign changes at every depth, so
    # the isolation runs to its loop bound: (x^2 - 2)^2
    assert _isolated_count([1, 0, -4, 0, 4]) is None


def test_an_unlucky_prime_falls_back_to_the_chain():
    # x^2 - _ELL is x^2 mod _ELL, a double root there; _ELL x^2 - 1 loses
    # its degree mod _ELL.  Both are squarefree with two real roots.  The
    # square (_ELL x - 1)^2 has a double root but is squarefree mod _ELL.
    for d in (_ISOLATION_DEGREE, 26):
        ints = MonicPoly.from_roots(range(1, d - 1)).plain_coefficients()
        for quadratic, want in (([1, 0, -_ELL], (d, d)), ([_ELL, 0, -1], (d, d)),
                                ([_ELL**2, -2 * _ELL, 1], (d - 1, d - 1))):
            f = [0] * (d + 1)
            for i, x in enumerate(quadratic):
                for j, y in enumerate(ints):
                    f[i + j] += x * int(y)
            assert not _squarefree_mod(f)
            assert _sturm_counts(f) == ref_counts(f) == want


def test_isolation_makes_few_taylor_shifts(monkeypatch):
    # on p boxplus q about 1.5 shifts a root: P(1/(x + 1)) is built only
    # when Budan's theorem leaves more than one root in (0, 1).  Far from 0
    # a shift by the lower bound gains only a factor of about 1 + 1/(4 d);
    # doubling it while no root is passed takes about 30 to 45 shifts a
    # root here, where the lower bound alone took 146 to 435.
    shifts = [0]

    def counted(a, k=0):
        shifts[0] += 1
        return _taylor_shift(a, k)

    rng = random.Random(2315)
    grid = sorted({Fraction(k, m) for k in range(-20, 21) for m in range(1, 4)})
    inputs = [_primitive_form(boxplus(*(MonicPoly.from_roots(rng.sample(grid, d)) for _ in (0, 1))))
              for d in (_ISOLATION_DEGREE, 24, 32, 40) for _ in range(3)]
    monkeypatch.setattr(polynomial, "_taylor_shift", counted)
    assert sum(_isolated_count(f) for f in inputs) == 3 * (_ISOLATION_DEGREE + 96)
    assert shifts[0] <= 1.55 * 3 * (_ISOLATION_DEGREE + 96), shifts[0]
    for roots in ([k * 10**6 for k in range(1, 22)], [2**60 + 3**k for k in range(21)]):
        shifts[0] = 0
        assert _isolated_count(_primitive_form(MonicPoly.from_roots(roots))) == 21
        assert shifts[0] <= 60 * 21, (roots, shifts[0])
    # 18 roots of 100 bits take about 100 d rounds, inside the loop bound
    roots = {rng.randint(-10**30, 10**30) for _ in range(_ISOLATION_DEGREE)}
    assert _isolated_count(_primitive_form(MonicPoly.from_roots(roots))) == len(roots)


def test_root_bound_is_rigorous_and_within_16_d():
    # every positive root is at most 2^E, and 2^E at most 16 d times the
    # largest of them
    rng = random.Random(2313)
    for d in range(1, 41):
        roots = [rand_q(rng) for _ in range(d)] + [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
        E = _root_bound(_primitive_form(MonicPoly.from_roots(roots)))
        assert max(roots) <= Fraction(2) ** E < 16 * (d + 1) * max(roots), (roots, E)
    # x - 2^30 pairs -2^30 with 1 at weight 1/2; x^2 - 1 skips the zero;
    # x^2 + x - 1 keeps x^2, the first of two one-bit coefficients
    assert _root_bound([1, -2**30]) == 32 and _root_bound([-3, 0, 1]) == 1
    assert _root_bound([1, 0, -1]) == 1 and _root_bound([1, 1, -1]) == 1


def test_taylor_shift_matches_the_fraction_synthetic_division():
    # translate runs _taylor_shift itself, so the shift is checked against
    # the reference's repeated division by x + 2^k instead
    rng = random.Random(2314)
    for d in (1, 2, 7, 40):
        p = rand_poly(rng, d)
        f = _primitive_form(p)
        for k in (0, 1, 5, 60):
            assert [Fraction(x, f[0]) for x in _taylor_shift(f, k)] == \
                ref_translate(p, 2**k).plain_coefficients(), (d, k)


# ---------------------------------------------------------------------------
# large-d identities, checked through the normalised derivative
# ---------------------------------------------------------------------------


def derivative(p: MonicPoly) -> MonicPoly:
    """The normalised derivative p'/d, monic of degree d - 1."""
    return MonicPoly.from_plain_coefficients(
        [c * Fraction(p.d - i, p.d) for i, c in enumerate(p.plain_coefficients()[:-1])])


@pytest.mark.parametrize("d, steps", [(100, (1, 3)), (200, (1, 2)), (300, (1,))])
def test_cumulants_of_derivatives_scale_by_a_power(d, steps):
    # kappa_n of the k-th normalised derivative is ((d-k)/d)^{n-1} kappa_n(p);
    # at d = 300 the roots k/m have m <= 3, so that the two series take
    # about 1.6 s there rather than 3 s with m <= 9
    rng = random.Random(2107 + d)
    p = MonicPoly.from_roots([rand_q(rng, den=9 if d < 300 else 3) for _ in range(d)])
    kappa = cumulants_from_coefficients(p).kappa
    q, k = p, 0
    for step in steps:
        while k < step:
            q, k = derivative(q), k + 1
        got = cumulants_from_coefficients(q).kappa
        assert got == tuple(Fraction(d - k, d) ** (n - 1) * kappa[n - 1]
                            for n in range(1, d - k + 1))


def test_derivative_commutes_with_boxplus_at_d_100():
    rng = random.Random(2109)
    p, q = rand_poly(rng, 100), rand_poly(rng, 100)
    assert derivative(boxplus(p, q)) == boxplus(derivative(p), derivative(q))


@pytest.mark.parametrize("d", [100, 300])
def test_third_derivative_commutes_with_boxplus(d):
    rng = random.Random(2204 + d)
    p, q = rand_poly(rng, d), rand_poly(rng, d)
    lhs, dp, dq = boxplus(p, q), p, q
    for _ in range(3):
        lhs, dp, dq = derivative(lhs), derivative(dp), derivative(dq)
    assert lhs == boxplus(dp, dq)


def test_rolle_gives_real_rooted_derivatives():
    # d distinct real roots leave d - 2 distinct real ones, in general
    # irrational, after two derivatives; times x^2 + 1/3 none is a "yes"
    rng = random.Random(2205)
    grid = sorted({Fraction(k, m) for k in range(-40, 41) for m in range(1, 4)})
    p = derivative(derivative(MonicPoly.from_roots(rng.sample(grid, 102))))
    assert is_real_rooted(p, require_distinct=True) == "yes"
    plain = p.plain_coefficients()
    q = [x + Fraction(y, 3) for x, y in zip(plain + [0, 0], [0, 0] + plain)]
    assert is_real_rooted(MonicPoly.from_plain_coefficients(q)) == "no"


# ---------------------------------------------------------------------------
# the lattice reference reads through the same exact gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, d", [([0.5, 0.25], 3), ([1, 2], 2.5), ((1, True), 3)])
def test_both_cumulant_paths_refuse_a_float_alike(m, d):
    messages = []
    for fn in (cumulant_from_moments, lattice.cumulant_from_moments):
        with pytest.raises(InputFormatError) as err:
            fn(m, d, 2)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_multiplicative_extension_refuses_a_float():
    pi = lattice.one_partition(2)
    assert lattice.multiplicative_extension([1, Fraction(3, 2)], pi) == Fraction(3, 2)
    with pytest.raises(InputFormatError):
        lattice.multiplicative_extension([1.0, 1.5], pi)
