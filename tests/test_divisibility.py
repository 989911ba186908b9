"""Infinite divisibility, CPD tests, thresholds, the Cramer failure."""

import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import floor, isqrt

import pytest

from finfree import (
    CumulantVector,
    MonicPoly,
    boxplus,
    boxplus_power,
    coefficients_from_cumulants,
    cramer_counterexample,
    cumulant_from_moments,
    cumulants_from_coefficients,
    finite_poisson,
    hermite_clt,
    infinite_divisibility_report,
    is_conditionally_positive_definite,
    is_real_rooted,
    real_rooted_threshold,
    rescale_cumulants,
    x_power,
)
from finfree import divisibility
from finfree.convolution import _power_family
from finfree.divisibility import _exact_psd
from finfree.errors import DomainError, InputFormatError
from finfree.lattice import falling
from finfree.polynomial import _distinct_if_real, _exp_series, _primitive_form


def rand_real_rooted(rng, d):
    return MonicPoly.from_roots(
        [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d)]
    )


def test_psd_core():
    assert _exact_psd([[Fraction(0)]])
    assert _exact_psd([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert not _exact_psd([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    # zero pivot with a nonzero row is indefinite even with PSD minors below
    assert not _exact_psd([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert _exact_psd([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert not _exact_psd([[Fraction(-1)]])
    # rank one v v^T with a zero in v: PSD only if each Schur complement
    # entry subtracts the product of its own row's and column's first
    # entries, after which a zero pivot meets a zero row
    for v in ((1, 0, 1), (1, 1, 0)):
        assert _exact_psd([[Fraction(x * y) for y in v] for x in v])


def minors_psd(M) -> bool:
    """PSD by definition's equivalent: every principal minor is >= 0, each
    determinant by Fraction elimination with row swaps."""
    k = len(M)
    for mask in range(1, 2**k):
        idx = [i for i in range(k) if mask >> i & 1]
        a = [[Fraction(M[i][j]) for j in idx] for i in idx]
        det = Fraction(1)
        for c in range(len(a)):
            r = next((r for r in range(c, len(a)) if a[r][c]), None)
            if r is None:
                det = Fraction(0)
                break
            if r != c:
                a[c], a[r], det = a[r], a[c], -det
            det *= a[c][c]
            for r in range(c + 1, len(a)):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        if det < 0:
            return False
    return True


def test_psd_matches_principal_minors_on_sparse_and_singular_windows():
    # the elimination skips every row whose pivot-column entry is zero;
    # sparse windows, singular Gram matrices and Hermite-shaped Hankel
    # windows exercise that skip on both sides of the PSD boundary
    rng = random.Random(4101)
    windows = []
    for k in range(1, 7):
        for _ in range(40):
            M = [[Fraction(0)] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    if rng.random() < 0.35:
                        M[i][j] = M[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            windows.append(M)
            # B B^T with B k x r, r < k and a few zero entries: PSD, singular
            r = rng.randint(1, max(1, k - 1))
            B = [[rng.choice((0, 0, rng.randint(-2, 2))) for _ in range(r)] for _ in range(k)]
            G = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in B] for u in B]
            windows.append(G)
            # a nonzero entry in a zero row of G breaks it
            i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
            H = [row[:] for row in G]
            H[i][j] = H[j][i] = H[i][j] + 1
            windows.append(H)
        # Hankel windows of (kappa_1, ..., kappa_2k) with kappa_2 alone
        # nonzero (Hermite), and with one more nonzero cumulant
        for kappa2 in (-1, 0, 1, Fraction(3, 2)):
            vals = [Fraction(0)] * (2 * k + 1)
            vals[1] = Fraction(kappa2)
            windows.append([[vals[i + j + 1] for j in range(k)] for i in range(k)])
            for at in range(2, 2 * k):
                for v in (-1, 2):
                    more = vals[:]
                    more[at] = Fraction(v)
                    windows.append([[more[i + j + 1] for j in range(k)] for i in range(k)])
    verdicts = [_exact_psd(M) for M in windows]
    assert verdicts == [minors_psd(M) for M in windows]
    assert 0 < sum(verdicts) < len(verdicts)


def test_cpd_examples():
    assert is_conditionally_positive_definite([0, 1, 0, 0])  # Hermite
    assert is_conditionally_positive_definite([1, 1, 1, 1])  # rank one
    # rescaled Poisson(1,4): 2x2 Hankel determinant is -9/128
    kt = rescale_cumulants(cumulants_from_coefficients(finite_poisson(1, 4)))
    assert kt.kappa == (Fraction(1), Fraction(3, 4), Fraction(3, 8), Fraction(3, 32))
    assert kt.kappa[1] * kt.kappa[3] - kt.kappa[2] ** 2 == Fraction(-9, 128)
    assert not is_conditionally_positive_definite(kt.kappa)
    with pytest.raises(DomainError):
        is_conditionally_positive_definite([Fraction(1)])


def test_cpd_known_by_construction():
    # kappa_n = sum of w y^n over rational atoms y with weights w > 0: the
    # shifted Hankel form is V^T W V with V_{y,i} = y^i, PSD of rank equal to
    # the number of atoms.  With fewer atoms than floor(d/2) it is singular,
    # and some kernel vector has a nonzero first entry (the coefficients of
    # y times the atoms' product), so lowering kappa_2 alone breaks it
    rng = random.Random(23)
    d = 60
    pool = sorted({Fraction(a, b) for a in range(-9, 10) if a for b in range(1, 6)})
    ys = rng.sample(pool, d // 2 + 2)
    ws = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in ys]

    def kappa(atoms):
        return [sum(w * y**n for y, w in zip(ys[:atoms], ws)) for n in range(1, d + 1)]

    singular = kappa(d // 4)
    assert is_conditionally_positive_definite(singular)
    singular[1] -= Fraction(1, 10**6)
    assert not is_conditionally_positive_definite(singular)
    assert is_conditionally_positive_definite(kappa(d // 2 + 2))


def test_id_hermite():
    for d in (1, 2, 5, 8):
        rep = infinite_divisibility_report(hermite_clt(d))
        assert rep.verdict == "infinitely_divisible"
        assert rep.cpd_standard and rep.cpd_rescaled and rep.higher_cumulants_zero


def test_id_poisson_never():
    for d in range(3, 9):
        rep = infinite_divisibility_report(finite_poisson(Fraction(1, d), d))
        assert rep.verdict == "not_infinitely_divisible"


def test_id_x_power_degenerate():
    rep = infinite_divisibility_report(x_power(6))
    assert rep.verdict == "infinitely_divisible"
    assert rep.centered_normalized == x_power(6)


def test_id_rejects_complex_rooted():
    with pytest.raises(DomainError):
        infinite_divisibility_report(MonicPoly.from_plain_coefficients([1, 0, 1]))


def test_id_normalizes_when_square():
    # kappa = (3, 4, 0, 0): shift then dilate by 2 lands exactly on Hermite
    p = coefficients_from_cumulants(CumulantVector([3, 4, 0, 0]))
    rep = infinite_divisibility_report(p)
    assert rep.verdict == "infinitely_divisible"
    assert rep.centered_normalized == hermite_clt(4)


def _normalized_by_cumulants(p):
    """The centred, normalised polynomial built on the cumulant side, an
    independent path to the report's: kappa_1 set to 0, each kappa_n divided
    by s^n when s = sqrt(kappa_2) is rational, and the series run back to
    coefficients."""
    kappa = (Fraction(0),) + cumulants_from_coefficients(p).kappa[1:]
    if p.d >= 2 and kappa[1] > 0:
        num, den = kappa[1].numerator, kappa[1].denominator
        if isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
            s = Fraction(isqrt(num), isqrt(den))
            kappa = tuple(v / s**n for n, v in enumerate(kappa, start=1))
    k = CumulantVector(kappa)
    return coefficients_from_cumulants(k), k


def _report_inputs(rng, d):
    """A random real-rooted p, and shifted dilates of Hermite and Poisson
    polynomials, whose kappa_2 has a rational square root."""
    lam = rng.choice([Fraction(1, 2), Fraction(-3), Fraction(2, 5), Fraction(7)])
    c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    yield rand_real_rooted(rng, d)
    yield hermite_clt(d).dilate(lam).translate(c)
    rate = rng.choice([1, 4, 9]) if d % 4 else Fraction(rng.choice([1, 9]), 4)
    yield finite_poisson(rate, d).dilate(lam).translate(c)


def test_id_normalizes_by_translate_and_dilate():
    # the report's roots-side construction against the cumulant-side one,
    # and its flags, read off p's own cumulants, against those of the
    # centred and normalised cumulants
    rng = random.Random(149)
    inputs = [p for d in range(1, 31) for p in _report_inputs(rng, d)]
    inputs.append(hermite_clt(100).dilate(Fraction(2, 3)).translate(Fraction(5, 7)))
    flags, normalized = Counter(), 0
    for p in inputs:
        rep = infinite_divisibility_report(p)
        want, k = _normalized_by_cumulants(p)
        assert rep.centered_normalized == want, p
        assert rep.higher_cumulants_zero == all(v == 0 for v in k.kappa[2:]), p
        if p.d >= 2:
            assert rep.cpd_standard == is_conditionally_positive_definite(k.kappa), p
            assert rep.cpd_rescaled == is_conditionally_positive_definite(
                rescale_cumulants(k).kappa), p
        flags["standard", rep.cpd_standard] += 1
        flags["rescaled", rep.cpd_rescaled] += 1
        normalized += k.kappa[1:2] == (1,)
    # both answers of each flag occur, and every Hermite and Poisson input
    # past d = 1 is dilated
    assert len(flags) == 4 and normalized >= 59, (flags, normalized)


def test_id_verdict_matches_flag_and_cpd_is_necessary():
    rng = random.Random(127)
    seen_id = 0
    for _ in range(60):
        d = rng.randint(2, 7)
        p = rand_real_rooted(rng, d)
        rep = infinite_divisibility_report(p)
        assert (rep.verdict == "infinitely_divisible") == rep.higher_cumulants_zero
        if rep.verdict == "infinitely_divisible":
            seen_id += 1
            assert rep.cpd_standard and rep.cpd_rescaled
    # random root multisets land on Hermite essentially never; d=2 is the
    # exception since every centered degree-2 polynomial is a dilated Hermite
    assert seen_id >= 1


def test_rescaled_cpd_implies_standard_cpd():
    """Necessity chain on outcomes: whenever the rescaled sequence passes,
    the standard one does too. Random vectors almost never pass, so seed the
    rescaled side with moments of a positive discrete measure (always CPD)
    and perturb half the time."""
    rng = random.Random(131)
    checked = 0
    for _ in range(80):
        d = rng.randint(4, 8)
        w1, w2 = Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))
        c1, c2 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
        kt = [w1 * c1**n + w2 * c2**n for n in range(1, d + 1)]
        if rng.random() < 0.5:
            j = rng.randrange(d)
            kt[j] += Fraction(rng.randint(-2, 2), 3)
        kap = [Fraction(d) ** n / falling(d, n) * kt[n - 1] for n in range(1, d + 1)]
        k = CumulantVector(kap)
        if is_conditionally_positive_definite(rescale_cumulants(k).kappa):
            checked += 1
            assert is_conditionally_positive_definite(k.kappa)
    assert checked >= 20


def test_kappa4_of_centered_input():
    """Fourth cumulant of centered data: kappa_4 = c1 m4 - c1 (2d-3)/(d-1) m2^2
    with c1 = d^4/(d)_4. The m2^2 coefficient is negative; frozen here after
    deriving it from the moment-cumulant sum directly."""
    rng = random.Random(137)
    for d in (4, 5, 7, 10):
        c1 = Fraction(d) ** 4 / Fraction(d * (d - 1) * (d - 2) * (d - 3))
        c2 = -c1 * Fraction(2 * d - 3, d - 1)
        for _ in range(5):
            m2, m3, m4 = (
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)
            )
            got = cumulant_from_moments([Fraction(0), m2, m3, m4], d, 4)
            assert got == c1 * m4 + c2 * m2**2


def test_threshold_hermite_first_grid_point():
    # p^{boxplus t} of Hermite p is a sqrt(t)-dilate of p, real-rooted at every t
    for d in (4, 12, 24, 40, 60, 100):
        assert real_rooted_threshold(hermite_clt(d), 2**20) == Fraction(1, 16), d


def test_threshold_poisson_quarter():
    p = finite_poisson(Fraction(1, 4), 4)
    # the fractional power that loses real-rootedness: t = 4/3
    assert is_real_rooted(boxplus_power(p, Fraction(4, 3))) == "no"
    assert is_real_rooted(boxplus_power(p, 4), require_distinct=True) == "yes"
    t = real_rooted_threshold(p, 2**20)
    assert t is not None and Fraction(4, 3) < t <= 4
    assert is_real_rooted(boxplus_power(p, 2 * t), require_distinct=True) == "yes"


def _power_by_cumulants(p, t):
    """p^{boxplus t} through Fractions: the cumulants of p, scaled by t, back
    to coefficients."""
    k = cumulants_from_coefficients(p)
    scaled = CumulantVector([t * v for v in k.kappa])
    return coefficients_from_cumulants(scaled)


def _threshold_by_full_grid(p, t_max, steps, verdicts):
    """The threshold search as it was first written: every grid point probed
    bottom to top, each probe recomputing kappa(p) through Fractions.
    verdicts maps each t already probed for p to its answer."""

    def ok(t):
        if t not in verdicts:
            verdicts[t] = is_real_rooted(_power_by_cumulants(p, t),
                                         require_distinct=True) == "yes"
        return verdicts[t]

    grid = []
    t = Fraction(1, 16)
    while t <= t_max:
        grid.append(t)
        t *= 2
    if not grid or not ok(grid[-1]):
        return None
    results = [ok(t) for t in grid[:-1]] + [True]
    first = len(grid) - 1
    while first > 0 and results[first - 1]:
        first -= 1
    if first == 0:
        return grid[0]
    lo, hi = grid[first - 1], grid[first]
    for _ in range(steps):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _with_complex_pair(rng, d):
    """(x^2 + c)(x - r_1)...(x - r_{d-2}) with c > 0: two non-real roots."""
    plain = [Fraction(1), Fraction(0), Fraction(rng.randint(1, 9), 4)]
    for _ in range(d - 2):
        r = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        plain = [x - r * y for x, y in zip(plain + [0], [0] + plain)]
    return MonicPoly.from_plain_coefficients(plain)


def _distinct_real_rooted(rng, d):
    return MonicPoly.from_roots(rng.sample([Fraction(i, 2) for i in range(-10, 11)], d))


def _threshold_inputs(rng, d):
    """Distinct, repeated and complex roots, random coefficients, and one
    root d times over, whose powers never have distinct roots."""
    grid = [Fraction(i, 2) for i in range(-10, 11)]
    inputs = [
        _distinct_real_rooted(rng, d),
        rand_real_rooted(rng, d),
        MonicPoly.from_roots([r for r in rng.sample(grid, d) for _ in (0, 1)][:d]),
        MonicPoly.from_signed(
            [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
        ),
    ]
    if d >= 2:
        inputs.append(_with_complex_pair(rng, d))
        inputs.append(MonicPoly.from_roots([rng.choice(grid[:10] + grid[11:])] * d))
    return [p for p in inputs if any(v != 0 for v in p.a[1:])]


def test_threshold_matches_full_grid_search():
    rng = random.Random(139)
    for d in range(1, 13):
        for p in _threshold_inputs(rng, d):
            verdicts = {}  # the reference probes each t once for p
            for t_max in (2**20, Fraction(3, 4), 5, Fraction(1, 32)) + (2**64,) * (d <= 6):
                for steps in (0, 1, 16, 30):
                    assert real_rooted_threshold(p, t_max, steps) == _threshold_by_full_grid(
                        p, t_max, steps, verdicts
                    ), (p, t_max, steps)


def test_power_family_is_the_primitive_form_of_the_power():
    rng = random.Random(141)
    for d in range(1, 13):
        for p in _threshold_inputs(rng, d):
            power = _power_family(p)
            assert power(1) == _primitive_form(p)
            for t in (Fraction(1, 16), 1, 2, 3, Fraction(7, 3), 2**20, Fraction(12345, 2**17)):
                reference = _power_by_cumulants(p, t)
                assert power(t) == _primitive_form(reference), (p, t)
                assert boxplus_power(p, t) == reference, (p, t)


def test_power_family_at_large_degree():
    # against the Fraction path, and against boxplus, which shares no series
    # with the family: p^{boxplus t} boxplus p^{boxplus t} = p^{boxplus 2t}
    rng = random.Random(167)
    for d in (40, 100):
        p = MonicPoly.from_roots(
            [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d)])
        power = _power_family(p)
        assert power(1) == _primitive_form(p)
        for t in (Fraction(1, 16), 1, 2**20, Fraction(12345, 2**17)):
            assert power(t) == _primitive_form(_power_by_cumulants(p, t)), (d, t)
        f = power(Fraction(1, 2))
        half = MonicPoly.from_plain_coefficients([Fraction(c, f[0]) for c in f])
        assert power(1) == _primitive_form(boxplus(half, half)), d


def _count_calls(funcs, call) -> Counter:
    """How often call() enters each of funcs, by name."""
    watched = {f.__code__: f.__name__ for f in funcs}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def test_threshold_runs_no_fraction_series():
    # kappa(p) is computed once per call; each probe is one integer exp
    # series of t kappa(p), and no probe builds p^{boxplus t} through
    # Fractions
    funcs = (cumulants_from_coefficients, coefficients_from_cumulants, boxplus_power,
             _exp_series, _power_family, _distinct_if_real)
    rng = random.Random(143)
    for d in (2, 5, 9):
        for p in _threshold_inputs(rng, d):
            calls = _count_calls(funcs, lambda: real_rooted_threshold(p, 2**20, 30))
            probes = calls["_distinct_if_real"]
            assert probes >= 1 and calls == Counter(
                {"cumulants_from_coefficients": 1, "_power_family": 1,
                 "_exp_series": probes, "_distinct_if_real": probes}), (p, calls)


def test_integer_powers_keep_distinct_real_roots():
    # the lemma the threshold search rests on, apart from the search: for
    # real-rooted p, p^{boxplus m} with d distinct real roots makes
    # p^{boxplus (m+1)} = p boxplus p^{boxplus m} so too
    rng = random.Random(151)
    seen = Counter()
    for d in range(2, 11):
        doubled = [r for r in rng.sample(range(-9, 10), d) for _ in (0, 1)][:d]
        for p in (_distinct_real_rooted(rng, d), rand_real_rooted(rng, d),
                  MonicPoly.from_roots([Fraction(r, 3) for r in doubled]), hermite_clt(d)):
            passes = [is_real_rooted(boxplus_power(p, m), require_distinct=True) == "yes"
                      for m in range(1, 6)]
            assert passes == sorted(passes), (p, passes)
            seen[passes[0], passes[-1]] += 1
    # some powers start failing and end passing, and some pass from m = 1
    assert seen[False, True] >= 5 and seen[True, True] >= 5, seen


def test_doubling_keeps_distinct_real_roots_for_every_input():
    # the up-set the threshold search rests on, for p that need not be
    # real-rooted: cumulants add, so p^{boxplus 2t} = p^{boxplus t} boxplus
    # p^{boxplus t}, and a pass at t is a pass at the next grid point 2t
    rng = random.Random(173)
    grid = [Fraction(2**k, 16) for k in range(17)]  # 1/16 ... 2^12
    seen = Counter()
    for d in range(2, 9):
        for p in (MonicPoly.from_signed([1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                               for _ in range(d)]),
                  _with_complex_pair(rng, d), _with_complex_pair(rng, d)):
            passes = [is_real_rooted(boxplus_power(p, t), require_distinct=True) == "yes"
                      for t in grid]
            assert passes == sorted(passes), (p, passes)
            seen[is_real_rooted(p), passes[0], passes[-1]] += 1
    # inputs that are not real-rooted start failing and end passing
    assert seen["no", False, True] >= 10, seen


def test_threshold_probes_no_integer_point_it_can_decide():
    # distinct real roots: t = 1 passes, so only it and the four grid points
    # below it can be probed, where a walk down from the top probes every
    # integer point 1, 2, 4, ..., t_max first
    rng = random.Random(157)
    for d in range(2, 11):
        p = _distinct_real_rooted(rng, d)
        for t_max in (2**20, 2**64):
            for steps in (0, 16):
                calls = _count_calls((_distinct_if_real,),
                                     lambda: real_rooted_threshold(p, t_max, steps))
                assert calls["_distinct_if_real"] <= 5 + steps, (p, t_max, steps, calls)
    # the README's roots 0,0,1,3 fail at t = 1, a double root: the search
    # gallops up the 65 grid indices from t = 1 to 2^64, then bisects
    p = MonicPoly.from_roots([0, 0, 1, 3])
    for steps in (0, 16):
        calls = _count_calls((_distinct_if_real,), lambda: real_rooted_threshold(p, 2**64, steps))
        assert calls["_distinct_if_real"] <= 2 + 7 + steps, (steps, calls)
    # every input, real-rooted or not: at most 2 bit_length(len(grid)) grid
    # probes, then the refinement
    rng = random.Random(179)
    for d in range(2, 11):
        for p in _threshold_inputs(rng, d):
            for t_max in (Fraction(3, 4), 5, 2**20, 2**64):
                n = floor(16 * t_max).bit_length()  # len(grid)
                for steps in (0, 16):
                    calls = _count_calls((_distinct_if_real,),
                                         lambda: real_rooted_threshold(p, t_max, steps))
                    assert calls["_distinct_if_real"] <= 2 * n.bit_length() + steps, (
                        p, t_max, steps, calls)


def test_threshold_search_over_every_grid_length(monkeypatch):
    # the search alone, with a stand-in verdict that passes from grid[a] up:
    # every grid length up to t_max = 2^64 and every answer position a, the
    # answer of the full grid, no point probed twice, and the bound
    # 2 bit_length(len(grid)), which some lengths reach
    p, probed = hermite_clt(2), []

    def distinct_if_real(t):
        probed.append(t)
        return 2 if t >= cut else None

    monkeypatch.setattr(divisibility, "_power_family", lambda p: lambda t: t)
    monkeypatch.setattr(divisibility, "_distinct_if_real", distinct_if_real)
    reached = set()
    for n in range(1, 70):
        grid = [Fraction(2**k, 16) for k in range(n)]
        for a in range(n + 1):
            cut = grid[a] if a < n else 2 * grid[-1]
            probed.clear()
            got = real_rooted_threshold(p, grid[-1], 3)
            assert got == (grid[a] if a < n else None), (n, a, got)
            assert len(set(probed)) == len(probed), (n, a, probed)
            grid_probes = len([t for t in probed if t in grid])
            assert grid_probes <= 2 * n.bit_length(), (n, a, probed)
            assert len(probed) - grid_probes == (3 if 0 < a < n else 0), (n, a, probed)
            reached.add((n, grid_probes == 2 * n.bit_length()))
    assert (29, True) in reached and (63, True) in reached


def test_threshold_probes_no_point_twice(monkeypatch):
    # each t gives another primitive polynomial to the real-rootedness test, since p
    # is not x^d
    probed, distinct_if_real = [], divisibility._distinct_if_real

    def record(f):
        probed.append(tuple(f))
        return distinct_if_real(f)

    monkeypatch.setattr(divisibility, "_distinct_if_real", record)
    rng = random.Random(163)
    for d in (2, 5, 8):
        for p in _threshold_inputs(rng, d):
            for t_max in (Fraction(3, 4), 1, 5, 2**20, 2**64):
                probed.clear()
                real_rooted_threshold(p, t_max, 16)
                assert len(set(probed)) == len(probed), (p, t_max)


def test_threshold_refuses_bad_arguments():
    p = finite_poisson(Fraction(1, 4), 4)
    for steps in (-3, -1, True, False, 2.5, 16.0, "16", None):
        with pytest.raises(InputFormatError):
            real_rooted_threshold(p, 2**20, steps)
    for t_max in (float("nan"), float("inf"), float("-inf"), Decimal("nan"), Decimal("inf")):
        with pytest.raises(InputFormatError):
            real_rooted_threshold(p, t_max)
    # argument errors come before the domain checks on the polynomial
    with pytest.raises(InputFormatError):
        real_rooted_threshold(x_power(4), 100, -1)


def test_threshold_none_when_tmax_too_small():
    p = finite_poisson(Fraction(1, 4), 4)
    assert real_rooted_threshold(p, 1) is None


def test_threshold_rejects_x_power():
    with pytest.raises(DomainError):
        real_rooted_threshold(x_power(4), 100)


def test_threshold_rejects_nonpositive_tmax():
    for t_max in (0, Fraction(-1, 16), -5):
        with pytest.raises(DomainError):
            real_rooted_threshold(hermite_clt(4), t_max)


def test_cramer_cumulant_cancellation():
    # p- is built by reflecting p+; its own cumulants are (0, 1, -eps, 0, ...)
    for d in list(range(3, 41)) + [60]:
        for eps in (0, Fraction(1, 32), Fraction(1, 255), 3):
            pair = cramer_counterexample(d, eps)
            zeros = (0,) * (d - 3)
            assert cumulants_from_coefficients(pair.p_plus).kappa == (0, 1, eps) + zeros
            assert cumulants_from_coefficients(pair.p_minus).kappa == (0, 1, -eps) + zeros
            k = cumulants_from_coefficients(pair.convolution)
            assert k.kappa == (0, 2, 0) + zeros, (d, eps)


def test_cramer_small_eps_real_rooted_d4():
    for eps in (Fraction(1, 64), Fraction(1, 32)):
        pair = cramer_counterexample(4, eps)
        assert pair.p_plus_real_rooted and pair.p_minus_real_rooted
        assert is_real_rooted(pair.convolution) == "yes"


def test_cramer_large_eps_fails():
    pair = cramer_counterexample(4, 2)
    assert not pair.p_plus_real_rooted and not pair.p_minus_real_rooted
    # the convolution stays real-rooted regardless: that is the point
    assert is_real_rooted(pair.convolution) == "yes"


def test_cramer_eps_zero_is_hermite():
    pair = cramer_counterexample(5, 0)
    assert pair.p_plus == hermite_clt(5)
    assert pair.p_minus == hermite_clt(5)


def test_cramer_flags_match_each_factor():
    # one Sturm test answers for both factors; check each on its own
    seen = Counter()
    for d in (3, 4, 5, 8):
        for eps in (0, Fraction(1, 64), Fraction(1, 32), Fraction(1, 8), Fraction(1, 2), 2):
            pair = cramer_counterexample(d, eps)
            assert pair.p_plus_real_rooted == (is_real_rooted(pair.p_plus) == "yes")
            assert pair.p_minus_real_rooted == (is_real_rooted(pair.p_minus) == "yes")
            seen[pair.p_plus_real_rooted] += 1
    assert set(seen) == {True, False}


def test_cramer_builds_one_factor_and_runs_one_sturm_count():
    funcs = (coefficients_from_cumulants, _exp_series, _distinct_if_real)
    for d, eps in ((3, Fraction(1, 32)), (12, 0), (20, 3)):
        calls = _count_calls(funcs, lambda: cramer_counterexample(d, eps))
        assert calls == Counter({"coefficients_from_cumulants": 1, "_exp_series": 1,
                                 "_distinct_if_real": 1}), (d, eps, calls)


def test_cramer_rejects_small_d():
    with pytest.raises(DomainError):
        cramer_counterexample(2, Fraction(1, 8))
    with pytest.raises(DomainError):
        cramer_counterexample(4, -1)
