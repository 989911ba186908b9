"""Workload `diagnostics`: real-rootedness, divisibility, limits, Monte Carlo.

Why it exists: its work sits in `polynomial` (the Sturm chains),
`divisibility`, `freeprob` and `matrix_oracle`.  It reaches `transforms`
only through the single lattice sums and through the inner sums of
cumulant_from_moments at degrees that never repeat within a run: the
cache-miss use of the layer that `triangle` uses warm.  A change that speeds
one use at the other's cost shows up here.

One cycle is a seeded shuffle of five operation kinds:
  threshold d   real_rooted_threshold on distinct rational roots, d = 2..10;
                the power at twice the threshold must be real-rooted with
                distinct roots (criterion 11);
  realrooted d  is_real_rooted(p boxplus q) for real-rooted p, q at
                d = 12..24; the answer must be "yes";
  divisible     infinite_divisibility_report on Hermite (must be certified)
                and on random real-rooted input (verdict must follow the
                higher cumulants), and is_conditionally_positive_definite
                on random sequences, checked by principal minors
                (criterion 10);
  converge n    convergence_report for n = 2..8 at d0, 2d0, 4d0, 8d0 with a
                fresh odd d0 in [1001, 9999] per operation, checked with the
                criterion 07 decay rule;
  mc            one mc_boxplus cross-check per cycle at 1e5 samples, within
                5 standard errors + 0.02 (criterion 03).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from finfree.families import hermite_clt
from finfree.polynomial import MonicPoly

from .inputs import distinct_rooted, rand_rational, rational_rooted
from .spec import MC_SAMPLES



class Diagnostics:
    cycle_s = 4.4

    def __init__(self, threshold_degrees=range(2, 11), rr_degrees=range(12, 25),
                 hermite_degrees=(2, 5, 9, 12), random_degrees=(3, 5, 6, 8),
                 cpd_lengths=(4, 5, 6, 7), orders=range(2, 9), mc_degree=3):
        self.threshold_degrees = tuple(threshold_degrees)
        self.rr_degrees = tuple(rr_degrees)
        self.hermite_degrees = tuple(hermite_degrees)
        self.random_degrees = tuple(random_degrees)
        self.cpd_lengths = tuple(cpd_lengths)
        self.orders = tuple(orders)
        self.mc_degree = mc_degree
        self._fresh = None

    def warmup(self, api, rng) -> None:
        """One operation of each kind at its largest size.  The convergence
        warm-up uses d = 16..128, which the fresh odd degrees never hit."""
        ops = [
            ("threshold", distinct_rooted(rng, self.threshold_degrees[-1])),
            self._realrooted(rng, self.rr_degrees[0]),
            ("hermite", hermite_clt(self.hermite_degrees[-1])),
            ("converge", self._free(rng, self.orders[-1]), self.orders[-1],
             (16, 32, 64, 128)),
            self._mc(rng),
        ]
        for op in ops:
            self.check(api, op, self.run(api, op))

    def cycle(self, rng) -> list:
        if self._fresh is None:
            self._fresh = rng.sample(range(1001, 10000, 2), 4500)
        ops = [("threshold", distinct_rooted(rng, d)) for d in self.threshold_degrees]
        ops += [self._realrooted(rng, d) for d in self.rr_degrees]
        ops += [("hermite", hermite_clt(d)) for d in self.hermite_degrees]
        ops += [("divisible", rational_rooted(rng, d)) for d in self.random_degrees]
        ops += [("cpd", tuple(rand_rational(rng, 4, 3) for _ in range(n)))
                for n in self.cpd_lengths]
        for n in self.orders:
            d0 = self._fresh.pop()
            ops.append(("converge", self._free(rng, n), n,
                        (d0, 2 * d0, 4 * d0, 8 * d0)))
        ops.append(self._mc(rng))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _realrooted(rng, d):
        return ("realrooted", rational_rooted(rng, d), rational_rooted(rng, d))

    @staticmethod
    def _free(rng, n):
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))

    def _mc(self, rng):
        roots = [[rng.randint(-4, 4) for _ in range(self.mc_degree)] for _ in (0, 1)]
        return ("mc", MonicPoly.from_roots(roots[0]), MonicPoly.from_roots(roots[1]),
                rng.randrange(2**31))

    def run(self, api, op):
        kind = op[0]
        if kind == "threshold":
            return api.divisibility.real_rooted_threshold(op[1], 2**20)
        if kind == "realrooted":
            return api.polynomial.is_real_rooted(api.convolution.boxplus(op[1], op[2]))
        if kind in ("hermite", "divisible"):
            return api.divisibility.infinite_divisibility_report(op[1])
        if kind == "cpd":
            return api.divisibility.is_conditionally_positive_definite(op[1])
        if kind == "converge":
            r = api.freeprob.FreeCumulantVector.make(op[1])
            return api.freeprob.convergence_report(r, op[2], op[3])
        return api.matrix_oracle.mc_boxplus(op[1], op[2], MC_SAMPLES, seed=op[3])

    def check(self, api, op, out) -> bool:
        kind = op[0]
        if kind == "threshold":
            if out is None or not 0 < out <= 2**20:
                return False
            doubled = api.convolution.boxplus_power(op[1], 2 * out)
            return api.polynomial.is_real_rooted(doubled, require_distinct=True) == "yes"
        if kind == "realrooted":
            return out == "yes"
        if kind == "hermite":
            return (out.verdict == "infinitely_divisible"
                    and out.cpd_standard and out.cpd_rescaled)
        if kind == "divisible":
            p = op[1]
            moments = api.polynomial.moments(p, p.d)
            kappa = api.transforms.cumulants_from_moments(moments, p.d).kappa
            want = ("infinitely_divisible" if all(k == 0 for k in kappa[2:])
                    else "not_infinitely_divisible")
            return out.verdict == want
        if kind == "cpd":
            return out == _psd_by_minors(op[1])
        if kind == "converge":
            errs = out.errors
            if all(e == 0 for e in errs):
                return True
            if any(e == 0 for e in errs):
                return False
            ratio = Fraction(65, 100)
            return (all(b <= ratio * a for a, b in zip(errs, errs[1:]))
                    and errs[-1] <= 10 * errs[0] * Fraction(op[3][0], op[3][-1]))
        exact = api.convolution.boxplus(op[1], op[2])
        return all(abs(mean - float(want)) <= 5.0 * se + 0.02
                   for mean, se, want in zip(out.coeff_mean, out.coeff_stderr, exact.a))


def _psd_by_minors(seq) -> bool:
    """Whether the window M_ij = seq[i+j+1], 0 <= i, j < len(seq)//2, is PSD:
    a symmetric matrix is PSD iff every principal minor is >= 0."""
    k = len(seq) // 2
    m = [[seq[i + j + 1] for j in range(k)] for i in range(k)]
    return all(_det([[m[i][j] for j in idx] for i in idx]) >= 0
               for size in range(1, k + 1) for idx in combinations(range(k), size))


def _det(rows) -> Fraction:
    """Laplace expansion along the first row; exact, fine for k <= 3."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))
