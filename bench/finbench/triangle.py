"""Workload `triangle`: the exact transform triangle and the partition lattice.

Why it exists: nearly all of its work is in `transforms` and `partitions`.
Its set-up holds the cold build of the lattice tables (the first
moments_from_cumulants at d = 10 builds P_sigma(d) for every type up to 10),
and its steady state is the warm lattice sums.  A faster transform path
should move this workload first; `polynomial` should move nothing here.

One cycle is a seeded shuffle of three operation kinds:
  roundtrip d   all six conversion directions at d = 2..10 (criterion 01);
  boxplus d     p boxplus q and the three cumulant vectors (criterion 02);
  lattice n     P(n), NC(n) and the per-type counts for n = 1..8
                (criterion 09).
"""

from __future__ import annotations

from collections import Counter

from .inputs import rand_poly

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430}


class Triangle:
    # Scaled seconds (finbench.hostspeed) one cycle takes at the baseline;
    # sets the cycles in a run.
    cycle_s = 0.26

    def __init__(self, degrees=range(2, 11), lattice_sizes=range(1, 9)):
        self.degrees = tuple(degrees)
        self.lattice_sizes = tuple(lattice_sizes)

    def warmup(self, api, rng) -> None:
        """First call of each direction at the top degree, in the order of
        spec.TRANSFORM_DIRECTIONS (the traced run reports these as cold_s),
        then one full cycle to fill the remaining caches."""
        d = self.degrees[-1]
        t = api.transforms
        p = rand_poly(rng, d)
        k = t.cumulants_from_coefficients(p)
        m = t.moments_from_coefficients(p, d)
        t.coefficients_from_cumulants(k)
        t.coefficients_from_moments(m, d)
        t.cumulants_from_moments(m, d)
        t.moments_from_cumulants(k, d)
        for op in self.cycle(rng):
            self.check(api, op, self.run(api, op))

    def cycle(self, rng) -> list:
        ops = [("roundtrip", rand_poly(rng, d)) for d in self.degrees]
        ops += [("boxplus", rand_poly(rng, d), rand_poly(rng, d)) for d in self.degrees]
        ops += [("lattice", n) for n in self.lattice_sizes]
        rng.shuffle(ops)
        return ops

    def run(self, api, op):
        t = api.transforms
        if op[0] == "roundtrip":
            p = op[1]
            d = p.d
            k = t.cumulants_from_coefficients(p)
            m = t.moments_from_coefficients(p, d)
            return (k, m, t.coefficients_from_cumulants(k),
                    t.coefficients_from_moments(m, d),
                    t.cumulants_from_moments(m, d),
                    t.moments_from_cumulants(k, d))
        if op[0] == "boxplus":
            p, q = op[1], op[2]
            r = api.convolution.boxplus(p, q)
            return (t.cumulants_from_coefficients(r),
                    t.cumulants_from_coefficients(p),
                    t.cumulants_from_coefficients(q))
        n = op[1]
        pt = api.partitions
        types = list(pt.iter_types(n))
        return (pt.enumerate_partitions(n), pt.enumerate_noncrossing(n),
                [(ty.sizes(), pt.count_by_type(ty, "all"),
                  pt.count_by_type(ty, "noncrossing")) for ty in types])

    def check(self, api, op, out) -> bool:
        if op[0] == "roundtrip":
            p = op[1]
            k, m, p1, p2, k2, m2 = out
            newton = api.polynomial.moments(p, p.d)
            return (p1 == p and p2 == p and k2.kappa == k.kappa
                    and m2.entries == m.entries and m.entries == newton.entries)
        if op[0] == "boxplus":
            kr, kp, kq = out
            return kr.kappa == tuple(a + b for a, b in zip(kp.kappa, kq.kappa))
        n = op[1]
        allp, nc, counts = out
        by_type = Counter(_sizes(pi) for pi in allp)
        nc_by_type = Counter(_sizes(pi) for pi in nc)
        return (len(allp) == BELL[n] and len(nc) == CATALAN[n]
                and sum(c for _, c, _ in counts) == BELL[n]
                and sum(c for _, _, c in counts) == CATALAN[n]
                and by_type == Counter({s: c for s, c, _ in counts})
                and nc_by_type == Counter({s: c for s, _, c in counts if c}))


def _sizes(pi) -> tuple:
    return tuple(sorted((len(b) for b in pi.blocks), reverse=True))

