"""The paper's moment-cumulant formulas as sums over the set partition lattice.

This is the reference the production transforms are checked against, not a
production path: every conversion in transforms.py runs through O(d^2)
series recurrences, and the tests assert that those give values `==` to the
sums here.  Nothing else in the package calls the sums.  The lattice
polynomials P_sigma(d), Q_sigma(d) and the join-form sum live here too, and
so does every partition helper that only these sums and the tests use: the
order of P(n) (refines, join), 0_n and 1_n, restricted growth strings, the
noncrossing test of one partition, partition types, multiplicative
extensions, block-size products, the characteristic polynomial of P(n) and
the falling factorial as a polynomial.

The sums have two shapes: over sigma in P(n) weighted by d^{|sigma|}
mu(0,sigma) (_mobius_sum), and over an interval [sigma, 1_n] weighted by
(-1)^{|pi|} (|pi|-1)! (_interval_sum).  Each coefficient direction is one
of them; the direct moment <-> cumulant kernels nest the second in the first.

Every sum runs within P(n), so each is bounded by the partition cap
partitions.DEFAULT_N_MAX.  Summands depend on a partition only through its
type (the multiset of block sizes), so a sum over all of P(n) groups it by
type and weighs each type with its exact closed-form count; that is the
same finite sum, reassociated.  The join form is the exception: it tests
rho v sigma = 1_n for every rho in P(n), all at once on a bit-sliced index
of P(n) that is cached for one n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import combinations, product
from math import factorial, prod
from operator import and_

from .errors import DimensionError
from .partitions import (
    PartitionType,
    SetPartition,
    _check_cap,
    _partitions,
    count_by_type,
    enumerate_noncrossing,
    iter_types,
    mobius_of_type,
)
from .polynomial import MomentSequence, MonicPoly
from .transforms import CumulantVector, _first_moments, _order_parameter, _standardize
from .util import VarPoly, _check_int, parse_rational_array

# Established by exhaustive comparison of the two sums for every sigma in
# P(n), n <= 6, and re-checked by the test suite up to n = 8:
# p_sigma_join_form(sigma) == JOIN_FORM_SIGN * p_sigma(sigma).
JOIN_FORM_SIGN = -1


# ---------------------------------------------------------------------------
# the partition lattice: 0_n, 1_n, order, join and per-partition products
# ---------------------------------------------------------------------------

def zero_partition(n: int) -> SetPartition:
    """0_n, the all-singletons partition."""
    _check_int(n, "ground-set size", 1)
    return SetPartition(tuple((i,) for i in range(1, n + 1)))


def one_partition(n: int) -> SetPartition:
    """1_n, the single-block partition."""
    _check_int(n, "ground-set size", 1)
    return SetPartition((tuple(range(1, n + 1)),))


def rgs_strings(n: int):
    """Yield all restricted growth strings of length n, lexicographically.

    s[0] = 0 and s[i] <= 1 + max(s[:i]); one string per partition of {1..n}.
    """
    return (pi.labels()[1:] for pi in _partitions(n, False))


def join(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Least upper bound of pi and sigma in reverse refinement order."""
    if pi.n != sigma.n:
        raise DimensionError(
            "join over different ground sets: %d vs %d" % (pi.n, sigma.n)
        )
    components = []
    for block in pi.blocks + sigma.blocks:
        merged = set(block)
        apart = []
        for c in components:
            if merged.isdisjoint(c):
                apart.append(c)
            else:
                merged |= c
        components = apart + [merged]
    return SetPartition(components)


def refines(pi: SetPartition, sigma: SetPartition) -> bool:
    """True iff pi <= sigma (every block of pi lies inside a block of sigma)."""
    if pi.n != sigma.n:
        raise DimensionError(
            "refinement over different ground sets: %d vs %d" % (pi.n, sigma.n)
        )
    lab = sigma.labels()
    return all(lab[e] == lab[block[0]] for block in pi.blocks for e in block)


def is_noncrossing(pi: SetPartition) -> bool:
    """False iff some a<b<c<d has a,c in one block and b,d in another.

    Linear scan: walking 1..n while keeping the stack of unfinished blocks,
    the partition is non-crossing iff no block resurfaces from under the top
    of the stack (well-nestedness).
    """
    lab = pi.labels()
    last = [block[-1] for block in pi.blocks]
    stack = []
    for e in range(1, pi.n + 1):
        b = lab[e]
        if not stack or stack[-1] != b:
            if b in stack:
                return False
            stack.append(b)
        if last[b] == e:
            stack.pop()
    return True


def partition_type(pi: SetPartition) -> PartitionType:
    r = [0] * pi.n
    for block in pi.blocks:
        r[len(block) - 1] += 1
    return PartitionType(r)


def multiplicative_extension(f, pi: SetPartition) -> Fraction:
    """prod over blocks V of f[|V| - 1], i.e. f indexed 1..n by block size.

    Raises IndexError when f is shorter than the largest block.
    """
    f = parse_rational_array(f, "f")
    return prod((f[len(b) - 1] for b in pi.blocks), start=Fraction(1))


def block_size_product(sigma: SetPartition) -> int:
    """Product of all block sizes of sigma."""
    return prod(map(len, sigma.blocks))


def partition_lattice_charpoly(n: int) -> VarPoly:
    """Sum over P(n) of mu(0,pi) t^{|pi|}; equals the falling factorial (t)_n.

    Grouped by type: every summand depends on pi only through its type.
    """
    _check_cap(n)
    coeffs = [0] * (n + 1)
    for t in iter_types(n):
        coeffs[t.num_blocks] += count_by_type(t, "all") * mobius_of_type(t)
    return VarPoly("t", coeffs)


def falling(x, n: int):
    """(x)_n = x(x-1)...(x-n+1), with (x)_0 = 1.  Exact on int/Fraction."""
    v = 1
    for i in range(n):
        v = v * (x - i)
    return v


def falling_poly(n: int, var: str = "d") -> VarPoly:
    """(var)_n as an exact VarPoly."""
    out = VarPoly(var, [1])
    for i in range(n):
        out = out * VarPoly(var, [-i, 1])
    return out


# ---------------------------------------------------------------------------
# type bookkeeping
# ---------------------------------------------------------------------------

@cache
def _types(n: int) -> tuple:
    """Per type of P(n): (count, num_blocks, mu, sizes)."""
    return tuple(
        (count_by_type(t, "all"), t.num_blocks, mobius_of_type(t), t.sizes())
        for t in iter_types(n)
    )


def _seq_over_sizes(f, sizes) -> Fraction:
    """prod f[s-1] over s in sizes; f indexed by 1..n."""
    return prod((f[s - 1] for s in sizes), start=Fraction(1))


def _mobius_sum(f, d: Fraction, n: int, inner=None) -> Fraction:
    """sum over sigma in P(n) of d^{|sigma|} mu(0,sigma) f_sigma, each nonzero
    term times inner(block sizes of sigma) when inner is given."""
    s = Fraction(0)
    for cnt, m, mu, sizes in _types(n):
        v = _seq_over_sizes(f, sizes)
        if v and inner:
            v *= inner(sizes)
        s += cnt * d**m * mu * v
    return s


def _merged_products_stream(sizes: tuple):
    """Yield (c, merged) over pi >= sigma, for sigma with the given block
    sizes: merged is the block sizes of pi and c = (-1)^{|pi|} (|pi|-1)!,
    times the number of such pi when they are grouped."""
    if len(set(sizes)) == 1:
        # the interval collapses by type: merged sizes are s0 * (type sizes)
        for cnt, nb, _, tsizes in _types(len(sizes)):
            c = cnt * (-1) ** nb * factorial(nb - 1)
            yield c, [sizes[0] * t for t in tsizes]
        return
    # otherwise one pi per set partition of sigma's labeled blocks
    for rgs in rgs_strings(len(sizes)):
        merged = [0] * (max(rgs) + 1)
        for i, lab in enumerate(rgs):
            merged[lab] += sizes[i]
        yield (-1) ** len(merged) * factorial(len(merged) - 1), merged


def _interval_sum(sizes: tuple, f) -> Fraction:
    """sum over pi >= sigma of (-1)^{|pi|} (|pi|-1)! f_pi, for sigma with the
    given block sizes; f_pi = prod over blocks V of pi of f[|V| - 1]."""
    return sum((c * _seq_over_sizes(f, merged)
                for c, merged in _merged_products_stream(sizes)), Fraction(0))


@cache
def _p_sigma_poly(sizes: tuple) -> VarPoly:
    """P_sigma(d) = sum over pi >= sigma of (-1)^{|pi|} (d)_pi (|pi|-1)! as an
    exact polynomial in d, for sigma with the given block sizes."""
    out = VarPoly("d", ())
    for c, merged in _merged_products_stream(sizes):
        term = VarPoly("d", [c])
        for t in merged:
            term = term * falling_poly(t)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# single lattice sums: coefficients <-> cumulants, coefficients <-> moments
# ---------------------------------------------------------------------------


def coefficients_from_cumulants(k: CumulantVector) -> MonicPoly:
    """a_n = (d)_n / (d^n n!) * sum over P(n) of d^{|pi|} mu(0,pi) kappa_pi."""
    d = k.d
    _check_cap(d)
    dq, kap = Fraction(d), _standardize(k)
    return MonicPoly(d, (Fraction(1),) + tuple(
        falling(dq, n) / (dq**n * factorial(n)) * _mobius_sum(kap, dq, n)
        for n in range(1, d + 1)
    ))


def cumulants_from_coefficients(p: MonicPoly) -> CumulantVector:
    """kappa_n = (-d)^n / (d (n-1)!) * sum over P(n) of
    (-1)^{|pi|} N!_pi a_pi (|pi|-1)! / (d)_pi."""
    d = p.d
    _check_cap(d)
    dq = Fraction(d)
    f = [factorial(t) * a / falling(dq, t) for t, a in enumerate(p.a[1:], 1)]
    return CumulantVector(tuple(
        (-dq) ** n / (dq * factorial(n - 1)) * _interval_sum((1,) * n, f)
        for n in range(1, d + 1)
    ))


def coefficients_from_moments(m: MomentSequence, d: int) -> MonicPoly:
    """a_n = (1/n!) * sum over P(n) of d^{|pi|} mu(0,pi) m_pi."""
    mv = _first_moments(m, d, "d")
    _check_cap(d)
    return MonicPoly(d, (Fraction(1),) + tuple(
        _mobius_sum(mv, Fraction(d), n) / factorial(n) for n in range(1, d + 1)
    ))


def moments_from_coefficients(p: MonicPoly, N: int) -> MomentSequence:
    """m_n = (-1)^n / (d (n-1)!) * sum over P(n) of
    (-1)^{|pi|} N!_pi (|pi|-1)! a_pi, with a_k = 0 past the degree."""
    _check_cap(N)
    avals = (p.a[1:] + (Fraction(0),) * N)[:N]
    f = [factorial(t) * a for t, a in enumerate(avals, 1)]
    return MomentSequence(tuple(
        Fraction((-1) ** n, p.d * factorial(n - 1)) * _interval_sum((1,) * n, f)
        for n in range(1, N + 1)
    ), degree_context=p.d)


def free_moments_from_free_cumulants(r, N: int) -> tuple:
    """m_n = sum over NC(n) of r_pi, n = 1..N, by enumerating NC(n); r is a
    FreeCumulantVector, zero past its end."""
    rv = r.entries + (Fraction(0),) * max(0, N - len(r))
    return tuple(
        sum(
            (multiplicative_extension(rv, pi)
             for pi in enumerate_noncrossing(n)),
            Fraction(0),
        )
        for n in range(1, N + 1)
    )


# ---------------------------------------------------------------------------
# double lattice sums: moments <-> cumulants directly
# ---------------------------------------------------------------------------


def cumulant_from_moments(m, d, n: int) -> Fraction:
    """Single kappa_n from the first n moments at degree (or parameter) d.

    kappa_n = (-1)^n d^{n-1} / (n-1)! * sum over sigma in P(n) of
    d^{|sigma|} mu(0,sigma) m_sigma * sum over pi >= sigma of
    (-1)^{|pi|} (|pi|-1)! / (d)_pi.

    d may exceed the lattice cap (the sum runs over P(n), not P(d)); it must
    not be an integer below n, where (d)_pi vanishes.
    """
    mv = _first_moments(m, n, "cumulant order n")
    _check_cap(n)
    dq = _order_parameter(d, n)
    f = [1 / falling(dq, t) for t in range(1, n + 1)]
    s = _mobius_sum(mv, dq, n, lambda sizes: _interval_sum(sizes, f))
    return Fraction((-1) ** n) * dq ** (n - 1) / factorial(n - 1) * s


def moment_from_cumulants(k: CumulantVector, n: int) -> Fraction:
    """Single m_n from cumulants, valid for any n >= 1 (kappa_j = 0 past d).

    m_n = (-1)^n / (d^{n+1} (n-1)!) * sum over sigma in P(n) of
    d^{|sigma|} mu(0,sigma) kappa_sigma P_sigma(d), with P_sigma the inner
    sum over {pi >= sigma} of (-1)^{|pi|} (d)_pi (|pi|-1)!.
    """
    _check_cap(n)
    kap = list(_standardize(k)) + [Fraction(0)] * max(0, n - k.d)
    dq = Fraction(k.d)
    f = [falling(k.d, t) for t in range(1, n + 1)]
    s = _mobius_sum(kap, dq, n, lambda sizes: _interval_sum(sizes, f))
    return Fraction((-1) ** n) / (dq ** (n + 1) * factorial(n - 1)) * s


# ---------------------------------------------------------------------------
# the lattice polynomials P_sigma(d), Q_sigma(d) and the join-form sum
# ---------------------------------------------------------------------------


def p_sigma(sigma: SetPartition) -> VarPoly:
    """P_sigma(d) = sum over pi >= sigma of (-1)^{|pi|} (d)_pi (|pi|-1)!.

    Computed over the interval [sigma, 1_n], which is the partition lattice
    of sigma's blocks; the value depends only on sigma's block sizes.
    """
    _check_cap(sigma.n)
    return _p_sigma_poly(tuple(sorted(map(len, sigma.blocks), reverse=True)))


def p_sigma_defining_sum(sigma: SetPartition) -> VarPoly:
    """P_sigma by literally filtering the full enumeration of P(n)."""
    out = VarPoly("d", ())
    for pi in _partitions(sigma.n, False):
        if refines(sigma, pi):
            r = len(pi.blocks)
            term = VarPoly("d", [(-1) ** r * factorial(r - 1)])
            for block in pi.blocks:
                term = term * falling_poly(len(block))
            out = out + term
    return out


@lru_cache(maxsize=1)
def _scan_index(n: int) -> tuple:
    """A bit-sliced index of P(n), bit j for the j-th partition in RGS order:
    pairs[e, f], e < f, holds the partitions in which e and f share a block,
    and types[sizes] those whose block sizes, descending, are sizes.

    Bits are set in bytearrays and each is converted to an int once; setting
    them on a growing int would rewrite it for every partition.
    """
    _check_cap(n)
    nbytes = (sum(row[0] for row in _types(n)) + 7) // 8
    pairs = {ef: bytearray(nbytes) for ef in combinations(range(1, n + 1), 2)}
    types = {row[3]: bytearray(nbytes) for row in _types(n)}
    for j, pi in enumerate(_partitions(n, False)):
        byte, bit = j >> 3, 1 << (j & 7)
        for block in pi.blocks:
            for ef in combinations(block, 2):
                pairs[ef][byte] |= bit
        types[tuple(sorted(map(len, pi.blocks), reverse=True))][byte] |= bit
    return tuple({k: int.from_bytes(v, "little") for k, v in bits.items()}
                 for bits in (pairs, types))


def p_sigma_join_form(sigma: SetPartition) -> VarPoly:
    """sum over {rho : rho v sigma = 1_n} of d^{|rho|} mu(0,rho).

    A literal test of rho v sigma = 1_n for every rho in P(n) at once, on the
    index _scan_index(n): rho links sigma's blocks a and b when one of its
    blocks meets both, and rho v sigma = 1_n when the links connect all of
    sigma's blocks, which relaxing reachability from block 0 decides.
    Relation to p_sigma: this equals JOIN_FORM_SIGN * p_sigma(sigma).
    """
    n, blocks = sigma.n, sigma.blocks
    pairs, types = _scan_index(n)
    k = len(blocks)
    meets = [[0] * k for _ in blocks]
    for a, b in combinations(range(k), 2):
        for e, f in product(blocks[a], blocks[b]):
            meets[a][b] |= pairs[min(e, f), max(e, f)]
        meets[b][a] = meets[a][b]
    reach = [-1] + [0] * (k - 1)  # -1 has every bit set: each rho reaches block 0
    for _ in range(k - 1):
        for a, b in product(range(k), range(1, k)):
            reach[b] |= reach[a] & meets[a][b]
    connected = reduce(and_, reach)
    coeffs = [0] * (n + 1)
    for _, m, mu, sizes in _types(n):
        coeffs[m] += mu * (connected & types[sizes]).bit_count()
    return VarPoly("d", coeffs)


def q_sigma(sigma: SetPartition) -> VarPoly:
    """Q_sigma(d) = (n+1-|sigma|)! / ((-1)^{|sigma|} (n-1)! n_sigma) P_sigma(d);
    monic of degree n+1-|sigma|."""
    n = sigma.n
    m = len(sigma.blocks)
    scale = Fraction(
        factorial(n + 1 - m), (-1) ** m * factorial(n - 1) * block_size_product(sigma)
    )
    return p_sigma(sigma).scale(scale)
