"""Set partitions of {1..n}: enumeration, lattice operations, Moebius values.

P(n) is ordered by reverse refinement (0_n = all singletons at the bottom,
1_n = one block at the top).  Everything here is exact integer/rational
combinatorics; the closed forms for the Moebius function and the per-type
counts make recursive poset inversion unnecessary.

Enumeration order is restricted-growth-string lexicographic and is part of
the contract: callers may cache against it.  One recursion over restricted
growth strings walks both P(n) and NC(n); in NC(n) an element may only join
a block that is still open, so the walk visits Catalan(n) leaves, not
Bell(n).  Partitions are checked where outside data enters (from_blocks,
parse, from_rgs); the walks build them unchecked, valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .errors import DimensionError, FinFreeError, InputFormatError, SizeCapError
from .util import VarPoly

DEFAULT_N_MAX = 12


def _check_cap(n: int) -> None:
    if n < 1:
        raise InputFormatError("ground-set size must be >= 1, got %d" % n)
    if n > DEFAULT_N_MAX:
        raise SizeCapError(n, DEFAULT_N_MAX)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} in canonical form.

    blocks are sorted internally and ordered by least element, so equal
    partitions compare equal and hash equally.  The bare constructor trusts
    its arguments and serves the package's own walks, whose restricted growth
    strings give valid partitions by construction; outside data enters
    through from_blocks, parse or from_rgs, which check it.
    """

    n: int
    blocks: tuple

    @classmethod
    def from_blocks(cls, n, blocks) -> "SetPartition":
        """Check that the blocks are nonempty and cover {1..n} exactly once."""
        canon = sorted(tuple(sorted(b)) for b in blocks)
        elements = sorted(e for b in canon for e in b)
        # lengths first: parse takes n from the largest element, however large
        if not all(canon) or len(elements) != n or elements != list(range(1, n + 1)):
            raise InputFormatError(
                "blocks %.80r do not cover {1..%d} exactly once" % (canon, n)
            )
        return cls(n, tuple(canon))

    @classmethod
    def from_rgs(cls, rgs) -> "SetPartition":
        """Build from a restricted growth string (0-based labels): each label
        is at least 0 and at most 1 above the largest one before it."""
        blocks = []
        for e, lab in enumerate(rgs, start=1):
            if not isinstance(lab, int) or lab not in range(len(blocks) + 1):
                raise InputFormatError(
                    "%.80r is not a restricted growth string" % (list(rgs),)
                )
            if lab == len(blocks):
                blocks.append([])
            blocks[lab].append(e)
        return cls(len(rgs), tuple(map(tuple, blocks)))

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        """Parse the text form "{1,3|2,4}"."""
        t = text.strip()
        if not (t.startswith("{") and t.endswith("}")):
            raise InputFormatError("partition text must look like {1,3|2,4}")
        body = t[1:-1]
        try:
            blocks = [
                tuple(int(x) for x in part.split(","))
                for part in body.split("|")
            ]
        except ValueError as exc:
            raise InputFormatError("bad partition text %r" % text) from exc
        n = max(max(b) for b in blocks)
        return cls.from_blocks(n, blocks)

    def block_sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    def labels(self) -> list:
        """labels()[e] is the block index of element e (index 0 unused)."""
        lab = [0] * (self.n + 1)
        for k, block in enumerate(self.blocks):
            for e in block:
                lab[e] = k
        return lab

    def __str__(self):
        return "{" + "|".join(",".join(str(e) for e in b) for b in self.blocks) + "}"


def zero_partition(n: int) -> SetPartition:
    """0_n, the all-singletons partition."""
    return SetPartition(n, tuple((i,) for i in range(1, n + 1)))


def one_partition(n: int) -> SetPartition:
    """1_n, the single-block partition."""
    return SetPartition(n, (tuple(range(1, n + 1)),))


def _walk(n: int, noncrossing: bool):
    """Yield (rgs, blocks) for the restricted growth strings of length n,
    lexicographically.

    Element e joins an open block or opens a new one.  In P(n) every block
    stays open; in NC(n) joining a block closes every block opened after it,
    since a later element of those would cross the one just placed.
    """

    def grow(s, blocks, open_):
        if len(s) == n:
            yield s, blocks
            return
        e = len(s) + 1
        for k, lab in enumerate(open_):
            joined = blocks[:lab] + (blocks[lab] + (e,),) + blocks[lab + 1 :]
            still_open = open_[: k + 1] if noncrossing else open_
            yield from grow(s + (lab,), joined, still_open)
        nb = len(blocks)
        yield from grow(s + (nb,), blocks + ((e,),), open_ + (nb,))

    return grow((), (), ())


def rgs_strings(n: int):
    """Yield all restricted growth strings of length n, lexicographically.

    s[0] = 0 and s[i] <= 1 + max(s[:i]); one string per partition of {1..n}.
    """
    return (s for s, _ in _walk(n, False))


def _partitions(n: int, noncrossing: bool):
    _check_cap(n)
    for _, blocks in _walk(n, noncrossing):
        yield SetPartition(n, blocks)


def iter_partitions(n: int):
    """Yield all of P(n) in RGS-lexicographic order without materializing."""
    return _partitions(n, False)


def enumerate_partitions(n: int) -> list:
    """All of P(n), RGS-lexicographic; length is Bell(n)."""
    return list(_partitions(n, False))


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
    return SetPartition.from_blocks(pi.n, components)


def refines(pi: SetPartition, sigma: SetPartition) -> bool:
    """True iff pi <= sigma (every block of pi lies inside a block of sigma)."""
    if pi.n != sigma.n:
        raise DimensionError(
            "refinement over different ground sets: %d vs %d" % (pi.n, sigma.n)
        )
    lab = sigma.labels()
    return all(lab[e] == lab[block[0]] for block in pi.blocks for e in block)


def mobius_from_zero(pi: SetPartition) -> int:
    """mu(0_n, pi) = product over blocks V of (-1)^{|V|-1} (|V|-1)!."""
    return prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in pi.blocks)


def mobius_to_one(pi: SetPartition) -> int:
    """mu(pi, 1_n) = (-1)^{|pi|-1} (|pi|-1)!."""
    r = len(pi.blocks)
    return (-1) ** (r - 1) * factorial(r - 1)


@dataclass(frozen=True)
class PartitionType:
    """r[i-1] = number of blocks of size i; sum of i*r_i is n."""

    n: int
    r: tuple

    def __post_init__(self):
        if len(self.r) != self.n or any(x < 0 for x in self.r):
            raise InputFormatError("type vector must have length n, entries >= 0")
        if sum((i + 1) * x for i, x in enumerate(self.r)) != self.n:
            raise InputFormatError("type vector does not weigh n")

    @classmethod
    def from_sizes(cls, n, sizes) -> "PartitionType":
        r = [0] * n
        for s in sizes:
            r[s - 1] += 1
        return cls(n, tuple(r))

    @property
    def num_blocks(self) -> int:
        return sum(self.r)

    def sizes(self) -> tuple:
        """Block sizes, descending."""
        out = []
        for i in range(self.n, 0, -1):
            out.extend([i] * self.r[i - 1])
        return tuple(out)


def partition_type(pi: SetPartition) -> PartitionType:
    return PartitionType.from_sizes(pi.n, pi.block_sizes())


def mobius_of_type(t: PartitionType) -> int:
    """mu(0_n, pi) for any pi of type t (it only depends on the type)."""
    return prod(((-1) ** (i - 1) * factorial(i - 1)) ** ri
                for i, ri in enumerate(t.r, start=1))


def count_by_type(t: PartitionType, mode: str = "all") -> int:
    """Number of partitions (all of P(n), or only non-crossing) of type t.

    all:         n! / (prod_i r_i! * prod_i (i!)^{r_i})
    noncrossing: n! / (prod_i r_i! * (n - m + 1)!)   with m blocks total
    """
    p_r = prod(map(factorial, t.r))
    if mode == "noncrossing":
        den = p_r * factorial(t.n - t.num_blocks + 1)
    elif mode == "all":
        den = p_r * prod(factorial(i) ** ri for i, ri in enumerate(t.r, start=1))
    else:
        raise InputFormatError("mode must be 'all' or 'noncrossing'")
    num = factorial(t.n)
    q, rem = divmod(num, den)
    if rem:
        raise FinFreeError("type count %d/%d is not integral" % (num, den))
    return q


def iter_types(n: int):
    """All partition types of n (integer partitions of n), deterministic order."""

    def rec(remaining, max_part, sizes):
        if remaining == 0:
            yield PartitionType.from_sizes(n, sizes)
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from rec(remaining - part, part, sizes + [part])

    yield from rec(n, n, [])


def multiplicative_extension(f, pi: SetPartition) -> Fraction:
    """prod over blocks V of f[|V| - 1], i.e. f indexed 1..n by block size.

    Raises IndexError when f is shorter than the largest block.
    """
    return prod((Fraction(f[len(b) - 1]) for b in pi.blocks), start=Fraction(1))


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
    return VarPoly.make("t", coeffs)


def enumerate_noncrossing(n: int) -> list:
    """All non-crossing partitions of {1..n}, RGS order; length Catalan(n)."""
    return list(_partitions(n, True))
