"""Set partitions of {1..n}: the P(n) and NC(n) walks, noncrossing
detection, types, Moebius values from 0_n and per-type counts.

This is what the production path uses: the CLI's partitions command and the
partition cap DEFAULT_N_MAX.  The lattice order (refines, join), 0_n and 1_n,
and the other helpers of the paper's lattice sums live with those sums in
lattice.py, the tested reference.  The closed forms for the Moebius function
and the per-type counts make recursive poset inversion unnecessary.

Enumeration order is restricted-growth-string lexicographic and is part of
the contract: callers may cache against it.  One recursion over restricted
growth strings walks both P(n) and NC(n); in NC(n) an element may only join
a block that is still open, so the walk visits Catalan(n) leaves, not
Bell(n).  Partitions are checked where outside data enters, in from_blocks;
the walks build them unchecked, valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .errors import FinFreeError, InputFormatError, SizeCapError
from .util import _check_int

DEFAULT_N_MAX = 12


def _check_size(n: int) -> None:
    _check_int(n, "ground-set size")
    if n < 1:
        raise InputFormatError("ground-set size must be >= 1, got %d" % n)


def _check_cap(n: int) -> None:
    _check_size(n)
    if n > DEFAULT_N_MAX:
        raise SizeCapError(n, DEFAULT_N_MAX, "ground-set size",
                           "the partition cap DEFAULT_N_MAX")


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} in canonical form.

    blocks are sorted internally and ordered by least element, so equal
    partitions compare equal and hash equally.  The bare constructor trusts
    its arguments and serves the package's own walks, whose restricted growth
    strings give valid partitions by construction; outside data enters
    through from_blocks, which checks it.
    """

    n: int
    blocks: tuple

    @classmethod
    def from_blocks(cls, n, blocks) -> "SetPartition":
        """Check that n >= 1 and the elements are integers and that the
        blocks are nonempty and cover {1..n} exactly once."""
        blocks = [tuple(b) for b in blocks]
        if not all(type(x) is int for x in [n] + [e for b in blocks for e in b]):
            raise InputFormatError(
                "n %.80r or an element of %.80r is not an int" % (n, blocks))
        _check_size(n)
        canon = sorted(tuple(sorted(b)) for b in blocks)
        elements = sorted(e for b in canon for e in b)
        # lengths first: n may be far larger than the blocks
        if not all(canon) or len(elements) != n or elements != list(range(1, n + 1)):
            raise InputFormatError(
                "blocks %.80r do not cover {1..%d} exactly once" % (canon, n)
            )
        return cls(n, tuple(canon))

    def labels(self) -> list:
        """labels()[e] is the block index of element e (index 0 unused)."""
        lab = [0] * (self.n + 1)
        for k, block in enumerate(self.blocks):
            for e in block:
                lab[e] = k
        return lab

    def __str__(self):
        return "{" + "|".join(",".join(str(e) for e in b) for b in self.blocks) + "}"


def _walk(n: int, noncrossing: bool):
    """Yield the blocks of each partition of {1..n}, in lexicographic order
    of restricted growth strings.

    Element e joins an open block or opens a new one.  In P(n) every block
    stays open; in NC(n) joining a block closes every block opened after it,
    since a later element of those would cross the one just placed.
    """

    def grow(e, blocks, open_):
        if e > n:
            yield blocks
            return
        for k, lab in enumerate(open_):
            joined = blocks[:lab] + (blocks[lab] + (e,),) + blocks[lab + 1 :]
            still_open = open_[: k + 1] if noncrossing else open_
            yield from grow(e + 1, joined, still_open)
        nb = len(blocks)
        yield from grow(e + 1, blocks + ((e,),), open_ + (nb,))

    return grow(1, (), ())


def _partitions(n: int, noncrossing: bool):
    _check_cap(n)
    for blocks in _walk(n, noncrossing):
        yield SetPartition(n, blocks)


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


def mobius_from_zero(pi: SetPartition) -> int:
    """mu(0_n, pi) = product over blocks V of (-1)^{|V|-1} (|V|-1)!."""
    return prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in pi.blocks)


@dataclass(frozen=True)
class PartitionType:
    """r[i-1] = number of blocks of size i; sum of i*r_i is n."""

    n: int
    r: tuple

    def __post_init__(self):
        _check_size(self.n)
        if len(self.r) != self.n or any(x < 0 for x in self.r):
            raise InputFormatError("type vector must have length n, entries >= 0")
        if sum((i + 1) * x for i, x in enumerate(self.r)) != self.n:
            raise InputFormatError("type vector does not weigh n")

    @classmethod
    def from_sizes(cls, n, sizes) -> "PartitionType":
        _check_size(n)
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
    _check_size(n)

    def rec(remaining, max_part, sizes):
        if remaining == 0:
            yield PartitionType.from_sizes(n, sizes)
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from rec(remaining - part, part, sizes + [part])

    return rec(n, n, [])


def enumerate_noncrossing(n: int) -> list:
    """All non-crossing partitions of {1..n}, RGS order; length Catalan(n)."""
    return list(_partitions(n, True))
