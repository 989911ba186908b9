"""Set partitions of {1..n}: the P(n) and NC(n) walks, types, Moebius
values from 0_n and per-type counts.

This is what the production path uses: the CLI's partitions command and the
partition cap DEFAULT_N_MAX.  The lattice order (refines, join), 0_n and 1_n,
the noncrossing test of one partition and the other helpers of the paper's
lattice sums live with those sums in lattice.py, the tested reference.  The
closed forms for the Moebius function and the per-type counts make
recursive poset inversion unnecessary.

Enumeration order is restricted-growth-string lexicographic and is part of
the contract: callers may cache against it.  One generator walks the tree of
restricted growth strings depth first from an explicit stack, for both P(n)
and NC(n), and stays lazy, since the reference iterates it up to the cap; in
NC(n) an element may only join a block that is still open, so the walk
visits Catalan(n) leaves, not Bell(n).  Partitions are checked where outside
data enters, in from_blocks; the walk builds them unchecked, valid by
construction.  Each distinct block is built once a walk and shared by
every partition that holds it, so a leaf costs one tuple of blocks and one
bare instance and no block.  The last two elements are placed in one
frame, so no node that places n reaches the stack: a node that places
n - 1 copies its blocks into a list once, each choice of n - 1 and then
each choice of n takes its slot in turn, and the one field, the blocks,
is stored through its slot descriptor, with no call to __init__.  A
partition stores only its blocks and a type only its counts; the ground-set
size n is derived from them.  The CLI's listing (cli._listing_text) reads
the walk lazily, one row per leaf.  iter_types builds partition types the
same way, each from one running count list, unchecked; PartitionType's
__init__ and from_sizes check outside data.
"""

from __future__ import annotations

from math import factorial, prod

from .errors import FinFreeError, InputFormatError, SizeCapError
from .util import Value, _check_int, _store

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


class SetPartition(Value):
    """A partition of {1..n} in canonical form, stored as its blocks alone.

    blocks are sorted internally and ordered by least element, so equal
    partitions compare equal and hash equally; n is the total size of the
    blocks.  The bare constructor trusts its argument, as the walk's leaves,
    stored without it, are valid by construction; outside data enters
    through from_blocks, which checks it against the claimed n.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple):
        _store(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(map(len, self.blocks))

    @classmethod
    def from_blocks(cls, n, blocks) -> "SetPartition":
        """Check that n >= 1 and the elements are integers and that the
        blocks are nonempty and cover {1..n} exactly once."""
        _check_size(n)
        blocks = [tuple(b) for b in blocks]
        if not all(type(e) is int for b in blocks for e in b):
            raise InputFormatError("an element of %.80r is not an int" % (blocks,))
        canon = sorted(tuple(sorted(b)) for b in blocks)
        elements = sorted(e for b in canon for e in b)
        # lengths first: n may be far larger than the blocks
        if not all(canon) or len(elements) != n or elements != list(range(1, n + 1)):
            raise InputFormatError(
                "blocks %.80r do not cover {1..%d} exactly once" % (canon, n)
            )
        return cls(tuple(canon))

    def labels(self) -> list:
        """labels()[e] is the block index of element e (index 0 unused)."""
        lab = [0] * (self.n + 1)
        for k, block in enumerate(self.blocks):
            for e in block:
                lab[e] = k
        return lab

    def __str__(self):
        return "{" + "|".join(",".join(str(e) for e in b) for b in self.blocks) + "}"


# makes the walk's bare leaves; a module name, so a test can count them
_new = object.__new__


def _partitions(n: int, noncrossing: bool):
    """Yield each partition of {1..n}, in lexicographic order of restricted
    growth strings, after checking the cap.

    Element e joins an open block or opens a new one.  In P(n) every block
    stays open; in NC(n) joining a block closes every block opened after it,
    since a later element of those would cross the one just placed.  The
    tree is walked depth first from one stack of (e, blocks, open labels),
    the children pushed last-first so that they pop in order.

    Each distinct block is built once a walk: grown[e] maps a block b to
    the one tuple b + (e,) that every node and leaf placing e in b shares,
    and single[e] is the one ((e,),) that opens a block.  The dicts hold at
    most 2^n - 1 blocks and go with the generator.

    A node that places n - 1 yields its grandchildren, the leaves, in its
    own frame, so P(8) pushes 279 nodes, not 1,156, and NC(8) 197, not 626.
    Its blocks are copied into one row list once; each choice of n - 1 (each
    open block's extension in order, then the new block (n - 1,)) takes its
    slot in the row, each choice of n then takes its slot in turn, and each
    leaf's blocks are stored into a bare instance through the slot
    descriptor, the same unchecked store as __init__'s without its call.
    For n = 1 the one leaf is yielded directly.
    """
    _check_cap(n)
    new, set_blocks = _new, SetPartition.blocks.__set__
    single = [((e,),) for e in range(n + 1)]
    grown = [{} for _ in single]
    if n == 1:
        pi = new(SetPartition)
        set_blocks(pi, single[1])
        yield pi
        return
    last, grow_n, single_n = n - 1, grown[n], single[n]
    stack = [(1, (), ())]
    pop, push = stack.pop, stack.append
    while stack:
        e, blocks, open_ = pop()
        grow = grown[e]
        if e == last:
            row = list(blocks)
            new_lab = len(blocks)
            for k, lab in enumerate(open_ + (new_lab,)):
                if lab < new_lab:
                    b = blocks[lab]
                    row[lab] = grow.get(b) or grow.setdefault(b, b + (e,))
                    reach = open_[: k + 1] if noncrossing else open_
                else:
                    row.append(single[e][0])
                    reach = open_ + (lab,)
                for j in reach:
                    c = row[j]
                    row[j] = grow_n.get(c) or grow_n.setdefault(c, c + (n,))
                    pi = new(SetPartition)
                    set_blocks(pi, tuple(row))
                    yield pi
                    row[j] = c
                pi = new(SetPartition)
                set_blocks(pi, tuple(row) + single_n)
                yield pi
                if lab < new_lab:
                    row[lab] = b
            continue
        push((e + 1, blocks + single[e], open_ + (len(blocks),)))
        for k in range(len(open_) - 1, -1, -1):
            lab = open_[k]
            b = blocks[lab]
            ext = grow.get(b) or grow.setdefault(b, b + (e,))
            joined = blocks[:lab] + (ext,) + blocks[lab + 1 :]
            push((e + 1, joined, open_[: k + 1] if noncrossing else open_))


def enumerate_partitions(n: int) -> list:
    """All of P(n), RGS-lexicographic; length is Bell(n)."""
    return list(_partitions(n, False))


def mobius_from_zero(pi: SetPartition) -> int:
    """mu(0_n, pi) = product over blocks V of (-1)^{|V|-1} (|V|-1)!."""
    return prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in pi.blocks)


class PartitionType(Value):
    """r[i-1] = number of blocks of size i, stored as the counts alone; n is
    len(r), and the weight, the sum of i*r_i, is n."""

    __slots__ = ("r",)

    def __init__(self, r):
        if not (isinstance(r, (list, tuple)) and r
                and all(type(x) is int and x >= 0 for x in r)
                and sum(i * x for i, x in enumerate(r, start=1)) == len(r)):
            raise InputFormatError(
                "type vector must be a nonempty list or tuple of ints >= 0 "
                "whose weight is its length, got %.80r" % (r,))
        _store(self, "r", tuple(r))

    @property
    def n(self) -> int:
        return len(self.r)

    @classmethod
    def from_sizes(cls, n, sizes) -> "PartitionType":
        """The type of a partition of {1..n} with the given block sizes, each
        an int in 1..n."""
        _check_size(n)
        r = [0] * n
        for s in sizes:
            if type(s) is not int or not 1 <= s <= n:
                raise InputFormatError(
                    "block size %.80r is not an int in 1..%d" % (s, n))
            r[s - 1] += 1
        return cls(r)

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
    """All partition types of n (integer partitions of n), deterministic order:
    the descending size lists in descending lexicographic order, from (n) to
    (1, ..., 1).

    One running count list r is walked: the next type removes one part s,
    the least above 1, and refills the freed weight (s plus the ones)
    greedily with parts of size s - 1.  Each type is valid by construction,
    so its counts are stored into a bare instance through the slot
    descriptor, as the partition walk's leaves are; from_sizes and __init__
    check outside data.
    """
    _check_size(n)
    new, set_r = _new, PartitionType.r.__set__

    def walk():
        r = [0] * n
        r[n - 1] = 1
        while True:
            t = new(PartitionType)
            set_r(t, tuple(r))
            yield t
            for s in range(2, n + 1):
                if r[s - 1]:
                    break
            else:
                return
            r[s - 1] -= 1
            q, rem = divmod(s + r[0], s - 1)
            r[0] = 0
            r[s - 2] += q
            if rem:
                r[rem - 1] += 1

    return walk()


def enumerate_noncrossing(n: int) -> list:
    """All non-crossing partitions of {1..n}, RGS order; length Catalan(n)."""
    return list(_partitions(n, True))
