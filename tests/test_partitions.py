"""Lattice layer: enumeration, order, Mobius, type counting."""

import copy
import inspect
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from finfree import (
    PartitionType,
    SetPartition,
    count_by_type,
    enumerate_noncrossing,
    enumerate_partitions,
    iter_types,
    mobius_from_zero,
    mobius_of_type,
)
from finfree import partitions
from finfree.errors import DimensionError, InputFormatError, SizeCapError
from finfree.lattice import (
    block_size_product,
    falling_poly,
    is_noncrossing,
    join,
    multiplicative_extension,
    one_partition,
    partition_lattice_charpoly,
    partition_type,
    refines,
    rgs_strings,
    zero_partition,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def rand_partition(n, rng):
    # element e joins one of the blocks so far or opens a new one
    blocks = [[1]]
    for e in range(2, n + 1):
        lab = rng.randint(0, len(blocks))
        if lab == len(blocks):
            blocks.append([])
        blocks[lab].append(e)
    return SetPartition(blocks)


def test_bell_counts():
    for n in range(1, 11):
        assert len(enumerate_partitions(n)) == BELL[n]
        strings = list(rgs_strings(n))
        assert len(strings) == BELL[n]
        assert all(a < b for a, b in zip(strings, strings[1:]))


def test_catalan_counts():
    for n in range(1, 11):
        nc = enumerate_noncrossing(n)
        assert len(nc) == CATALAN[n]
        # the direct walk against the Bell(n) filter, order included
        assert nc == [pi for pi in enumerate_partitions(n) if is_noncrossing(pi)]


def brute_rgs_partitions(n):
    """P(n) from the strings s with 0 <= s_i < i kept when s_i <= 1 + max(s_<i),
    in the lexicographic order of itertools.product."""
    out = []
    for s in itertools.product(*map(range, range(1, n + 1))):
        if all(s[i] <= 1 + max(s[:i]) for i in range(1, n)):
            blocks = [[] for _ in range(max(s) + 1)]
            for e, lab in enumerate(s, start=1):
                blocks[lab].append(e)
            out.append((n, tuple(map(tuple, blocks))))
    return out


def test_walk_matches_brute_force_growth_strings():
    # blocks and order, against a walk that shares no code with the package
    for n in range(1, 9):
        assert [(p.n, p.blocks) for p in enumerate_partitions(n)] == brute_rgs_partitions(n)


def test_walk_is_lazy_at_the_cap(monkeypatch):
    # the first 10^4 partitions of {1..12} come without building the other
    # 4.2 million: the walk makes no partition it has not yielded
    made = []

    def counted(cls):
        made.append(None)
        return object.__new__(cls)

    monkeypatch.setattr(partitions, "_new", counted)
    walk = partitions._partitions(12, False)
    assert inspect.isgenerator(walk)
    tracemalloc.start()
    try:
        head = list(itertools.islice(walk, 10**4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(made) == len(head) == 10**4 and peak < 2**25
    strings = [tuple(pi.labels()[1:]) for pi in head]
    assert strings[0] == (0,) * 12 and all(a < b for a, b in zip(strings, strings[1:]))
    # the cap is checked before the first item
    with pytest.raises(SizeCapError):
        next(partitions._partitions(13, True))


@pytest.mark.parametrize("noncrossing", [False, True])
def test_walk_leaves_are_the_checked_constructors_values(noncrossing):
    # each leaf, stored without __init__, is the value the checked
    # constructor builds from its blocks: equal, hashed, pickled and shown
    # alike
    for n in range(1, 9):
        for pi in partitions._partitions(n, noncrossing):
            checked = SetPartition(pi.blocks)
            assert type(pi) is SetPartition and pi == checked
            assert type(pi.blocks) is tuple and all(type(b) is tuple for b in pi.blocks)
            assert hash(pi) == hash(checked) and repr(pi) == repr(checked)
            back = pickle.loads(pickle.dumps(pi))
            assert back == checked and hash(back) == hash(checked)


@pytest.mark.parametrize("noncrossing", [False, True])
def test_walk_builds_each_block_once(noncrossing):
    # every leaf of one walk that holds a block holds the same tuple object:
    # with the leaves alive, no two blocks share an id, so one id per value
    for n in range(1, 9):
        leaves = list(partitions._partitions(n, noncrossing))
        blocks = [b for pi in leaves for b in pi.blocks]
        assert len({id(b) for b in blocks}) == len(set(blocks)) == 2**n - 1


@pytest.mark.parametrize("noncrossing", [False, True])
def test_walk_leaves_derive_n_from_their_blocks(noncrossing):
    # a leaf stores its blocks alone; its n is their total size, which is
    # the largest element of the ground set {1..n}
    for n in range(1, 9):
        for pi in partitions._partitions(n, noncrossing):
            assert pi.n == max(max(b) for b in pi.blocks) == n
            assert len(pi.labels()) == n + 1


def test_partition_values_store_only_what_fixes_n():
    assert SetPartition.__slots__ == ("blocks",)
    assert PartitionType.__slots__ == ("r",)
    pi = SetPartition([[1, 3], [2]])
    t = PartitionType([1, 1, 0])
    assert (pi.n, t.n) == (3, 3)
    for v in (pi, t):
        with pytest.raises(AttributeError):
            v.n = 4
        with pytest.raises(AttributeError):
            del v.n
        assert v.n == 3 and not hasattr(v, "__dict__")


@pytest.mark.parametrize("n", [0, -2, True, 2.0])
def test_zero_and_one_partition_refuse_a_bad_ground_set_size(n):
    for make in (zero_partition, one_partition):
        with pytest.raises(InputFormatError, match="ground-set size"):
            make(n)


def test_set_partition_is_a_frozen_slotted_value():
    pi = enumerate_partitions(5)[17]
    with pytest.raises(AttributeError):
        pi.n = 4
    with pytest.raises(AttributeError):
        pi.blocks = ()
    assert not hasattr(pi, "__dict__")
    same = SetPartition([list(b) for b in reversed(pi.blocks)])
    assert same == pi and hash(same) == hash(pi)


def test_enumeration_order_deterministic():
    # restricted growth strings in lexicographic order
    got = ["".join(map(str, r)) for r in rgs_strings(3)]
    assert got == ["000", "001", "010", "011", "012"]
    assert [str(p) for p in enumerate_partitions(3)] == [
        "{1,2,3}",
        "{1,2|3}",
        "{1,3|2}",
        "{1|2,3}",
        "{1|2|3}",
    ]


def test_canonical_form():
    p = SetPartition([[4, 2], [3, 1]])
    assert str(p) == "{1,3|2,4}"
    assert p.n == 4 and p.blocks == ((1, 3), (2, 4))
    assert p == SetPartition([(1, 3), [2, 4]])
    assert hash(p) == hash(SetPartition([[2, 4], [1, 3]]))


def test_the_constructor_canonicalizes_and_checks_its_blocks():
    # blocks in any order, as any iterables, give one hashable value of
    # sorted tuples; n is what the blocks cover, and they must cover {1..n}
    p = SetPartition(((3, 1), (2,)))
    assert p.blocks == ((1, 3), (2,)) and p.n == 3
    assert p == SetPartition([[1, 3], [2]]) and hash(p) == hash(SetPartition([[1, 3], [2]]))
    q = SetPartition([[1, 2]])
    assert q.blocks == ((1, 2),) and hash(q) == hash(one_partition(2))
    for blocks in (((1,), (1,)), [], [[1, 3]], [[1, 2], []], [[True]]):
        with pytest.raises(InputFormatError):
            SetPartition(blocks)
    # pickle and copy rebuild through the constructor, so a value forged
    # past it does not survive them
    forged = object.__new__(SetPartition)
    SetPartition.blocks.__set__(forged, ((1,), (1,)))
    for rebuild in (copy.copy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(InputFormatError):
            rebuild(forged)


def test_noncrossing_matches_definition():
    # brute force: a crossing is a < b < c < d with a,c together, b,d together
    def crossing(pi):
        lab = pi.labels()
        n = pi.n
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                for c in range(b + 1, n + 1):
                    for d in range(c + 1, n + 1):
                        if lab[a] == lab[c] and lab[b] == lab[d] and lab[a] != lab[b]:
                            return True
        return False

    for n in range(1, 8):
        for pi in enumerate_partitions(n):
            assert is_noncrossing(pi) == (not crossing(pi))


def test_join_examples():
    a = SetPartition([[1, 2], [3, 4]])
    b = SetPartition([[2, 3], [1], [4]])
    assert str(join(a, b)) == "{1,2,3,4}"
    c = SetPartition([[1], [2], [3], [4]])
    assert join(a, c) == a
    for over_three in (join, refines):
        with pytest.raises(DimensionError, match="different ground sets: 4 vs 3"):
            over_three(a, SetPartition([[1, 2], [3]]))


def test_join_is_least_upper_bound():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 7)
        a, b = rand_partition(n, rng), rand_partition(n, rng)
        j = join(a, b)
        assert refines(a, j) and refines(b, j)
        # minimality among all upper bounds
        for c in enumerate_partitions(n):
            if refines(a, c) and refines(b, c):
                assert refines(j, c)


def test_refines_is_partial_order():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 7)
        a, b, c = (rand_partition(n, rng) for _ in range(3))
        assert refines(a, a)
        if refines(a, b) and refines(b, a):
            assert a == b
        if refines(a, b) and refines(b, c):
            assert refines(a, c)
        assert refines(zero_partition(n), a)
        assert refines(a, one_partition(n))


def test_mobius_values():
    assert mobius_from_zero(one_partition(4)) == -6  # (-1)^3 3!
    assert mobius_from_zero(zero_partition(5)) == 1
    pi = SetPartition([[1, 2, 3], [4, 5]])
    assert mobius_from_zero(pi) == (2) * (-1)


def test_mobius_sums_to_zero_over_lattice():
    # sum of mu(0, pi) over P(n) vanishes for n >= 2
    for n in range(2, 8):
        assert sum(mobius_from_zero(pi) for pi in enumerate_partitions(n)) == 0


def test_charpoly_is_falling_factorial():
    for n in range(1, 11):
        assert partition_lattice_charpoly(n).coeffs == falling_poly(n, "t").coeffs


@pytest.mark.parametrize("r", [(1, 1, 0.0), (3.0, 0, 0), (True, True, 0),
                               (1, 1, Fraction(0)), "300"])
def test_partition_type_refuses_entries_that_are_not_ints(r):
    with pytest.raises(InputFormatError, match="list or tuple of ints"):
        PartitionType(r)


def test_partition_type_stores_a_list_as_a_tuple():
    # so the type hashes and compares by value
    t = PartitionType([0, 1])
    assert t.r == (0, 1) and type(t.r) is tuple
    assert t == PartitionType((0, 1)) and hash(t) == hash(PartitionType((0, 1)))
    assert partition_type(SetPartition([[1, 3], [2]])) == PartitionType((1, 1, 0))


def test_type_counts_both_formulas():
    """Counts per type: n! / (p_r prod (i!)^{r_i}) in general and
    n! / (p_r (n - m + 1)!) after restricting to non-crossing."""
    for n in range(1, 9):
        allp = enumerate_partitions(n)
        for t in iter_types(n):
            match = [p for p in allp if partition_type(p) == t]
            assert count_by_type(t, "all") == len(match)
            nc = [p for p in match if is_noncrossing(p)]
            assert count_by_type(t, "noncrossing") == len(nc)
        assert sum(count_by_type(t, "all") for t in iter_types(n)) == BELL[n]


def brute_integer_partitions(n):
    """The integer partitions of n as descending size tuples, in descending
    lexicographic order: every multiset of k parts that sums to n (no part of
    which exceeds n - k + 1), sorted."""
    found = [tuple(sorted(c, reverse=True))
             for k in range(1, n + 1)
             for c in itertools.combinations_with_replacement(range(1, n - k + 2), k)
             if sum(c) == n]
    return sorted(found, reverse=True)


def test_iter_types_are_the_integer_partitions_in_order():
    # each type, stored without __init__, is the value the checked
    # constructor builds from the counts of its sizes: equal, hashed,
    # pickled and shown alike
    for n in range(1, 13):
        types = list(iter_types(n))
        assert [t.sizes() for t in types] == brute_integer_partitions(n)
        for t in types:
            checked = PartitionType([t.sizes().count(i) for i in range(1, n + 1)])
            assert type(t) is PartitionType and t == checked
            assert type(t.r) is tuple and len(t.r) == n
            assert hash(t) == hash(checked) and repr(t) == repr(checked)
            back = pickle.loads(pickle.dumps(t))
            assert back == checked and hash(back) == hash(checked)


def test_iter_types_derive_n_from_their_counts():
    for n in range(1, 13):
        assert {t.n for t in iter_types(n)} == {n}


def test_type_count_closed_forms():
    for n in range(1, 10):
        for t in iter_types(n):
            m = t.num_blocks
            p_r = 1
            ifac = 1
            for i, ri in enumerate(t.r, start=1):
                p_r *= factorial(ri)
                ifac *= factorial(i) ** ri
            assert count_by_type(t, "all") * p_r * ifac == factorial(n)
            assert count_by_type(t, "noncrossing") * p_r * factorial(n - m + 1) == factorial(n)


def test_mobius_of_type_matches_instances():
    for n in range(1, 8):
        for pi in enumerate_partitions(n):
            assert mobius_of_type(partition_type(pi)) == mobius_from_zero(pi)


def test_multiplicative_extension():
    f = [Fraction(2), Fraction(3), Fraction(5)]
    pi = SetPartition([[1, 2], [3]])
    assert multiplicative_extension(f, pi) == 6
    assert multiplicative_extension(f, one_partition(3)) == 5
    assert block_size_product(pi) == 2
    assert block_size_product(zero_partition(6)) == 1


def test_size_cap():
    with pytest.raises(SizeCapError):
        enumerate_partitions(13)


def test_partition_validation():
    # the blocks cover {1..n} exactly once, n their total size
    for blocks in ([[1, 2], [2, 3]], [[1, 3]], [[1, 2], [4]], [[0, 1]],
                   [[1, 2], []]):
        with pytest.raises(InputFormatError, match="do not cover"):
            SetPartition(blocks)
    with pytest.raises(InputFormatError) as caught:
        SetPartition(((1,), (1,)))
    assert str(caught.value) == "blocks [(1,), (1,)] do not cover {1..2} exactly once"
    # elements are integers, and booleans are not
    for blocks in ([[True, 2]], [[1, 2.0]], [[1, "2"]]):
        with pytest.raises(InputFormatError, match="is not an int"):
            SetPartition(blocks)
    # a type vector has entries >= 0 that weigh its length, and a count has
    # two modes
    refused = ("type vector must be a nonempty list or tuple of ints >= 0 "
               "whose weight is its length, got ")
    for make, message in (
            (lambda: PartitionType((1, 1)), refused + "(1, 1)"),
            (lambda: PartitionType((4, -1, 1)), refused + "(4, -1, 1)"),
            (lambda: PartitionType((1, 0, 1)), refused + "(1, 0, 1)"),
            (lambda: count_by_type(PartitionType((3, 0, 0)), "crossing"),
             "mode must be 'all' or 'noncrossing'")):
        with pytest.raises(InputFormatError) as caught:
            make()
        assert str(caught.value) == message
    # the ground set {1..n} is never empty, as the walks require
    for make in (lambda: SetPartition([]), lambda: SetPartition([()]),
                 lambda: iter_types(0), lambda: iter_types(-1)):
        with pytest.raises(InputFormatError, match="ground-set size"):
            make()
    with pytest.raises(InputFormatError, match="nonempty"):
        PartitionType(())
