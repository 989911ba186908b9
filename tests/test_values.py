"""Value semantics shared by the exact value types: frozen, slotted, equal
and hashed by value, shown as Name(field=...), and pickled and copied
through the checked constructor."""

import copy
import pickle
from fractions import Fraction

import pytest

from finfree.divisibility import cramer_counterexample, infinite_divisibility_report
from finfree.errors import InputFormatError
from finfree.freeprob import FreeCumulantVector, convergence_report
from finfree.matrix_oracle import MCEstimate, mc_boxplus
from finfree.partitions import PartitionType, SetPartition
from finfree.polynomial import MomentSequence, MonicPoly
from finfree.transforms import CumulantVector
from finfree.util import Value, VarPoly


def _samples():
    """One value of each type, with its field names in order."""
    p = MonicPoly.from_roots([-1, 0, 1])
    return [
        (VarPoly("s", [1, "1/2"]), ("var", "coeffs")),
        (SetPartition([[3, 1], [2]]), ("blocks",)),
        (PartitionType([1, 1, 0]), ("r",)),
        (p, ("a",)),
        (MomentSequence(["0", "2/3"], degree_context=3), ("entries", "degree_context")),
        (CumulantVector([0, 1, "1/3"], variant="rescaled"), ("kappa", "variant")),
        (FreeCumulantVector([0, 1]), ("entries",)),
        (convergence_report(FreeCumulantVector([0, 1]), 2, [2, 4]),
         ("n", "d_values", "finite_kappa", "free_kappa", "errors")),
        (infinite_divisibility_report(p),
         ("centered_normalized", "cpd_standard", "cpd_rescaled",
          "higher_cumulants_zero", "verdict")),
        (cramer_counterexample(3, "1/10"),
         ("p_plus", "p_minus", "convolution", "p_plus_real_rooted",
          "p_minus_real_rooted")),
        (mc_boxplus(p, p, 1000, seed=3),
         ("samples", "coeff_mean", "coeff_stderr", "seed", "radius")),
    ]


SAMPLES = _samples()
IDS = [type(v).__name__ for v, _ in SAMPLES]


def _fields(v, names) -> tuple:
    return tuple(getattr(v, name) for name in names)


def _args(v, names) -> tuple:
    """The constructor's arguments: the fields, with the degree d that
    MonicPoly's constructor checks stated ahead of its one field a."""
    return ((v.d,) if type(v) is MonicPoly else ()) + _fields(v, names)


def test_every_value_type_is_sampled():
    assert sorted(IDS) == sorted(
        ["VarPoly", "SetPartition", "PartitionType", "MonicPoly", "MomentSequence",
         "CumulantVector", "FreeCumulantVector", "ConvergenceReport", "IDReport",
         "CramerPair", "MCEstimate"])


@pytest.mark.parametrize("v, names", SAMPLES, ids=IDS)
def test_value_is_frozen_and_slotted(v, names):
    assert isinstance(v, Value) and type(v).__slots__ == names
    for name in names:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert not hasattr(v, "__dict__")


@pytest.mark.parametrize("v, names", SAMPLES, ids=IDS)
def test_value_compares_hashes_and_shows_by_value(v, names):
    fields = _fields(v, names)
    twin = type(v)(*_args(v, names))
    assert twin == v and twin is not v and not twin != v
    assert hash(twin) == hash(v) == hash(fields)
    # the same fields in another class are another value
    other = type("Other", (Value,), {"__slots__": names})(*fields)
    assert other != v and v != other and v != fields
    assert repr(v) == "%s(%s)" % (
        type(v).__name__, ", ".join("%s=%r" % (n, x) for n, x in zip(names, fields)))


@pytest.mark.parametrize("v, names", SAMPLES, ids=IDS)
def test_value_round_trips_through_pickle_and_copy(v, names):
    # through the constructor, so a copy passes the checks a new value does
    assert v.__reduce__() == (type(v), _args(v, names))
    for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert type(back) is type(v) and back == v
        assert _fields(back, names) == _fields(v, names)


@pytest.mark.parametrize("v, names", SAMPLES, ids=IDS)
def test_a_wrong_number_of_arguments_is_a_type_error(v, names):
    with pytest.raises(TypeError):
        type(v)()
    with pytest.raises(TypeError):
        type(v)(*_args(v, names), None)


@pytest.mark.parametrize("make, message", [
    (lambda: FreeCumulantVector([]), "need at least one free cumulant"),
    (lambda: MomentSequence([]), "moment sequence must be nonempty"),
    (lambda: CumulantVector([]), "degree must be an integer >= 1, got 0"),
], ids=["FreeCumulantVector", "MomentSequence", "CumulantVector"])
def test_an_empty_vector_is_refused(make, message):
    with pytest.raises(InputFormatError) as caught:
        make()
    assert type(caught.value) is InputFormatError and str(caught.value) == message


def test_polynomial_values_store_only_what_fixes_d():
    # d is read off the entries, so no value can hold a d that disagrees with them
    assert MonicPoly.__slots__ == ("a",)
    assert CumulantVector.__slots__ == ("kappa", "variant")
    assert "d" not in MCEstimate.__slots__
    p = MonicPoly.from_roots([-1, 0, 1])
    values = (p, CumulantVector([0, 1, "1/3"]), mc_boxplus(p, p, 1000, seed=3))
    for v in values:
        assert v.d == 3
        with pytest.raises(AttributeError):
            v.d = 4
        with pytest.raises(AttributeError):
            del v.d
        assert v.d == 3 and not hasattr(v, "__dict__")
    # MonicPoly's constructor still takes d, checks it against the entries
    # and drops it
    with pytest.raises(InputFormatError, match="degree 3 needs d \\+ 1 signed"):
        MonicPoly(3, [1, 0, -1])
    with pytest.raises(InputFormatError, match="^degree must be an integer >= 1, got 0$"):
        MonicPoly(0, [1])


def test_checked_types_take_their_fields_by_keyword():
    assert MomentSequence(entries=[1], degree_context=2) == MomentSequence([1], 2)
    assert MomentSequence([1]).degree_context is None
    assert CumulantVector(kappa=[5], variant="rescaled").variant == "rescaled"
    assert CumulantVector([5]).variant == "standard"
    assert MonicPoly(a=[1, 2], d=1) == MonicPoly.from_signed([1, 2])
    assert SetPartition(blocks=((1,),)) == SetPartition([[1]])
    assert PartitionType(r=(0, 1)).sizes() == (2,)
    assert VarPoly(var="t", coeffs=[0, 1, 0]).coeffs == (0, 1)
    assert FreeCumulantVector(entries=["1/2"]).entries == (Fraction(1, 2),)
