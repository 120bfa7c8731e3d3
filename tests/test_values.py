"""The package's value types: the fast path's `Quiver`, `GroupElement`
and `CCIndec`, and the oracle's `Representation`, `HomBasis`,
`FinitePoset`, `LatticeReport`, `SemistableReport` and `VerifyReport`.

Each is a value: equal exactly when its fields are, hashed as the tuple of
its fields (so sets and dicts of them iterate as they did when these were
dataclasses), printed in the dataclass form, and it round-trips through
pickle and copy. All but `VerifyReport`, which a suite counts into as it
runs, are immutable. The two reports are NamedTuples, which also equal the
plain tuple of their fields.
"""

import copy
import pickle

import pytest

from quivernc import CCIndec, GroupElement, Quiver, cc_rep, cc_shift, word_to_element
from quivernc.latt import FinitePoset, lattice_analyze
from quivernc.replab import Representation, hom_basis, simple_rep
from quivernc.stab import verify_semistable_theorem
from quivernc.verify import VerifyReport


def a3_quiver():
    return Quiver(3, ((2, 3), (2, 1)))


def chain():
    return FinitePoset(("bottom", "top"), (0b11, 0b10), (0b01, 0b11))


def antichain():
    return FinitePoset(("left", "right"), (0b01, 0b10), (0b01, 0b10))


def s2_ends():
    return hom_basis(simple_rep(a3_quiver(), 2), simple_rep(a3_quiver(), 2))


S2 = "Representation(quiver=Quiver(n=3, arrows=((2, 1), (2, 3))), dims=(0, 1, 0), maps=((), ()))"

# name: (make, field names, repr, make a value that differs in a field)
VALUES = {
    "quiver": (a3_quiver, ("n", "arrows"), "Quiver(n=3, arrows=((2, 1), (2, 3)))",
               lambda: Quiver(3, ((2, 1),))),
    "group-element": (lambda: word_to_element(a3_quiver(), (1, 3)), ("mat",),
                      "GroupElement(mat=((-1, 1, 0), (0, 1, 0), (0, 1, -1)))",
                      lambda: word_to_element(a3_quiver(), (1,))),
    "rep": (lambda: cc_rep((1, 1, 0)), ("root", "shift"), "rep[1, 1, 0]",
            lambda: cc_rep((0, 1, 0))),
    "shift": (lambda: cc_shift(2), ("root", "shift"), "shift(2)", lambda: cc_shift(1)),
    "representation": (lambda: simple_rep(a3_quiver(), 2), ("quiver", "dims", "maps"), S2,
                       lambda: simple_rep(a3_quiver(), 1)),
    "hom-basis": (s2_ends, ("source", "target", "elements"),
                  f"HomBasis(source={S2}, target={S2}, elements=(((), ((1,),), ()),))",
                  lambda: hom_basis(simple_rep(a3_quiver(), 1), simple_rep(a3_quiver(), 1))),
    "finite-poset": (chain, ("payloads", "up", "down"),
                     "FinitePoset(payloads=('bottom', 'top'), up=(3, 2), down=(1, 3))", antichain),
    "lattice-report": (lambda: lattice_analyze(chain()),
                       ("is_lattice", "join_irreducibles", "meet_irreducibles", "longest_chain",
                        "is_extremal", "is_trim", "left_modular_chain"),
                       "LatticeReport(is_lattice=True, join_irreducibles=(1,),"
                       " meet_irreducibles=(0,), longest_chain=1, is_extremal=True, is_trim=True,"
                       " left_modular_chain=(0, 1))",
                       lambda: lattice_analyze(antichain())),
    "semistable-report": (lambda: verify_semistable_theorem(a3_quiver(), frozenset({(0, 0, 1)})),
                          ("support_tilting", "theta", "semistable", "wide", "passed"),
                          "SemistableReport(support_tilting=((0, 0, 1),), theta=(-1, -1, 0),"
                          " semistable=((0, 0, 1),), wide=((0, 0, 1),), passed=True)",
                          lambda: verify_semistable_theorem(a3_quiver(), frozenset({(0, 1, 0)}))),
    "verify-report": (lambda: VerifyReport("exceptional", a3_quiver(), 0, 12, 1, ["bad"], 0.5),
                      ("suite", "quiver", "seed", "cap", "instances", "failures", "wall_time"),
                      "VerifyReport(suite='exceptional',"
                      " quiver=Quiver(n=3, arrows=((2, 1), (2, 3))), seed=0, cap=12, instances=1, failures=['bad'], wall_time=0.5)",
                      lambda: VerifyReport("exceptional", a3_quiver(), 0, 12, 2, ["bad"], 0.5)),
}
NAMED_TUPLES = ("lattice-report", "semistable-report")
MUTABLE = ("verify-report",)


def values(*excluded):
    names = [name for name in VALUES if name not in excluded]
    return pytest.mark.parametrize("value", [VALUES[name] for name in names], ids=names)


def fields(x, names):
    return tuple(getattr(x, name) for name in names)


@values(*MUTABLE)
def test_equal_values_are_equal_and_hash_as_their_fields(value):
    make, names, _, other = value
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(fields(x, names))
    assert len({x, y}) == 1
    assert x != other() and not x == other()


@values(*NAMED_TUPLES)
def test_other_types_compare_unequal(value):
    make, names, _, _ = value
    x = make()
    assert x != fields(x, names) and x != None  # noqa: E711
    assert x.__eq__(fields(x, names)) is NotImplemented


@values()
def test_repr(value):
    make, _, text, _ = value
    assert repr(make()) == text


@values(*MUTABLE)
def test_fields_cannot_be_assigned_or_deleted(value):
    make, names, _, _ = value
    x = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert fields(x, names) == fields(make(), names)


@pytest.mark.parametrize("round_trip", [
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle-0", "copy", "deepcopy"])
@values()
def test_pickle_and_copy_round_trip(value, round_trip):
    make, names, _, _ = value
    x = make()
    y = round_trip(x)
    assert type(y) is type(x) and y == x
    assert fields(y, names) == fields(x, names)
    if x.__hash__ is not None:
        assert hash(y) == hash(x)


def test_verify_report_counts_as_a_suite_runs():
    make, names, _, other = VALUES["verify-report"]
    x = make()
    x.instances += 1
    assert x == other() and x.failures is not other().failures
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert VerifyReport("x", a3_quiver(), 0, 12).failures == []


def test_representation_checks_its_shape():
    q = a3_quiver()
    assert Representation.field.p == simple_rep(q, 1).field.p == 2
    for dims, maps in (((1, 0), ((), ())), ((0, 1, 0), ((),)), ((1, 1, 0), ((), ())),
                       ((1, 1, 0), (((1, 1),), ()))):
        with pytest.raises(ValueError):
            Representation(q, dims, maps)


def test_quiver_sorts_and_checks_its_arrows():
    assert Quiver(3, [[2, 3], [2, 1]]).arrows == ((2, 1), (2, 3))
    for n, arrows in ((0, ()), (2, ((1, 3),)), (2, ((1, 1),)), (2, ((1, 2), (2, 1)))):
        with pytest.raises(ValueError):
            Quiver(n, arrows)


def test_cc_indec_is_exactly_one_of_root_and_shift():
    assert CCIndec(root=(1, 0)) == cc_rep((1, 0)) != cc_shift(1) == CCIndec(shift=1)
    for kwargs in ({}, {"root": (1, 0), "shift": 1}):
        with pytest.raises(ValueError):
            CCIndec(**kwargs)


def test_group_element_equality_is_by_matrix():
    mat = ((0, 1), (1, 0))
    assert GroupElement(mat) == GroupElement(tuple(map(tuple, mat)))
    assert GroupElement(mat) != GroupElement(((1, 0), (0, 1)))
