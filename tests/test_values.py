"""The value types of the fast path: `Quiver`, `GroupElement`, `CCIndec`.

Each is an immutable value: equal exactly when its fields are, hashed as
the tuple of its fields (so sets and dicts of them iterate as they did when
these were frozen dataclasses), and it round-trips through pickle and copy.
"""

import copy
import pickle

import pytest

from quivernc import CCIndec, GroupElement, Quiver, cc_rep, cc_shift, word_to_element


def a3_quiver():
    return Quiver(3, ((2, 3), (2, 1)))


VALUES = {
    "quiver": (a3_quiver, ("n", "arrows"), "Quiver(n=3, arrows=((2, 1), (2, 3)))"),
    "group-element": (lambda: word_to_element(a3_quiver(), (1, 3)), ("mat",),
                      "GroupElement(mat=((-1, 1, 0), (0, 1, 0), (0, 1, -1)))"),
    "rep": (lambda: cc_rep((1, 1, 0)), ("root", "shift"), "rep[1, 1, 0]"),
    "shift": (lambda: cc_shift(2), ("root", "shift"), "shift(2)"),
}


@pytest.fixture(params=VALUES, ids=VALUES)
def value(request):
    return VALUES[request.param]


def fields(x, names):
    return tuple(getattr(x, name) for name in names)


def test_equal_values_are_equal_and_hash_as_their_fields(value):
    make, names, _ = value
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(fields(x, names))
    assert len({x, y}) == 1


def test_other_types_compare_unequal(value):
    make, names, _ = value
    x = make()
    assert x != fields(x, names) and x != None  # noqa: E711
    assert x.__eq__(fields(x, names)) is NotImplemented


def test_repr(value):
    make, _, text = value
    assert repr(make()) == text


def test_fields_cannot_be_assigned_or_deleted(value):
    make, names, _ = value
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
def test_pickle_and_copy_round_trip(value, round_trip):
    make, names, _ = value
    x = make()
    y = round_trip(x)
    assert type(y) is type(x) and y == x and hash(y) == hash(x)
    assert fields(y, names) == fields(x, names)


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
