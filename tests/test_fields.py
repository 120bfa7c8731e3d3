"""The integer (Bareiss) rank and span membership against the Fraction
rank and RREF span test they replace in absolute order and `wide_of_nc`."""

from hypothesis import given, settings
from hypothesis import strategies as st

from quivernc import fields, parse_quiver
from quivernc.latt import weyl_group

ENTRIES = st.integers(-10**6, 10**6)


@st.composite
def low_rank_matrices(draw):
    """Integer combinations of at most min(rows, cols) base rows, so that
    zero and rank-deficient matrices are common."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(nrows, ncols)))
    base = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         min_size=k, max_size=k))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                           min_size=nrows, max_size=nrows))
    return [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)] for cs in coeffs]


@st.composite
def dense_matrices(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    return draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(low_rank_matrices(), dense_matrices()))
def test_int_rank_matches_fraction_rank(rows):
    assert fields.int_rank(rows) == fields.rank(fields.QQ, rows)


def test_int_rank_edge_shapes():
    assert fields.int_rank([]) == 0
    assert fields.int_rank([[0, 0, 0]]) == 0
    assert fields.int_rank([[0, 0, 5]]) == 1
    assert fields.int_rank([[0], [0], [7]]) == 1
    assert fields.int_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert fields.int_rank([[0, 1, 2], [0, 2, 4], [1, 0, 0]]) == 2


def test_int_rank_of_every_weyl_difference_on_a3():
    q = parse_quiver("vertices 3\narrow 2 1\narrow 2 3")
    w = weyl_group(q)
    assert len(w) == 24
    for u in w:
        for v in w:
            rows = [[x - y for x, y in zip(ru, rv)] for ru, rv in zip(u.mat, v.mat)]
            assert fields.int_rank(rows) == fields.rank(fields.QQ, rows)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(low_rank_matrices(), dense_matrices()), st.data())
def test_int_in_span_matches_fraction_span(rows, data):
    """Vectors in the span (integer combinations of the rows) and arbitrary
    ones, against the Fraction RREF membership test."""
    ncols = len(rows[0]) if rows else 1
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    inside = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    anywhere = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    echelon, pivots = fields.int_echelon(rows)
    reduced, qq_pivots = fields.rref(fields.QQ, rows)
    assert pivots == qq_pivots
    assert fields.int_in_span(echelon, pivots, inside)
    for v in (inside, anywhere):
        assert fields.int_in_span(echelon, pivots, v) == fields.in_span(fields.QQ, reduced, qq_pivots, v)
