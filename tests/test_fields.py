"""The integer (Bareiss) linear algebra against the Fraction references in
`field_reference`, and the packed GF(2) linear algebra against brute-force
spans."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_reference
from latt_reference import weyl_group
from quivernc import GroupElement, classify, fields, parse_quiver
from quivernc.quiver import Quiver

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


MATRICES = st.one_of(low_rank_matrices(), dense_matrices())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(MATRICES)
def test_int_rank_matches_fraction_rank(rows):
    assert fields.int_rank(rows) == field_reference.rank(rows)


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
            assert fields.int_rank(rows) == field_reference.rank(rows)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(MATRICES, st.data())
def test_int_in_span_matches_fraction_span(rows, data):
    """Vectors in the span (integer combinations of the rows) and arbitrary
    ones, against the Fraction RREF membership test."""
    ncols = len(rows[0]) if rows else 1
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    inside = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    anywhere = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    echelon, pivots = fields.int_echelon(rows)
    reduced, qq_pivots = field_reference.rref(rows)
    assert pivots == qq_pivots
    assert fields.int_in_span(echelon, pivots, inside)
    for v in (inside, anywhere):
        assert fields.int_in_span(echelon, pivots, v) == field_reference.in_span(
            reduced, qq_pivots, v)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(MATRICES)
def test_int_kernel_spans_the_fraction_kernel(rows):
    """n - rank integer rows, each killed by A, whose span holds every vector
    of the Fraction kernel."""
    ncols = len(rows[0]) if rows else 1
    kernel = fields.int_nullspace(rows, ncols)
    assert all(isinstance(x, int) for v in kernel for x in v)
    assert len(kernel) == ncols - field_reference.rank(rows)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in kernel)
    reduced, pivots = field_reference.rref(kernel)
    assert all(field_reference.in_span(reduced, pivots, v)
               for v in field_reference.nullspace(rows, ncols))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(MATRICES, st.data())
def test_int_row_space_is_one_basis_per_subspace(rows, data):
    """Adding integer combinations of the rows and shuffling them leaves the
    canonical basis unchanged: it depends on the row space alone."""
    ncols = len(rows[0]) if rows else 1
    extra = [
        [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        for coeffs in data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)), max_size=3))
    ]
    other = data.draw(st.permutations(rows + extra))
    basis = fields.int_row_space(rows)
    assert fields.int_row_space(other) == basis
    assert len(basis) == field_reference.rank(rows)
    reduced, _ = field_reference.rref(rows)
    for row, qq_row in zip(basis, reduced):  # a positive multiple of the RREF row
        c = next(j for j, x in enumerate(row) if x)
        assert row[c] > 0 and [row[c] * x for x in qq_row] == list(row)


@pytest.mark.parametrize("text", [
    "vertices 3\narrow 2 1\narrow 2 3",
    "vertices 4\narrow 2 1\narrow 2 3\narrow 2 4",
], ids=["a3", "d4"])
def test_inverse_on_every_weyl_group_element(text):
    q = parse_quiver(text)
    for w in weyl_group(q):
        inv = w.inverse()
        assert (w * inv).is_identity() and (inv * w).is_identity()
        assert inv.mat == field_reference.inverse(w.mat)


def test_inverse_raises_for_singular_and_non_integral_matrices():
    for mat in (((1, 2), (2, 4)), ((0, 0), (0, 0)), ((1, 0, 0), (0, 1, 1), (0, 1, 1))):
        assert field_reference.inverse(mat) is None
        with pytest.raises(ValueError, match="not invertible"):
            GroupElement(mat).inverse()
    for mat in (((2, 0), (0, 1)), ((1, 1), (1, -1)), ((2, 1), (1, 2))):
        assert field_reference.inverse(mat) is not None
        with pytest.raises(ValueError, match="not integral"):
            GroupElement(mat).inverse()


def connected_quivers(max_n: int, max_mult: int):
    """One quiver per connected multigraph on at most max_n vertices with at
    most max_mult arrows between two vertices, each arrow from the smaller
    vertex. `classify` reads only the symmetrized form, which forgets the
    orientation."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
            arrows = tuple(p for p, m in zip(pairs, mults) for _ in range(m))
            reached, frontier = {1}, [1]
            while frontier:
                v = frontier.pop()
                for s, t in arrows:
                    for a, b in ((s, t), (t, s)):
                        if a == v and b not in reached:
                            reached.add(b)
                            frontier.append(b)
            if len(reached) == n:
                yield Quiver(n, arrows)


def test_classify_matches_fraction_determinants():
    kinds = {}
    for q in connected_quivers(4, 2):
        kind = classify(q)
        assert kind == field_reference.classify(q), q
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"finite", "affine", "wild"}


def brute_span(rows):
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


PACKED = st.lists(st.integers(0, 2**6 - 1), max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(PACKED, st.integers(0, 2**6 - 1))
def test_gf2_echelon_rank_and_reduce_match_brute_force_spans(rows, v):
    echelon = fields.gf2_echelon(rows)
    span = brute_span(rows)
    assert brute_span(echelon) == span and len(span) == 2 ** len(echelon)
    assert fields.gf2_rank(rows) == len(echelon)
    pivots = [row & -row for row in echelon]
    assert pivots == sorted(pivots)
    assert all(row & p == 0 for row in echelon for p in pivots if p != row & -row)
    assert (fields.gf2_reduce(echelon, v) == 0) == (v in span)
    assert fields.gf2_echelon(reversed(rows)) == echelon  # one basis per span


@settings(derandomize=True, max_examples=300, deadline=None)
@given(PACKED, st.integers(1, 6))
def test_gf2_nullspace_is_the_kernel(rows, ncols):
    rows = [r & ((1 << ncols) - 1) for r in rows]
    kernel = fields.gf2_nullspace(rows, ncols)
    assert all(bin(row & v).count("1") % 2 == 0 for row in rows for v in kernel)
    assert len(kernel) == fields.gf2_rank(kernel) == ncols - fields.gf2_rank(rows)


def test_pack():
    assert fields.pack([1, 0, 1, 1]) == 0b1101
    assert fields.pack([]) == 0
