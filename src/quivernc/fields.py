"""Exact linear algebra on ints, in the two scalar domains the package uses.

Rational questions (ranks, spans and kernels of integer matrices, as in
fixed spaces and inverses of Weyl group elements) are answered by Bareiss
fraction-free elimination, which stays on Python ints. A subspace of Q^n
gets one canonical integer basis, `int_row_space`, so that two
descriptions of the same subspace compare equal as tuples.

The representation oracle works over GF(2). There a vector is an int whose
bit j is its j-th coordinate, and row reduction is XOR. An echelon basis
lists its rows by increasing pivot, the lowest set bit of each row.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence


def int_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of an integer matrix by Bareiss fraction-free
    elimination: its nonzero rows and their pivot columns.

    After each step the entries below the pivot row are minors of the
    original matrix, so every division by the previous pivot is exact and
    the arithmetic stays on Python ints.
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    r, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p, pivot_row = a[r][c], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix."""
    return len(int_echelon(rows)[1])


def int_in_span(echelon: Sequence[Sequence[int]], pivots: Sequence[int], v: Sequence[int]) -> bool:
    """Whether v lies in the rational span of `int_echelon` rows: clear each
    pivot column by an integer combination and look for a zero residue."""
    res = list(v)
    for row, c in zip(echelon, pivots):
        f = res[c]
        if f:
            p = row[c]
            res = [p * x - f * y for x, y in zip(res, row)]
    return not any(res)


def _primitive(row: list[int], c: int) -> list[int]:
    """The row divided by the gcd of its entries, with row[c] positive."""
    g = gcd(*row)
    if row[c] < 0:
        g = -g
    return [x // g for x in row]


def int_row_space(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis of the rational row space: the reduced echelon
    form, each row scaled to coprime entries with a positive pivot.

    A reduced echelon basis of a subspace is unique up to scaling each row,
    so two matrices have the same row space exactly when this is equal.
    """
    echelon, pivots = int_echelon(rows)
    echelon = [_primitive(row, c) for row, c in zip(echelon, pivots)]
    for r in reversed(range(len(echelon))):
        c, row = pivots[r], echelon[r]
        for i in range(r):
            f = echelon[i][c]
            if f:
                echelon[i] = _primitive(
                    [row[c] * x - f * y for x, y in zip(echelon[i], row)], pivots[i])
    return tuple(map(tuple, echelon))


def int_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis (`int_row_space`) of {v in Q^ncols : A v = 0}
    for the integer matrix A with the given rows."""
    reduced = int_row_space(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    scale = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, c in zip(reduced, pivots):
            v[c] = -row[f] * (scale // row[c])
        basis.append(v)
    return int_row_space(basis)


def pack(row: Iterable[int]) -> int:
    """A GF(2) vector of 0/1 entries as an int: bit j holds entry j."""
    return sum(1 << j for j, x in enumerate(row) if x)


def gf2_reduce(echelon: Sequence[int], v: int) -> int:
    """Residue of v modulo the span of an echelon basis: zero exactly when v
    lies in the span."""
    for row in echelon:
        if v & row & -row:
            v ^= row
    return v


def gf2_echelon(rows: Iterable[int]) -> list[int]:
    """Reduced echelon basis over GF(2) of the span of packed rows: each
    pivot bit is set in its own row only, so the basis identifies the span."""
    basis: list[int] = []
    for v in rows:
        v = gf2_reduce(basis, v)
        if v:
            low = v & -v
            basis = [row ^ v if row & low else row for row in basis]
            basis.append(v)
            basis.sort(key=lambda row: row & -row)
    return basis


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of packed rows, by one XOR basis keyed on top bits:
    it skips the full reduction and ordering of `gf2_echelon`, which the
    Gen trace would pay on every vertex of every root."""
    tops: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length()
            row = tops.get(top)
            if row is None:
                tops[top] = v
                break
            v ^= row
    return len(tops)


def gf2_nullspace(rows: Iterable[int], ncols: int) -> list[int]:
    """Basis of {v in GF(2)^ncols : A v = 0} for the matrix A with the given
    packed rows, one vector per free column, in column order."""
    echelon = gf2_echelon(rows)
    pivot_of = {row & -row: row for row in echelon}
    basis = []
    for f in range(ncols):
        bit = 1 << f
        if bit in pivot_of:
            continue
        v = bit
        for low, row in pivot_of.items():
            if row & bit:
                v |= low
        basis.append(v)
    return basis
