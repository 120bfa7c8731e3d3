"""Exact scalar fields and the small dense linear algebra used everywhere.

No floating point: rational scalars are `fractions.Fraction`, finite-field
scalars are ints reduced mod p, and `int_echelon` works on integer
matrices directly.  Matrices are rows of scalars; functions accept any
sequence-of-sequences and return lists (or tuples where the result is
meant to be stored in an immutable value, such as a `GroupElement`, or a
cache).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Scalar = object  # Fraction over Q, int over GF(p)
Row = tuple
Matrix = tuple


class RationalField:
    """The rationals; scalars are Fraction."""

    name = "Q"

    def of_int(self, k: int) -> Fraction:
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """Integers mod a prime; scalars are ints in range(p)."""

    def __init__(self, p: int):
        self.p = p
        self.name = f"GF{p}"

    def of_int(self, k: int) -> int:
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero in " + self.name)
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __repr__(self) -> str:
        return self.name


QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)


def zeros(field, nrows: int, ncols: int) -> list[list]:
    z = field.of_int(0)
    return [[z] * ncols for _ in range(nrows)]


def mat_mul(field, a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = zeros(field, len(a), cols)
    for i, arow in enumerate(a):
        for k in range(inner):
            x = arow[k]
            if field.is_zero(x):
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                orow[j] = field.add(orow[j], field.mul(x, brow[j]))
    return out


def mat_vec(field, a: Sequence[Sequence], v: Sequence) -> list:
    if a and len(a[0]) != len(v):
        raise ValueError("matrix/vector shape mismatch")
    out = []
    for row in a:
        s = field.of_int(0)
        for x, y in zip(row, v):
            s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def rref(field, rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    a = [list(r) for r in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if not field.is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.div(field.of_int(1), a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def rank(field, rows: Sequence[Sequence]) -> int:
    return len(rref(field, rows)[0])


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


def row_space(field, rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    """Canonical (RREF) form of the row space, usable as a subspace identity."""
    reduced, _ = rref(field, rows)
    return tuple(tuple(r) for r in reduced)


def reduce_against(field, reduced_rows: Sequence[Sequence], pivots: Sequence[int], v: Sequence) -> list:
    """Residue of v modulo the span of RREF rows."""
    res = list(v)
    for row, c in zip(reduced_rows, pivots):
        f = res[c]
        if not field.is_zero(f):
            res = [field.sub(x, field.mul(f, y)) for x, y in zip(res, row)]
    return res


def pivots_of(field, rows: Sequence[Sequence]) -> list[int]:
    """Pivot columns of rows already in RREF."""
    return [next(i for i, x in enumerate(row) if not field.is_zero(x)) for row in rows]


def in_span(field, reduced_rows: Sequence[Sequence], pivots: Sequence[int], v: Sequence) -> bool:
    return all(field.is_zero(x) for x in reduce_against(field, reduced_rows, pivots, v))


def nullspace(field, rows: Sequence[Sequence], ncols: int) -> list[list]:
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    reduced, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one = field.of_int(1)
    zero = field.of_int(0)
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for row, c in zip(reduced, pivots):
            v[c] = field.neg(row[f])
        basis.append(v)
    return basis


def solve(field, a_rows: Sequence[Sequence], b: Sequence) -> list | None:
    """One solution x of A x = b, or None if inconsistent."""
    if not a_rows:
        return [] if all(field.is_zero(x) for x in b) else None
    ncols = len(a_rows[0])
    aug = [list(r) + [bi] for r, bi in zip(a_rows, b)]
    reduced, pivots = rref(field, aug)
    zero = field.of_int(0)
    x = [zero] * ncols
    for row, c in zip(reduced, pivots):
        if c == ncols:
            return None  # pivot in the constant column
        x[c] = row[-1]
    return x


def coords_in_basis(field, basis_rows: Sequence[Sequence], v: Sequence) -> list:
    """Coordinates of v in a row basis (raises if v is outside the span)."""
    a = [[basis_rows[k][j] for k in range(len(basis_rows))] for j in range(len(v))]
    x = solve(field, a, v)
    if x is None:
        raise ValueError("vector not in span of basis")
    return x
