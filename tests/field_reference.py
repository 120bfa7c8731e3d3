"""Rational references for the integer and GF(2) linear algebra of the package.

The package answers its rational questions with Bareiss elimination on
ints and runs its representation oracle over GF(2). This module keeps the
rational side as the tests' reference: Fraction row reduction, the Fraction
determinant classification of quivers, the rational inverse of an integer
matrix, and the indecomposables, Hom bases and Gen over Q, built by the
same reflection functors as `replab` but with Fraction entries.

It also holds the two representation constructions that no package code
calls: the injective representation I_v and the torsion subobject t(X).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from quivernc import fields, replab
from quivernc.quiver import (
    Quiver,
    cartan_matrix,
    is_positive_root,
    positive_roots,
    require_finite_type,
)
from quivernc.tors import _require_torsion_class
from quivernc.weyl import reflection

# --- Fraction linear algebra -------------------------------------------------


def rref(rows):
    """Reduced row echelon form over Q: (nonzero rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return [], []
    pivots = []
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [inv * x for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def in_span(reduced, pivots, v) -> bool:
    """Whether v lies in the span of RREF rows."""
    res = [Fraction(x) for x in v]
    for row, c in zip(reduced, pivots):
        f = res[c]
        if f:
            res = [x - f * y for x, y in zip(res, row)]
    return not any(res)


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of {v : A v = 0} over Q, one vector per free column."""
    reduced, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def det(rows) -> Fraction:
    """Determinant over Q by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def classify(q: Quiver) -> str:
    """'finite', 'affine' or 'wild': positive definite when every leading
    principal minor of the symmetrized form is positive, semidefinite when
    every principal minor is non-negative."""
    b = cartan_matrix(q)

    def minor(idx):
        return det([[b[i][j] for j in idx] for i in idx])

    if all(minor(range(k)) > 0 for k in range(1, q.n + 1)):
        return "finite"
    subsets = (s for k in range(1, q.n + 1) for s in itertools.combinations(range(q.n), k))
    return "wild" if any(minor(s) < 0 for s in subsets) else "affine"


def inverse(mat) -> tuple[tuple[Fraction, ...], ...] | None:
    """The rational inverse of a square matrix, or None when it is singular."""
    n = len(mat)
    reduced, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


# --- representations over Q --------------------------------------------------


@dataclass(frozen=True)
class Rep:
    """A representation with Fraction entries; maps as in `replab`."""

    quiver: Quiver
    dims: tuple[int, ...]
    maps: tuple


def _freeze(m):
    return tuple(tuple(row) for row in m)


def simple_rep(q: Quiver, v: int) -> Rep:
    dims = tuple(int(u == v) for u in q.vertices)
    return Rep(q, dims, tuple(_freeze([[Fraction(0)] * dims[s - 1]] * dims[t - 1])
                              for s, t in q.arrows))


def reflect_source(q: Quiver, v: int, m: Rep) -> Rep:
    """The BGP reflection functor R^- at a source v: M_v is replaced by the
    cokernel of the stacked maps out of v, and the arrows at v turn round."""
    qr = q.reflect_at(v)
    outs = [k for k, (s, t) in enumerate(q.arrows) if s == v]
    offset, height = {}, 0
    for k in outs:
        offset[k] = height
        height += m.dims[q.arrows[k][1] - 1]
    image = [[x for k in outs for x in (row[j] for row in m.maps[k])]
             for j in range(m.dims[v - 1])]
    reduced, pivots = rref(image)
    coker = [i for i in range(height) if i not in pivots]

    def project(vec):
        for row, c in zip(reduced, pivots):
            f = vec[c]
            if f:
                vec = [x - f * y for x, y in zip(vec, row)]
        return [vec[i] for i in coker]

    # v is a source, so the arrows of qr into v are the turned ones; a Dynkin
    # quiver has at most one arrow between two vertices
    index = {a: k for k, a in enumerate(q.arrows)}
    maps = []
    for s, t in qr.arrows:
        if t != v:
            maps.append(m.maps[index[(s, t)]])
            continue
        k = index[(v, s)]
        cols = [project([Fraction(int(i == offset[k] + c)) for i in range(height)])
                for c in range(m.dims[s - 1])]
        maps.append(_freeze([[col[r] for col in cols] for r in range(len(coker))]))
    dims = tuple(len(coker) if u == v else m.dims[u - 1] for u in q.vertices)
    return Rep(qr, dims, tuple(maps))


@lru_cache(maxsize=None)
def indecomposable(q: Quiver, root) -> Rep:
    """The indecomposable over Q of a positive root, by the walk of
    `replab.indecomposable`: sink reflections down to a simple, then the
    inverse reflection functors back up."""
    require_finite_type(q)
    if not is_positive_root(q, root):
        raise ValueError(f"{root} is not a positive root")
    steps = []
    cur_q, cur = q, root
    while sum(cur) != 1:
        for v in reversed(cur_q.topological_order()):
            if sum(cur) == 1:
                break
            steps.append(v)
            cur = reflection(cur_q, tuple(int(u == v) for u in cur_q.vertices)).apply(cur)
            cur_q = cur_q.reflect_at(v)
    m = simple_rep(cur_q, cur.index(1) + 1)
    for v in reversed(steps):
        m = reflect_source(m.quiver, v, m)
    assert m.quiver == q and m.dims == root
    return m


def hom_basis(m: Rep, n: Rep) -> list[list]:
    """Basis of Hom(M, N) over Q, each element a list of per-vertex matrices
    (n_v x m_v), from the commuting system phi_t M_a = N_a phi_s."""
    q = m.quiver
    offsets, total = [], 0
    for v in range(q.n):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]

    def var(v, i, j):
        return offsets[v] + i * m.dims[v] + j

    rows = []
    for k, (s, t) in enumerate(q.arrows):
        si, ti = s - 1, t - 1
        for i in range(n.dims[ti]):
            for j in range(m.dims[si]):
                row = [Fraction(0)] * total
                for l in range(m.dims[ti]):
                    row[var(ti, i, l)] += m.maps[k][l][j]
                for l in range(n.dims[si]):
                    row[var(si, l, j)] -= n.maps[k][i][l]
                rows.append(row)
    return [
        [[[vec[var(v, i, j)] for j in range(m.dims[v])] for i in range(n.dims[v])]
         for v in range(q.n)]
        for vec in nullspace(rows, total)
    ]


def hom_dim(m: Rep, n: Rep) -> int:
    return len(hom_basis(m, n))


@lru_cache(maxsize=None)
def _hom_basis_of_roots(q: Quiver, a, b):
    return hom_basis(indecomposable(q, a), indecomposable(q, b))


def gen(q: Quiver, s) -> frozenset:
    """Gen(S) over Q: the roots x whose trace of add S is all of M_x."""
    out = set(s)
    for x in positive_roots(q):
        if x in out or not s:
            continue
        spans = [[] for _ in range(q.n)]
        for r in s:
            for phi in _hom_basis_of_roots(q, r, x):
                for v in range(q.n):
                    spans[v].extend([phi[v][i][c] for i in range(x[v])] for c in range(r[v]))
        if all(rank(spans[v]) == x[v] for v in range(q.n)):
            out.add(x)
    return frozenset(out)


# --- constructions no package code calls -------------------------------------


def injective_rep(q: Quiver, v: int) -> replab.Representation:
    """I_v: basis at w is the set of paths w -> v, found as the paths out of
    v in the opposite quiver. The arrow a: s -> t sends the dual basis
    vector of a path (a then x) to that of x."""
    if not 1 <= v <= q.n:
        raise ValueError(f"unknown vertex {v}")
    rev = Quiver(q.n, tuple((t, s) for s, t in q.arrows))
    # the arrow of q that each arrow of rev reverses, occurrences in order
    unused = list(range(len(q.arrows)))
    orig = []
    for s, t in rev.arrows:
        k = next(k for k in unused if q.arrows[k] == (t, s))
        unused.remove(k)
        orig.append(k)
    by_vertex = {u: [] for u in q.vertices}
    for p in replab._paths_from(rev, v):  # p: v -> w in rev is w -> v in q
        by_vertex[replab._path_end(rev, v, p)].append(tuple(orig[r] for r in p))
    index = {u: {p: i for i, p in enumerate(ps)} for u, ps in by_vertex.items()}
    dims = tuple(len(by_vertex[u]) for u in q.vertices)
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        m = [[0] * dims[s - 1] for _ in range(dims[t - 1])]
        for p, col in index[s].items():
            if p and p[-1] == k:  # the path into v from s starts with arrow k
                m[index[t][p[:-1]]][col] = 1
        maps.append(_freeze(m))
    return replab.Representation(q, dims, tuple(maps))


def torsion_subobject(q: Quiver, t, m: replab.Representation,
                      cap: int = replab.DEFAULT_CAP) -> replab.Representation:
    """t(X): the largest subobject of X lying in add T, over GF(2)."""
    t = frozenset(t)
    _require_torsion_class(q, t)
    candidates = [
        sub for sub in replab.subrepresentation_subspaces(m, cap)
        if set(replab.decompose(q, replab.sub_representation(m, sub))) <= t
    ]
    best = max(candidates, key=lambda sub: sum(len(rows) for rows in sub))
    if not all(fields.gf2_reduce(big, row) == 0
               for other in candidates for big, small in zip(best, other) for row in small):
        raise RuntimeError("torsion subobjects have no unique maximum")
    return replab.sub_representation(m, best)
