"""Explicit quiver representations over GF(2), and the oracles built on
them.

For a Dynkin quiver the indecomposables, the dimensions of Hom and Ext
between them, Gen and the dimension vectors of subobjects do not depend on
the field (Gabriel's theorem and the reflection functors of
Bernstein-Gelfand-Ponomarev hold over any field), so the oracle works over
the smallest one. A matrix keeps its 0/1 entries row by row; the linear
algebra packs each row or column into an int and reduces with XOR
(`fields`).

Hom/Ext computation, BGP reflection functors, construction of the
indecomposable for each positive root, subrepresentation enumeration (the
brute-force oracle substrate) and Krull-Schmidt decomposition by Hom
fingerprints. The Hom basis between the indecomposables of two roots is
solved once per quiver and root pair, and serves both the decomposition's
Hom table and Gen; each decomposition is resolved once per representation,
and each Gen traced once per set. On top of these sit the references that
`verify` and the tests check the integer fast path against: Gen(S) as a
trace over explicit Hom bases (for `tors.torsion_closure`), the quotient
and extension closures behind `is_torsion_class` and `is_wide`, and the AR
quiver from Hom bases (for `weyl.ar_quiver`). No production module imports
this one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import SimpleNamespace
from typing import Sequence

from . import fields
from .errors import FingerprintError, OracleCapError
from .quiver import (
    DimVector,
    Quiver,
    Root,
    Vertex,
    _Frozen,
    _simple_step,
    euler_form,
    is_positive_root,
    positive_roots,
    require_finite_type,
)
from .tors import IndecSet, _check_roots
from .weyl import ar_linear_order

DEFAULT_CAP = 12

Matrix = tuple[tuple[int, ...], ...]  # 0/1 entries, one tuple per row


class Representation(_Frozen):
    """Per-vertex dimensions plus one 0/1 matrix over GF(2) per arrow.

    maps[k] has shape (dim at target) x (dim at source) for arrows[k] and
    acts on column vectors.
    """

    __slots__ = ("quiver", "dims", "maps")

    # The order of the scalar field, for code that counts subspaces from
    # outside (the benchmark's tracer reads `m.field.p`).
    field = SimpleNamespace(p=2)

    def __init__(self, quiver: Quiver, dims: DimVector, maps: tuple[Matrix, ...]):
        if len(dims) != quiver.n or len(maps) != len(quiver.arrows):
            raise ValueError("representation shape mismatch")
        for (s, t), m in zip(quiver.arrows, maps):
            rows, cols = len(m), (len(m[0]) if m else 0)
            if rows != dims[t - 1] or (rows and cols != dims[s - 1]):
                raise ValueError(f"map for arrow {s}->{t} has wrong shape")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def zero_matrix(rows: int, cols: int) -> Matrix:
    return ((0,) * cols,) * rows


def _columns(m: Matrix, ncols: int) -> list[int]:
    """The columns of a 0/1 matrix, each packed into an int."""
    return [sum(row[j] << i for i, row in enumerate(m)) for j in range(ncols)]


def _matrix(cols: Sequence[int], nrows: int) -> Matrix:
    """The 0/1 matrix with the given packed columns."""
    return tuple(tuple(c >> i & 1 for c in cols) for i in range(nrows))


def _image(cols: Sequence[int], v: int) -> int:
    """M v for a packed vector v, from the packed columns of M."""
    out, j = 0, 0
    while v:
        if v & 1:
            out ^= cols[j]
        v >>= 1
        j += 1
    return out


def zero_rep(q: Quiver) -> Representation:
    return Representation(q, (0,) * q.n, tuple(zero_matrix(0, 0) for _ in q.arrows))


def simple_rep(q: Quiver, v: Vertex) -> Representation:
    if not 1 <= v <= q.n:
        raise ValueError(f"unknown vertex {v}")
    dims = tuple(1 if u == v else 0 for u in q.vertices)
    maps = tuple(zero_matrix(dims[t - 1], dims[s - 1]) for s, t in q.arrows)
    return Representation(q, dims, maps)


def _paths_from(q: Quiver, v: Vertex) -> list[tuple[int, ...]]:
    """All paths out of v as tuples of arrow indices, in generation order."""
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[tuple[int, ...], Vertex]] = [((), v)]
    while frontier:
        nxt = []
        for path, end in frontier:
            for k in q.arrows_out_of(end):
                p = path + (k,)
                out.append(p)
                nxt.append((p, q.arrows[k][1]))
        frontier = nxt
    return out


def _path_end(q: Quiver, v: Vertex, path: tuple[int, ...]) -> Vertex:
    for k in path:
        v = q.arrows[k][1]
    return v


def projective_rep(q: Quiver, v: Vertex) -> Representation:
    """P_v: basis at w is the set of paths v -> w; arrows append themselves."""
    if not 1 <= v <= q.n:
        raise ValueError(f"unknown vertex {v}")
    paths = _paths_from(q, v)
    by_vertex: dict[Vertex, list[tuple[int, ...]]] = {u: [] for u in q.vertices}
    for p in paths:
        by_vertex[_path_end(q, v, p)].append(p)
    index = {u: {p: i for i, p in enumerate(ps)} for u, ps in by_vertex.items()}
    dims = tuple(len(by_vertex[u]) for u in q.vertices)
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        cols = [1 << index[t][p + (k,)] for p in index[s]]
        maps.append(_matrix(cols, dims[t - 1]))
    return Representation(q, dims, tuple(maps))


def direct_sum(reps: list[Representation]) -> Representation:
    if not reps:
        raise ValueError("empty direct sum needs an explicit quiver; use zero_rep")
    q = reps[0].quiver
    if any(r.quiver != q for r in reps):
        raise ValueError("summands live over different quivers")
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(q.n))
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        m = [[0] * dims[s - 1] for _ in range(dims[t - 1])]
        ro = co = 0
        for r in reps:
            block = r.maps[k]
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    m[ro + i][co + j] = x
            ro += r.dims[t - 1]
            co += r.dims[s - 1]
        maps.append(tuple(map(tuple, m)))
    return Representation(q, dims, tuple(maps))


class HomBasis(_Frozen):
    """Basis of Hom(source, target): tuples of per-vertex matrices."""

    __slots__ = ("source", "target", "elements")

    def __init__(
        self,
        source: Representation,
        target: Representation,
        elements: tuple[tuple[Matrix, ...], ...],
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)


def hom_basis(m: Representation, n: Representation) -> HomBasis:
    """Solve the commuting system phi_t . M_a = N_a . phi_s per arrow."""
    if m.quiver != n.quiver:
        raise ValueError("representations live over different quivers")
    q = m.quiver
    # unknowns: entries of phi_v (n.dims[v] x m.dims[v]), vertex-major order
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]

    def var(v: int, row: int, col: int) -> int:
        return offsets[v] + row * m.dims[v] + col

    rows = []
    for k, (s, t) in enumerate(q.arrows):
        si, ti = s - 1, t - 1
        ma, na = m.maps[k], n.maps[k]
        for i in range(n.dims[ti]):
            for j in range(m.dims[si]):
                row = 0
                # (phi_t . M_a)[i][j] = sum_l phi_t[i][l] * M_a[l][j]
                for l in range(m.dims[ti]):
                    if ma[l][j]:
                        row ^= 1 << var(ti, i, l)
                # (N_a . phi_s)[i][j] = sum_l N_a[i][l] * phi_s[l][j]
                for l in range(n.dims[si]):
                    if na[i][l]:
                        row ^= 1 << var(si, l, j)
                rows.append(row)
    elems = []
    for vec in fields.gf2_nullspace(rows, total):
        elems.append(tuple(
            tuple(
                tuple(vec >> var(v, i, j) & 1 for j in range(m.dims[v]))
                for i in range(n.dims[v])
            )
            for v in range(q.n)
        ))
    return HomBasis(m, n, tuple(elems))


def hom_dim(m: Representation, n: Representation) -> int:
    return len(hom_basis(m, n))


def ext_dim(q: Quiver, m: Representation, n: Representation) -> int:
    """dim Ext^1 = dim Hom - <dim M, dim N> in the hereditary setting."""
    d = hom_dim(m, n) - euler_form(q, m.dims, n.dims)
    if d < 0:
        raise FingerprintError("negative Ext dimension; Hom solve is inconsistent")
    return d


def reflect(q: Quiver, v: Vertex, direction: str, m: Representation) -> Representation:
    """BGP reflection functor R^+ (v a sink) or R^- (v a source).

    The result lives over the quiver with all arrows at v reversed.
    """
    if m.quiver != q:
        raise ValueError("representation does not live over the given quiver")
    qr = q.reflect_at(v)
    incident = [k for k, (s, t) in enumerate(q.arrows) if s == v or t == v]
    # qr.arrows is the sorted list of the reflected arrows, so a stable sort
    # gives the original arrow of each, parallel arrows in their own order; a
    # reversed arrow, one of whose ends is v, never equals one kept as it was
    reflected = [(t, s) if v in (s, t) else (s, t) for s, t in q.arrows]
    orig_of_new = sorted(range(len(q.arrows)), key=reflected.__getitem__)

    if direction == "+":
        if not q.is_sink(v):
            raise ValueError(f"vertex {v} is not a sink")
        ins = [k for k in incident if q.arrows[k][1] == v]
        block_at = {}
        width = 0
        for k in ins:
            block_at[k] = width
            width += m.dims[q.arrows[k][0] - 1]
        # kernel of [M_{a1} | M_{a2} | ...] : (+) M_{s(a)} -> M_v
        rows = [
            fields.pack(itertools.chain.from_iterable(m.maps[k][i] for k in ins))
            for i in range(m.dims[v - 1])
        ]
        kernel = fields.gf2_nullspace(rows, width)
        new_dim_v = len(kernel)
    else:
        if direction != "-":
            raise ValueError("direction must be '+' or '-'")
        if not q.is_source(v):
            raise ValueError(f"vertex {v} is not a source")
        outs = [k for k in incident if q.arrows[k][0] == v]
        block_at = {}
        height = 0
        for k in outs:
            block_at[k] = height
            height += m.dims[q.arrows[k][1] - 1]
        # cokernel of stacked [M_{a1}; M_{a2}; ...] : M_v -> (+) M_{t(a)}
        image = fields.gf2_echelon(
            fields.pack(itertools.chain.from_iterable(
                (row[j] for row in m.maps[k]) for k in outs))
            for j in range(m.dims[v - 1])
        )
        pivots = {row & -row for row in image}
        coker_coords = [i for i in range(height) if 1 << i not in pivots]
        new_dim_v = len(coker_coords)

    dims = tuple(
        new_dim_v if u == v else m.dims[u - 1] for u in q.vertices
    )
    maps: list[Matrix] = []
    for nk, (s, t) in enumerate(qr.arrows):
        k = orig_of_new[nk]
        if s != v and t != v:
            maps.append(m.maps[k])
            continue
        off = block_at[k]
        if direction == "+":
            # reversed arrow v -> t: kernel -> M_t, block projection
            maps.append(tuple(
                tuple(kernel[c] >> (off + r) & 1 for c in range(new_dim_v))
                for r in range(m.dims[t - 1])
            ))
        else:
            # reversed arrow s -> v: M_s -> coker, block inclusion then project
            cols = [
                fields.gf2_reduce(image, 1 << (off + c)) for c in range(m.dims[s - 1])
            ]
            maps.append(tuple(
                tuple(col >> i & 1 for col in cols) for i in coker_coords
            ))
    return Representation(qr, dims, tuple(maps))


def _is_simple_root(root: Root) -> int | None:
    if sum(root) == 1 and all(x in (0, 1) for x in root):
        return root.index(1) + 1
    return None


@lru_cache(maxsize=None)
def indecomposable(q: Quiver, root: Root) -> Representation:
    """The unique indecomposable with the given positive root as dimensions.

    Walk the root to a simple by sink reflections taken in admissible order
    (each full pass applies cox(Q)), then unwind the chain of inverse
    reflection functors starting from that simple.
    """
    require_finite_type(q)
    if not is_positive_root(q, root):
        raise ValueError(f"{root} is not a positive root")
    steps: list[tuple[Quiver, Vertex]] = []
    cur_q, cur = q, root
    guard = 0
    while _is_simple_root(cur) is None:
        guard += 1
        if guard > len(positive_roots(q)) + q.n:
            raise FingerprintError("sink-reflection walk failed to reach a simple root")
        for v in reversed(cur_q.topological_order()):
            if _is_simple_root(cur) is not None:
                break
            steps.append((cur_q, v))
            cur = _simple_step(cur_q, v, cur)
            cur_q = cur_q.reflect_at(v)
    m = simple_rep(cur_q, _is_simple_root(cur))
    for prev_q, v in reversed(steps):
        m = reflect(m.quiver, v, "-", m)
        if m.quiver != prev_q:
            raise FingerprintError("reflection chain lost track of the quiver")
    if m.dims != root:
        raise FingerprintError(
            f"reflection chain produced dims {m.dims}, expected {root}"
        )
    return m


@lru_cache(maxsize=None)
def _indecomposable_hom_basis(q: Quiver, a: Root, b: Root) -> HomBasis:
    """Hom(M_a, M_b) between the indecomposables of two positive roots,
    solved once per quiver and root pair."""
    return hom_basis(indecomposable(q, a), indecomposable(q, b))


@lru_cache(maxsize=None)
def _subspaces(dim: int) -> tuple[tuple[int, ...], ...]:
    """Every subspace of GF(2)^dim as its reduced echelon basis
    (`fields.gf2_echelon`), rows packed."""
    out = [()]
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, dim)
                if c not in pivots
            ]
            for values in itertools.product((0, 1), repeat=len(free)):
                rows = [1 << p for p in pivots]
                for (r, c), x in zip(free, values):
                    rows[r] |= x << c
                out.append(tuple(rows))
    return tuple(out)


def subrepresentation_subspaces(
    m: Representation, cap: int = DEFAULT_CAP, dims: DimVector | None = None
) -> list[tuple[tuple[int, ...], ...]]:
    """All subrepresentations as per-vertex reduced echelon bases, rows
    packed; with `dims`, only those of that dimension vector."""
    if m.total_dim > cap:
        raise OracleCapError(
            f"total dimension {m.total_dim} exceeds the oracle cap {cap}"
        )
    q = m.quiver
    per_vertex = [_subspaces(d) for d in m.dims]
    if dims is not None:
        per_vertex = [[s for s in subs if len(s) == k] for subs, k in zip(per_vertex, dims)]
    arrows = [
        (s - 1, t - 1, _columns(mat, m.dims[s - 1]))
        for (s, t), mat in zip(q.arrows, m.maps)
    ]
    return [
        choice
        for choice in itertools.product(*per_vertex)
        if not any(
            fields.gf2_reduce(choice[t], _image(cols, w))
            for s, t, cols in arrows
            for w in choice[s]
        )
    ]


@lru_cache(maxsize=None)
def subrep_dimvectors(m: Representation, cap: int = DEFAULT_CAP) -> frozenset[DimVector]:
    """Dimension vectors of all subrepresentations, including 0 and dim M;
    enumerated once per representation and cap."""
    return frozenset(
        tuple(len(s) for s in choice)
        for choice in subrepresentation_subspaces(m, cap)
    )


def sub_representation(
    m: Representation, subspaces: tuple[tuple[int, ...], ...]
) -> Representation:
    """The subrepresentation with the given per-vertex reduced echelon bases:
    the coordinates of a vector of the span are its bits at the pivots."""
    q = m.quiver
    dims = tuple(len(s) for s in subspaces)
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        cols = _columns(m.maps[k], m.dims[s - 1])
        images = [_image(cols, w) for w in subspaces[s - 1]]
        maps.append(tuple(
            tuple(int(img & row & -row != 0) for img in images) for row in subspaces[t - 1]
        ))
    return Representation(q, dims, tuple(maps))


def quotient_representation(
    m: Representation, subspaces: tuple[tuple[int, ...], ...]
) -> Representation:
    """The quotient of M by the subrepresentation with the given bases, on
    the coordinates that are not pivots."""
    q = m.quiver
    coords = []
    for v in range(q.n):
        pivots = {row & -row for row in subspaces[v]}
        coords.append([c for c in range(m.dims[v]) if 1 << c not in pivots])
    dims = tuple(len(c) for c in coords)
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        cols = _columns(m.maps[k], m.dims[s - 1])
        residues = [fields.gf2_reduce(subspaces[t - 1], cols[c]) for c in coords[s - 1]]
        maps.append(tuple(
            tuple(res >> r & 1 for res in residues) for r in coords[t - 1]
        ))
    return Representation(q, dims, tuple(maps))


@lru_cache(maxsize=None)
def decompose(q: Quiver, m: Representation) -> tuple[Root, ...]:
    """Multiset of roots with M isomorphic to the direct sum of their
    indecomposables, resolved by the Hom-dimension fingerprint; solved once
    per quiver and representation."""
    require_finite_type(q)
    if m.total_dim == 0:
        return ()
    order = ar_linear_order(q)
    fingerprint = [hom_dim(indecomposable(q, beta), m) for beta in order]
    hom_table = [
        [len(_indecomposable_hom_basis(q, a, b)) for b in order] for a in order
    ]
    mult = [0] * len(order)
    for i in reversed(range(len(order))):
        acc = fingerprint[i] - sum(
            hom_table[i][j] * mult[j] for j in range(i + 1, len(order))
        )
        if hom_table[i][i] != 1:
            raise FingerprintError("endomorphism ring of an indecomposable is not k")
        mult[i] = acc
        if acc < 0:
            raise FingerprintError("fingerprint produced a negative multiplicity")
    total = tuple(
        sum(mult[i] * order[i][v] for i in range(len(order))) for v in range(q.n)
    )
    if total != m.dims:
        raise FingerprintError("fingerprint multiplicities do not match dimensions")
    out: list[Root] = []
    for i, k in enumerate(mult):
        out.extend([order[i]] * k)
    return tuple(sorted(out))


def ar_quiver_by_hom_basis(q: Quiver) -> tuple[tuple[Root, Root], ...]:
    """Oracle for `ar_quiver`: the number of copies of (L, M) equals
    dim rad(L,M)/rad^2(L,M), computed from explicit Hom bases."""
    require_finite_type(q)
    roots = positive_roots(q)
    edges = []
    for a in roots:
        for b in roots:
            if a == b:
                continue
            basis = _indecomposable_hom_basis(q, a, b).elements
            if not basis:
                continue
            composites = []
            for z in roots:
                if z == a or z == b:
                    continue
                for f in _indecomposable_hom_basis(q, a, z).elements:
                    for g in _indecomposable_hom_basis(q, z, b).elements:
                        # g . f per vertex, shape (b_v x a_v) even when z_v = 0
                        composites.append(fields.pack(
                            sum(g[v][i][l] & f[v][l][j] for l in range(z[v])) & 1
                            for v in range(q.n)
                            for i in range(b[v])
                            for j in range(a[v])
                        ))
            rad2 = fields.gf2_rank(composites)
            for _ in range(len(basis) - rad2):
                edges.append((a, b))
    return tuple(sorted(edges))


def gen(q: Quiver, s: IndecSet) -> IndecSet:
    """Indecomposables of Gen(S): quotients of finite sums of members.

    X lies in Gen(S) iff the trace of S in X (the sum of all images of
    morphisms out of add S) is all of X.  This is the oracle for
    `torsion_closure`.
    """
    require_finite_type(q)
    s = frozenset(s)
    _check_roots(q, s)
    return _gen(q, s)


@lru_cache(maxsize=None)
def _trace_columns(q: Quiver, a: Root, b: Root) -> tuple[tuple[int, ...], ...]:
    """Per vertex, the packed columns of every morphism of the Hom basis
    from M_a to M_b: together they span the trace of M_a in M_b there."""
    elements = _indecomposable_hom_basis(q, a, b).elements
    return tuple(
        tuple(itertools.chain.from_iterable(_columns(phi[v], a[v]) for phi in elements))
        for v in range(q.n)
    )


@lru_cache(maxsize=None)
def _gen(q: Quiver, s: IndecSet) -> IndecSet:
    """`gen` of checked roots, traced once per quiver and set."""
    if not s:
        return frozenset()
    out = set()
    for x in positive_roots(q):
        if x in s:
            out.add(x)
            continue
        traces = [_trace_columns(q, r, x) for r in s]
        if all(
            fields.gf2_rank(itertools.chain.from_iterable(t[v] for t in traces)) == x[v]
            for v in range(q.n)
        ):
            out.add(x)
    return frozenset(out)


@lru_cache(maxsize=None)
def quotient_root_closure(q: Quiver, alpha: Root, cap: int = DEFAULT_CAP) -> frozenset[Root]:
    """Every root appearing as a summand of some quotient of M_alpha."""
    m = indecomposable(q, alpha)
    out: set[Root] = set()
    for sub in subrepresentation_subspaces(m, cap):
        out.update(decompose(q, quotient_representation(m, sub)))
    return frozenset(out)


def _multisets_with_dim(q: Quiver, target: tuple[int, ...]) -> list[tuple[Root, ...]]:
    roots = positive_roots(q)

    def rec(i: int, remaining: tuple[int, ...]) -> list[tuple[Root, ...]]:
        if all(x == 0 for x in remaining):
            return [()]
        if i == len(roots):
            return []
        out = []
        r = roots[i]
        max_copies = min(
            (remaining[v] // r[v] for v in range(q.n) if r[v]), default=0
        )
        for k in range(max_copies + 1):
            rest = tuple(remaining[v] - k * r[v] for v in range(q.n))
            for tail in rec(i + 1, rest):
                out.append((r,) * k + tail)
        return out

    return rec(0, target)


@lru_cache(maxsize=None)
def extension_root_closure(
    q: Quiver, alpha: Root, beta: Root, cap: int = DEFAULT_CAP
) -> frozenset[Root]:
    """Summands of every middle term E of 0 -> M_beta -> E -> M_alpha -> 0.

    Candidates are all multisets of roots with the right total dimension;
    a candidate qualifies when some subrepresentation is isomorphic to
    M_beta with quotient isomorphic to M_alpha.
    """
    total = tuple(a + b for a, b in zip(alpha, beta))
    if sum(total) > cap:
        raise OracleCapError(
            f"extension search at dimension {sum(total)} exceeds the cap {cap}"
        )
    out: set[Root] = set()
    for candidate in _multisets_with_dim(q, total):
        e = direct_sum([indecomposable(q, r) for r in candidate])
        found = False
        for sub in subrepresentation_subspaces(e, cap, beta):
            if decompose(q, sub_representation(e, sub)) != (beta,):
                continue
            if decompose(q, quotient_representation(e, sub)) == (alpha,):
                found = True
                break
        if found:
            out.update(candidate)
    return frozenset(out)


def is_torsion_class(q: Quiver, s: IndecSet, cap: int = DEFAULT_CAP) -> bool:
    """Brute-force oracle: closed under quotients and extensions."""
    require_finite_type(q)
    s = frozenset(s)
    _check_roots(q, s)
    for alpha in s:
        if not quotient_root_closure(q, alpha, cap) <= s:
            return False
    for alpha in s:
        for beta in s:
            if not extension_root_closure(q, alpha, beta, cap) <= s:
                return False
    return True


def is_wide(q: Quiver, s: IndecSet, cap: int = DEFAULT_CAP) -> bool:
    """Oracle: closed under kernels, cokernels and extensions, checked on
    every morphism between members."""
    require_finite_type(q)
    s = frozenset(s)
    _check_roots(q, s)
    for alpha in s:
        for beta in s:
            if not extension_root_closure(q, alpha, beta, cap) <= s:
                return False
            ma, mb = indecomposable(q, alpha), indecomposable(q, beta)
            # per basis element and vertex, the packed rows and columns of phi_v
            basis = [
                [([fields.pack(row) for row in phi[v]], _columns(phi[v], alpha[v]))
                 for v in range(q.n)]
                for phi in _indecomposable_hom_basis(q, alpha, beta).elements
            ]
            for coeffs in itertools.product(range(2), repeat=len(basis)):
                chosen = [b for b, c in zip(basis, coeffs) if c]
                if not chosen:
                    continue
                kernel, image = [], []
                for v in range(q.n):
                    rows = [0] * beta[v]
                    cols = [0] * alpha[v]
                    for b in chosen:
                        rows = [x ^ y for x, y in zip(rows, b[v][0])]
                        cols = [x ^ y for x, y in zip(cols, b[v][1])]
                    kernel.append(tuple(fields.gf2_echelon(fields.gf2_nullspace(rows, alpha[v]))))
                    image.append(tuple(fields.gf2_echelon(cols)))
                if not set(decompose(q, sub_representation(ma, tuple(kernel)))) <= s:
                    return False
                if not set(decompose(q, quotient_representation(mb, tuple(image)))) <= s:
                    return False
    return True
