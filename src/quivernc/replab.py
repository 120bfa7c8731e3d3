"""Explicit quiver representations over exact fields, and the oracles
built on them.

Hom/Ext computation, BGP reflection functors, construction of the
indecomposable for each positive root, subrepresentation enumeration (the
brute-force oracle substrate) and Krull-Schmidt decomposition by Hom
fingerprints.  The Hom basis between the indecomposables of two roots is
solved once per quiver, root pair and field, and serves both the
decomposition's Hom table and Gen; each decomposition is resolved once per
representation, and each Gen traced once per set and field.  On top of
these sit the references that `verify` and the tests check the integer
fast path against: Gen(S) as a trace over explicit Hom bases (for
`tors.torsion_closure`), the GF(2) quotient and extension closures behind
`is_torsion_class` and `is_wide`, the torsion subobject, and the AR quiver
from Hom bases (for `weyl.ar_quiver`).  No production module imports this
one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from . import fields
from .errors import FingerprintError, OracleCapError
from .fields import GF2, QQ
from .quiver import (
    DimVector,
    Quiver,
    Root,
    Vertex,
    euler_form,
    is_positive_root,
    positive_roots,
    require_finite_type,
)
from .tors import IndecSet, _check_roots, _require_torsion_class
from .weyl import ar_linear_order, reflection

DEFAULT_CAP = 12

Matrix = tuple[tuple[object, ...], ...]


@dataclass(frozen=True)
class Representation:
    """Per-vertex dimensions plus one matrix per arrow.

    maps[k] has shape (dim at target) x (dim at source) for arrows[k] and
    acts on column vectors; entries live in `field`.
    """

    quiver: Quiver
    field: object
    dims: DimVector
    maps: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.dims) != self.quiver.n or len(self.maps) != len(self.quiver.arrows):
            raise ValueError("representation shape mismatch")
        for (s, t), m in zip(self.quiver.arrows, self.maps):
            rows, cols = len(m), (len(m[0]) if m else 0)
            if rows != self.dims[t - 1] or (rows and cols != self.dims[s - 1]):
                raise ValueError(f"map for arrow {s}->{t} has wrong shape")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def to_json(self) -> str:
        def cell(x):
            if self.field is QQ:
                return int(x) if x.denominator == 1 else str(x)
            return int(x)

        return json.dumps(
            {
                "dims": list(self.dims),
                "maps": {
                    str(k): [[cell(x) for x in row] for row in m]
                    for k, m in enumerate(self.maps)
                },
                "field": self.field.name,
            }
        )


def _freeze(m) -> Matrix:
    return tuple(tuple(row) for row in m)


def zero_matrix(field, rows: int, cols: int) -> Matrix:
    return _freeze(fields.zeros(field, rows, cols))


def zero_rep(q: Quiver, field=QQ) -> Representation:
    return Representation(
        q, field, (0,) * q.n, tuple(zero_matrix(field, 0, 0) for _ in q.arrows)
    )


def simple_rep(q: Quiver, v: Vertex, field=QQ) -> Representation:
    if not 1 <= v <= q.n:
        raise ValueError(f"unknown vertex {v}")
    dims = tuple(1 if u == v else 0 for u in q.vertices)
    maps = tuple(
        zero_matrix(field, dims[t - 1], dims[s - 1]) for s, t in q.arrows
    )
    return Representation(q, field, dims, maps)


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


def projective_rep(q: Quiver, v: Vertex, field=QQ) -> Representation:
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
    one = field.of_int(1)
    for k, (s, t) in enumerate(q.arrows):
        m = fields.zeros(field, dims[t - 1], dims[s - 1])
        for p, col in index[s].items():
            m[index[t][p + (k,)]][col] = one
        maps.append(_freeze(m))
    return Representation(q, field, dims, tuple(maps))


def injective_rep(q: Quiver, v: Vertex, field=QQ) -> Representation:
    """I_v: basis at w is the set of paths w -> v.

    The arrow a: i -> j sends the dual basis vector of a path p: i -> v to
    the dual basis vector of x: j -> v whenever p = (a then x).
    """
    if not 1 <= v <= q.n:
        raise ValueError(f"unknown vertex {v}")
    rev = Quiver(q.n, tuple((t, s) for s, t in q.arrows))
    arrow_of_rev = {}
    used: set[int] = set()
    for rk, (s, t) in enumerate(rev.arrows):
        k = next(
            i for i, (a, b) in enumerate(q.arrows) if (a, b) == (t, s) and i not in used
        )
        used.add(k)
        arrow_of_rev[rk] = k
    rev_paths = _paths_from(rev, v)  # reversed path p: v -> w means p: w -> v in q
    by_vertex: dict[Vertex, list[tuple[int, ...]]] = {u: [] for u in q.vertices}
    for p in rev_paths:
        by_vertex[_path_end(rev, v, p)].append(p)
    index = {u: {p: i for i, p in enumerate(ps)} for u, ps in by_vertex.items()}
    dims = tuple(len(by_vertex[u]) for u in q.vertices)
    maps = []
    one = field.of_int(1)
    for k, (s, t) in enumerate(q.arrows):
        # in rev, arrow k runs t -> s; traversing p in q from s first crosses k
        m = fields.zeros(field, dims[t - 1], dims[s - 1])
        rk = next(r for r, orig in arrow_of_rev.items() if orig == k)
        for p, col in index[s].items():
            if p and p[-1] == rk:  # rev path v -> s ending with arrow t -> s
                m[index[t][p[:-1]]][col] = one
        maps.append(_freeze(m))
    return Representation(q, field, dims, tuple(maps))


def direct_sum(reps: list[Representation]) -> Representation:
    if not reps:
        raise ValueError("empty direct sum needs an explicit quiver; use zero_rep")
    q, field = reps[0].quiver, reps[0].field
    if any(r.quiver != q or r.field is not field for r in reps):
        raise ValueError("summands live over different quivers or fields")
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(q.n))
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        m = fields.zeros(field, dims[t - 1], dims[s - 1])
        ro = co = 0
        for r in reps:
            block = r.maps[k]
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    m[ro + i][co + j] = x
            ro += r.dims[t - 1]
            co += r.dims[s - 1]
        maps.append(_freeze(m))
    return Representation(q, field, dims, tuple(maps))


@dataclass(frozen=True)
class HomBasis:
    """Basis of Hom(source, target): tuples of per-vertex matrices."""

    source: Representation
    target: Representation
    elements: tuple[tuple[Matrix, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)


def hom_basis(m: Representation, n: Representation) -> HomBasis:
    """Solve the commuting system phi_t . M_a = N_a . phi_s per arrow."""
    if m.quiver != n.quiver:
        raise ValueError("representations live over different quivers")
    if m.field is not n.field:
        raise ValueError("field mismatch")
    q, field = m.quiver, m.field
    # unknowns: entries of phi_v (n.dims[v] x m.dims[v]), vertex-major order
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]

    def var(v: int, row: int, col: int) -> int:
        return offsets[v] + row * m.dims[v] + col

    rows = []
    zero = field.of_int(0)
    for k, (s, t) in enumerate(q.arrows):
        si, ti = s - 1, t - 1
        ma, na = m.maps[k], n.maps[k]
        for i in range(n.dims[ti]):
            for j in range(m.dims[si]):
                row = [zero] * total
                # (phi_t . M_a)[i][j] = sum_l phi_t[i][l] * M_a[l][j]
                for l in range(m.dims[ti]):
                    row[var(ti, i, l)] = field.add(row[var(ti, i, l)], ma[l][j])
                # -(N_a . phi_s)[i][j] = -sum_l N_a[i][l] * phi_s[l][j]
                for l in range(n.dims[si]):
                    row[var(si, l, j)] = field.sub(row[var(si, l, j)], na[i][l])
                rows.append(row)
    basis = fields.nullspace(field, rows, total)
    elems = []
    for vec in basis:
        mats = []
        for v in range(q.n):
            mat = [
                [vec[var(v, i, j)] for j in range(m.dims[v])] for i in range(n.dims[v])
            ]
            mats.append(_freeze(mat))
        elems.append(tuple(mats))
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
    field = m.field
    qr = q.reflect_at(v)
    incident = [k for k, (s, t) in enumerate(q.arrows) if s == v or t == v]
    # match each reflected arrow occurrence with an original occurrence
    pair_count: dict[tuple[int, int], int] = {}
    orig_of_new: dict[int, int] = {}
    for nk, (s, t) in enumerate(qr.arrows):
        key = tuple(sorted((s, t)))
        occ = pair_count.get((s, t), 0)
        pair_count[(s, t)] = occ + 1
        matches = [
            k
            for k in range(len(q.arrows))
            if tuple(sorted(q.arrows[k])) == key
            and ((q.arrows[k] == (s, t)) == (k not in incident))
        ]
        orig_of_new[nk] = matches[occ]

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
        rows = []
        for i in range(m.dims[v - 1]):
            row = []
            for k in ins:
                row.extend(m.maps[k][i])
            rows.append(row)
        kernel = fields.nullspace(field, rows, width)
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
        image_cols = []
        for j in range(m.dims[v - 1]):
            col = []
            for k in outs:
                col.extend(m.maps[k][i][j] for i in range(len(m.maps[k])))
            image_cols.append(col)
        reduced, pivots = fields.rref(field, image_cols)
        coker_coords = [i for i in range(height) if i not in pivots]
        new_dim_v = len(coker_coords)

        def project(vec: list) -> list:
            res = fields.reduce_against(field, reduced, pivots, vec)
            return [res[i] for i in coker_coords]

    dims = tuple(
        new_dim_v if u == v else m.dims[u - 1] for u in q.vertices
    )
    maps: list[Matrix] = []
    for nk, (s, t) in enumerate(qr.arrows):
        k = orig_of_new[nk]
        if s != v and t != v:
            maps.append(m.maps[k])
            continue
        if direction == "+":
            # reversed arrow v -> i: kernel -> M_i, block projection
            i = t
            off = block_at[k]
            d_i = m.dims[i - 1]
            mat = [
                [kernel[c][off + r] for c in range(new_dim_v)] for r in range(d_i)
            ]
            maps.append(_freeze(mat))
        else:
            # reversed arrow j -> v: M_j -> coker, block inclusion then project
            j = s
            off = block_at[k]
            d_j = m.dims[j - 1]
            cols = []
            for c in range(d_j):
                unit = [field.of_int(0)] * height
                unit[off + c] = field.of_int(1)
                cols.append(project(unit))
            mat = [[cols[c][r] for c in range(d_j)] for r in range(new_dim_v)]
            maps.append(_freeze(mat))
    return Representation(qr, field, dims, tuple(maps))


def _is_simple_root(root: Root) -> int | None:
    if sum(root) == 1 and all(x in (0, 1) for x in root):
        return root.index(1) + 1
    return None


@lru_cache(maxsize=None)
def indecomposable(q: Quiver, root: Root, field=QQ) -> Representation:
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
            cur = reflection(cur_q, tuple(1 if u == v else 0 for u in cur_q.vertices)).apply(cur)
            cur_q = cur_q.reflect_at(v)
    m = simple_rep(cur_q, _is_simple_root(cur), field)
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
def _indecomposable_hom_basis(q: Quiver, a: Root, b: Root, field) -> HomBasis:
    """Hom(M_a, M_b) between the indecomposables of two positive roots,
    solved once per quiver, root pair and field."""
    return hom_basis(indecomposable(q, a, field), indecomposable(q, b, field))


def _all_subspaces(field, dim: int) -> list[tuple[tuple, ...]]:
    """Every subspace of field^dim as a canonical RREF row basis."""
    out = [()]
    one, zero = field.of_int(1), field.of_int(0)
    scalars = (
        [field.of_int(k) for k in range(field.p)]
        if isinstance(field, fields.PrimeField)
        else None
    )
    if scalars is None:
        raise ValueError("subspace enumeration needs a finite field")
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free_pos = [
                (r, c)
                for r in range(k)
                for c in range(dim)
                if c > pivots[r] and c not in pivots
            ]
            for values in itertools.product(scalars, repeat=len(free_pos)):
                mat = [[zero] * dim for _ in range(k)]
                for r, p in enumerate(pivots):
                    mat[r][p] = one
                for (r, c), val in zip(free_pos, values):
                    mat[r][c] = val
                out.append(tuple(tuple(row) for row in mat))
    return out


@lru_cache(maxsize=None)
def _subspace_lists(field, dim: int) -> tuple:
    return tuple(_all_subspaces(field, dim))


def subrepresentation_subspaces(
    m: Representation, cap: int = DEFAULT_CAP, dims: DimVector | None = None
) -> list[tuple[tuple[tuple, ...], ...]]:
    """All subrepresentations as per-vertex RREF subspace bases; with
    `dims`, only those of that dimension vector."""
    if m.total_dim > cap:
        raise OracleCapError(
            f"total dimension {m.total_dim} exceeds the oracle cap {cap}"
        )
    q, field = m.quiver, m.field
    per_vertex = [_subspace_lists(field, d) for d in m.dims]
    if dims is not None:
        per_vertex = [[s for s in subs if len(s) == k] for subs, k in zip(per_vertex, dims)]
    arrows = list(enumerate(q.arrows))
    out = []
    for choice in itertools.product(*per_vertex):
        ok = True
        for k, (s, t) in arrows:
            target = choice[t - 1]
            pivots = fields.pivots_of(field, target)
            for w in choice[s - 1]:
                img = fields.mat_vec(field, m.maps[k], w)
                if not fields.in_span(field, target, pivots, img):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(choice)
    return out


@lru_cache(maxsize=None)
def subrep_dimvectors(m: Representation, cap: int = DEFAULT_CAP) -> frozenset[DimVector]:
    """Dimension vectors of all subrepresentations, including 0 and dim M;
    enumerated once per representation and cap."""
    return frozenset(
        tuple(len(s) for s in choice)
        for choice in subrepresentation_subspaces(m, cap)
    )


def sub_representation(
    m: Representation, subspaces: tuple[tuple[tuple, ...], ...]
) -> Representation:
    """The subrepresentation spanned by the given per-vertex row bases."""
    q, field = m.quiver, m.field
    dims = tuple(len(s) for s in subspaces)
    maps = []
    for k, (s, t) in enumerate(q.arrows):
        rows_s, rows_t = subspaces[s - 1], subspaces[t - 1]
        cols = []
        for w in rows_s:
            img = fields.mat_vec(field, m.maps[k], w)
            cols.append(fields.coords_in_basis(field, rows_t, img) if rows_t else [])
        mat = [[cols[c][r] for c in range(dims[s - 1])] for r in range(dims[t - 1])]
        maps.append(_freeze(mat))
    return Representation(q, field, dims, tuple(maps))


def quotient_representation(
    m: Representation, subspaces: tuple[tuple[tuple, ...], ...]
) -> Representation:
    """The quotient of M by the subrepresentation with the given bases."""
    q, field = m.quiver, m.field
    reductions = []
    coords = []
    for v in range(q.n):
        rows = list(subspaces[v])
        pivots = fields.pivots_of(field, rows)
        reductions.append((rows, pivots))
        coords.append([c for c in range(m.dims[v]) if c not in pivots])
    dims = tuple(len(c) for c in coords)

    def project(v: int, vec) -> list:
        rows, pivots = reductions[v]
        res = fields.reduce_against(field, rows, pivots, vec)
        return [res[c] for c in coords[v]]

    maps = []
    for k, (s, t) in enumerate(q.arrows):
        si, ti = s - 1, t - 1
        cols = []
        for c in coords[si]:
            unit = [field.of_int(0)] * m.dims[si]
            unit[c] = field.of_int(1)
            cols.append(project(ti, fields.mat_vec(field, m.maps[k], unit)))
        mat = [[cols[c][r] for c in range(dims[si])] for r in range(dims[ti])]
        maps.append(_freeze(mat))
    return Representation(q, field, dims, tuple(maps))


@lru_cache(maxsize=None)
def decompose(q: Quiver, m: Representation) -> tuple[Root, ...]:
    """Multiset of roots with M isomorphic to the direct sum of their
    indecomposables, resolved by the Hom-dimension fingerprint; solved once
    per quiver and representation (the field is part of the value)."""
    require_finite_type(q)
    if m.total_dim == 0:
        return ()
    order = ar_linear_order(q)
    field = m.field
    fingerprint = [hom_dim(indecomposable(q, beta, field), m) for beta in order]
    hom_table = [
        [len(_indecomposable_hom_basis(q, a, b, field)) for b in order] for a in order
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
    reps = {r: indecomposable(q, r) for r in roots}
    bases = {
        (a, b): hom_basis(reps[a], reps[b]) for a in roots for b in roots if a != b
    }
    edges = []
    for a in roots:
        for b in roots:
            if a == b:
                continue
            basis = bases[(a, b)].elements
            if not basis:
                continue
            composites = []
            for z in roots:
                if z == a or z == b:
                    continue
                for f in bases[(a, z)].elements:
                    for g in bases[(z, b)].elements:
                        comp = []
                        for v in range(q.n):
                            # shape (b_v x a_v) even when the middle dim is 0
                            for i in range(b[v]):
                                for j in range(a[v]):
                                    comp.append(
                                        sum(
                                            g[v][i][l] * f[v][l][j]
                                            for l in range(z[v])
                                        )
                                    )
                        composites.append(comp)
            rad2 = fields.rank(QQ, composites) if composites else 0
            for _ in range(len(basis) - rad2):
                edges.append((a, b))
    return tuple(sorted(edges))


def gen(q: Quiver, s: IndecSet, field=QQ) -> IndecSet:
    """Indecomposables of Gen(S): quotients of finite sums of members.

    X lies in Gen(S) iff the trace of S in X (the sum of all images of
    morphisms out of add S) is all of X.  This is the oracle for
    `torsion_closure`.
    """
    require_finite_type(q)
    s = frozenset(s)
    _check_roots(q, s)
    return _gen(q, s, field)


@lru_cache(maxsize=None)
def _gen(q: Quiver, s: IndecSet, field) -> IndecSet:
    """`gen` of checked roots, traced once per quiver, set and field."""
    if not s:
        return frozenset()
    out = set()
    for x in positive_roots(q):
        if x in s:
            out.add(x)
            continue
        spans = [[] for _ in range(q.n)]
        for r in s:
            for phi in _indecomposable_hom_basis(q, r, x, field).elements:
                for v in range(q.n):
                    cols = len(phi[v][0]) if phi[v] else 0
                    for c in range(cols):
                        spans[v].append([phi[v][i][c] for i in range(x[v])])
        if all(
            fields.rank(field, spans[v]) == x[v] for v in range(q.n)
        ):
            out.add(x)
    return frozenset(out)


@lru_cache(maxsize=None)
def quotient_root_closure(q: Quiver, alpha: Root, cap: int = DEFAULT_CAP) -> frozenset[Root]:
    """Every root appearing as a summand of some quotient of M_alpha (GF(2))."""
    m = indecomposable(q, alpha, GF2)
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
    a candidate qualifies when some GF(2) subrepresentation is isomorphic to
    M_beta with quotient isomorphic to M_alpha.
    """
    total = tuple(a + b for a, b in zip(alpha, beta))
    if sum(total) > cap:
        raise OracleCapError(
            f"extension search at dimension {sum(total)} exceeds the cap {cap}"
        )
    out: set[Root] = set()
    for candidate in _multisets_with_dim(q, total):
        e = direct_sum([indecomposable(q, r, GF2) for r in candidate])
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
    """Brute-force oracle: closed under quotients and extensions over GF(2)."""
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
    every GF(2) morphism between members."""
    require_finite_type(q)
    s = frozenset(s)
    _check_roots(q, s)
    for alpha in s:
        for beta in s:
            if not extension_root_closure(q, alpha, beta, cap) <= s:
                return False
            ma = indecomposable(q, alpha, GF2)
            mb = indecomposable(q, beta, GF2)
            basis = hom_basis(ma, mb).elements
            for coeffs in itertools.product(range(2), repeat=len(basis)):
                if not any(coeffs):
                    continue
                phi = [
                    [
                        [
                            sum(c * basis[k][v][i][j] for k, c in enumerate(coeffs)) % 2
                            for j in range(ma.dims[v])
                        ]
                        for i in range(mb.dims[v])
                    ]
                    for v in range(q.n)
                ]
                kernel = tuple(
                    fields.row_space(GF2, fields.nullspace(GF2, phi[v], ma.dims[v]))
                    for v in range(q.n)
                )
                if not set(decompose(q, sub_representation(ma, kernel))) <= s:
                    return False
                image = tuple(
                    fields.row_space(
                        GF2,
                        [
                            [phi[v][i][j] for i in range(mb.dims[v])]
                            for j in range(ma.dims[v])
                        ],
                    )
                    for v in range(q.n)
                )
                if not set(decompose(q, quotient_representation(mb, image))) <= s:
                    return False
    return True


def torsion_subobject(
    q: Quiver, t: IndecSet, m: Representation, cap: int = DEFAULT_CAP
) -> Representation:
    """t(X): the maximal subobject of X lying in add T (field of X)."""
    t = frozenset(t)
    _require_torsion_class(q, t)
    candidates = []
    for sub in subrepresentation_subspaces(m, cap):
        if set(decompose(q, sub_representation(m, sub))) <= t:
            candidates.append(sub)
    field = m.field

    def contains(big, small) -> bool:
        for v in range(q.n):
            pivots = fields.pivots_of(field, big[v])
            for row in small[v]:
                if not fields.in_span(field, big[v], pivots, row):
                    return False
        return True

    best = max(candidates, key=lambda sub: sum(len(rows) for rows in sub))
    if not all(contains(best, other) for other in candidates):
        raise RuntimeError("torsion subobjects have no unique maximum")
    return sub_representation(m, best)
