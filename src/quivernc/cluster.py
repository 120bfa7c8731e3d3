"""Elementary model of the cluster category.

Indecomposables are the indecomposable representations plus one shifted
projective P_v[1] per vertex; all orthogonality checks reduce to Hom/Ext
statements inside rep Q.
"""

from __future__ import annotations

from functools import lru_cache

from .quiver import Quiver, Root, Vertex, _Frozen, positive_roots, require_finite_type
from .quiver import ext_dim_roots
from .tors import (
    IndecSet,
    _ext_free_masks,
    _support,
    compatible_sets,
    is_support_tilting,
    torsion_closure,
)


class CCIndec(_Frozen):
    """Either an indecomposable representation (root) or a shifted
    projective P_vertex[1]; an immutable value."""

    __slots__ = ("root", "shift")

    def __init__(self, root: Root | None = None, shift: Vertex | None = None):
        if (root is None) == (shift is None):
            raise ValueError("exactly one of root / shift must be set")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "shift", shift)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.root == other.root and self.shift == other.shift

    def __hash__(self) -> int:
        return hash((self.root, self.shift))

    def __reduce__(self):
        return type(self), (self.root, self.shift)

    @property
    def is_shift(self) -> bool:
        return self.shift is not None

    def sort_key(self):
        return (1, (self.shift,)) if self.is_shift else (0, self.root)

    def to_obj(self):
        return {"shift": self.shift} if self.is_shift else {"rep": list(self.root)}

    def __repr__(self) -> str:
        return f"shift({self.shift})" if self.is_shift else f"rep{list(self.root)}"


def cc_rep(root: Root) -> CCIndec:
    return CCIndec(root=tuple(root))


def cc_shift(v: Vertex) -> CCIndec:
    return CCIndec(shift=v)


ClusterTilting = frozenset  # of CCIndec


def cc_ext_orthogonal(q: Quiver, x: CCIndec, y: CCIndec) -> bool:
    """No extensions in the cluster category, via the rep Q reductions:
    two reps need Ext vanishing both ways; a rep against P_i[1] needs
    Hom(P_i, X) = 0, i.e. X_i = 0; two shifts are always orthogonal."""
    require_finite_type(q)
    if x.is_shift and y.is_shift:
        return True
    if x.is_shift:
        return y.root[x.shift - 1] == 0
    if y.is_shift:
        return x.root[y.shift - 1] == 0
    return (
        ext_dim_roots(q, x.root, y.root) == 0
        and ext_dim_roots(q, y.root, x.root) == 0
    )


@lru_cache(maxsize=None)
def all_cc_indecs(q: Quiver) -> tuple[CCIndec, ...]:
    require_finite_type(q)
    items = [cc_rep(r) for r in positive_roots(q)] + [cc_shift(v) for v in q.vertices]
    return tuple(sorted(items, key=CCIndec.sort_key))


@lru_cache(maxsize=None)
def _orth_masks(q: Quiver) -> dict[CCIndec, int]:
    """Bit j of x's mask is set when x and all_cc_indecs(q)[j] are
    orthogonal, as `cc_ext_orthogonal` decides.  all_cc_indecs lists the
    positive roots in the bit order of `tors`, then P_1[1], ..., P_n[1];
    a root is orthogonal to P_v[1] when its support misses v."""
    roots, ext_free = positive_roots(q), _ext_free_masks(q)
    m = len(roots)
    out = {}
    for v in q.vertices:  # every shift, and the roots whose support misses v
        out[cc_shift(v)] = ((1 << q.n) - 1) << m | sum(
            1 << j for j, r in enumerate(roots) if not r[v - 1])
    for r in roots:
        out[cc_rep(r)] = ext_free[r] | sum(1 << (m + v - 1) for v in q.vertices if not r[v - 1])
    return out


def _complements(q: Quiver, summands: frozenset) -> list[CCIndec]:
    """The indecomposables outside `summands` orthogonal to all of them."""
    items, orth = all_cc_indecs(q), _orth_masks(q)
    allowed = (1 << len(items)) - 1
    for x in summands:
        allowed &= orth[x]
    return [z for j, z in enumerate(items) if allowed >> j & 1 and z not in summands]


@lru_cache(maxsize=None)
def cluster_tilting_objects(q: Quiver) -> tuple[ClusterTilting, ...]:
    """All maximal pairwise-orthogonal objects; each has exactly n summands."""
    found = [frozenset(t) for t in compatible_sets(all_cc_indecs(q), _orth_masks(q), q.n)]
    for t in found:
        if _complements(q, t):
            raise RuntimeError(f"cluster tilting object {sorted(t, key=CCIndec.sort_key)} is not maximal")
    return tuple(sorted(found, key=lambda t: sorted(x.sort_key() for x in t)))


def complete_support_tilting(q: Quiver, c: IndecSet) -> ClusterTilting:
    """Add the shifted projectives of the vertices outside the support."""
    if not is_support_tilting(q, c):
        raise ValueError("input is not a support tilting object")
    supp = _support(q, c)
    return frozenset(
        {cc_rep(r) for r in c} | {cc_shift(v) for v in q.vertices if not supp >> (v - 1) & 1}
    )


def support_tilting_of(t: ClusterTilting) -> IndecSet:
    """Inverse of completion: drop the shifted projectives."""
    return frozenset(x.root for x in t if not x.is_shift)


def mutate(q: Quiver, t: ClusterTilting, x: CCIndec) -> ClusterTilting:
    """Exchange x for the unique other complement of t - x."""
    t = frozenset(t)
    if x not in t:
        raise ValueError(f"{x!r} is not a summand of the cluster tilting object")
    if not t <= _orth_masks(q).keys():
        raise ValueError("summands must be cluster-category indecomposables of the quiver")
    rest = t - {x}
    complements = _complements(q, rest)
    if len(complements) != 2 or x not in complements:
        raise RuntimeError(
            f"almost tilting object has {len(complements)} complements, expected 2"
        )
    other = next(z for z in complements if z != x)
    return rest | {other}


def gen_of(q: Quiver, t: ClusterTilting) -> IndecSet:
    """Gen of the rep-part summands (shifts contribute nothing)."""
    return torsion_closure(q, support_tilting_of(t))
