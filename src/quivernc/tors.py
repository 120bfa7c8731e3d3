"""Torsion classes, Ext/split projectives, support tilting and the
wide-subcategory extraction a(T), on integer roots and bitsets.

Subcategories closed under sums and summands are identified with their sets
of indecomposables, i.e. with frozensets of positive roots.  Torsion classes
come from `torsion_closure` on per-quiver Hom bitsets; a set is a torsion
class exactly when it is its own closure.  The Gen trace and the GF(2)
closure oracles these are checked against live in `replab`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, sub

from .quiver import Quiver, Root, _least_first, euler_row, positive_roots, require_finite_type

IndecSet = frozenset  # of Root


def _check_roots(q: Quiver, s: IndecSet) -> None:
    bits = _bits(q)
    bad = [r for r in s if r not in bits]
    if bad:
        raise ValueError(f"not positive roots of the quiver: {sorted(bad)}")


@lru_cache(maxsize=None)
def _bits(q: Quiver) -> dict[Root, int]:
    """1 << j for the j-th positive root: a set of roots is the sum of its
    members' bits."""
    return {a: 1 << j for j, a in enumerate(positive_roots(q))}


def _mask(q: Quiver, s) -> int:
    bits = _bits(q)
    return sum(bits[r] for r in s)


@lru_cache(maxsize=None)
def _support_masks(q: Quiver) -> dict[Root, int]:
    """Bit v - 1 of root a's mask is set when vertex v is in its support."""
    return {a: sum(1 << i for i, x in enumerate(a) if x) for a in positive_roots(q)}


def _support(q: Quiver, s) -> int:
    """The support of the members of s, as a mask like `_support_masks`."""
    return _union(_support_masks(q), s)


def _union(masks: dict, s) -> int:
    """The OR of the masks of the members of s."""
    out = 0
    for r in s:
        out |= masks[r]
    return out


def _euler_masks(q: Quiver, sign: int) -> dict[Root, int]:
    """Bit j of root a's mask is set when sign * <a, b> > 0, b the j-th
    positive root.  Each root's row a.E of the Euler matrix is formed once,
    so <a, b> is one dot product per pair."""
    roots = positive_roots(q)
    out = {}
    for a in roots:
        row = euler_row(q, a)
        out[a] = _mask(q, (b for b in roots if sign * sum(map(mul, row, b)) > 0))
    return out


@lru_cache(maxsize=None)
def _hom_masks(q: Quiver) -> dict[Root, int]:
    """Bit j of root a's mask is set when Hom(M_a, M_b) != 0, i.e.
    <a, b> > 0 (see `hom_dim_roots`), b the j-th positive root."""
    return _euler_masks(q, 1)


@lru_cache(maxsize=None)
def _ext_masks(q: Quiver) -> dict[Root, int]:
    """Bit j of root a's mask is set when Ext^1(M_a, M_b) != 0, i.e.
    <a, b> < 0 (see `ext_dim_roots`), b the j-th positive root."""
    return _euler_masks(q, -1)


@lru_cache(maxsize=None)
def _ext_free_masks(q: Quiver) -> dict[Root, int]:
    """Bit j of root a's mask is set when Ext^1 vanishes both ways between
    M_a and M_b, b the j-th positive root."""
    roots, ext, bits = positive_roots(q), _ext_masks(q), _bits(q)
    every = (1 << len(roots)) - 1
    return {
        a: every & ~ext[a] & ~_mask(q, (b for b in roots if ext[b] & bits[a]))
        for a in roots
    }


def torsion_closure(q: Quiver, s: IndecSet) -> IndecSet:
    """Indecomposables of T(S) = ⊥(S^⊥), the smallest torsion class
    containing S.

    S^⊥ is every root that no member of S maps to; T(S) is every root that
    maps to no root of S^⊥.  T(S) = Gen(S) whenever Gen(S) is a torsion
    class: for rigid S (support tilting objects and their subsets, since
    Ext^1 is right exact on a hereditary category) and for wide S.
    """
    s = frozenset(s)
    _check_roots(q, s)
    return _closure(q, s)


def _closure(q: Quiver, s) -> IndecSet:
    """`torsion_closure` of roots known to be positive roots of q."""
    masks = _hom_masks(q)
    perp = ~_union(masks, s)
    return frozenset(x for x, mask in masks.items() if not mask & perp)


def _require_torsion_class(q: Quiver, t: IndecSet) -> None:
    """T is a torsion class exactly when T = T(T) = ⊥(T^⊥)."""
    if torsion_closure(q, t) != frozenset(t):
        raise ValueError("input is not a (finitely generated) torsion class")


def ext_projectives(q: Quiver, t: IndecSet) -> IndecSet:
    """Roots of T with Ext^1 into every member of T vanishing."""
    require_finite_type(q)
    t = frozenset(t)
    _require_torsion_class(q, t)
    ext, members = _ext_masks(q), _mask(q, t)
    return frozenset(a for a in t if not ext[a] & members)


def split_projectives(
    q: Quiver, t: IndecSet, projectives: IndecSet | None = None
) -> IndecSet:
    """The minimal generator: the Ext-projectives x of T with x outside
    T(P - x), P the set of all of them (`ext_projectives(q, t)` unless
    given)."""
    t = frozenset(t)
    if projectives is None:
        projectives = ext_projectives(q, t)
    else:
        projectives = frozenset(projectives)
        _check_roots(q, projectives)
    result = frozenset(
        x for x in projectives if x not in _closure(q, projectives - {x})
    )
    if _closure(q, result) != t:
        raise RuntimeError("minimal generator does not generate the torsion class")
    return result


def a_of(q: Quiver, t: IndecSet, projectives: IndecSet | None = None) -> IndecSet:
    """The wide subcategory of T: members receiving no morphism from a
    non-split Ext-projective (P, `ext_projectives(q, t)` unless given)."""
    t = frozenset(t)
    if projectives is None:
        projectives = ext_projectives(q, t)  # checks that t is a torsion class
    nonsplit = projectives - split_projectives(q, t, projectives)
    reached, bits = _union(_hom_masks(q), nonsplit), _bits(q)
    return frozenset(x for x in t if not bits[x] & reached)


def is_support_tilting(q: Quiver, c: IndecSet) -> bool:
    """Pairwise Ext vanishing plus: #summands = #simples in the support."""
    require_finite_type(q)
    c = frozenset(c)
    _check_roots(q, c)
    if _union(_ext_masks(q), c) & _mask(q, c):
        return False
    return len(c) == _support(q, c).bit_count()


def compatible_sets(items: tuple, compatible: dict, size: int | None = None) -> list[tuple]:
    """Every set of pairwise compatible items, as tuples in item order, by
    AND-ing masks: compatible[x] has bit j set when x and items[j] are
    compatible. With `size`, only the sets of that many items."""
    found: list[tuple] = []

    def extend(chosen: tuple, allowed: int, start: int) -> None:
        if size is None or len(chosen) == size:
            found.append(chosen)
        if len(chosen) == size:
            return
        for i in range(start, len(items)):
            if allowed >> i & 1:
                x = items[i]
                extend(chosen + (x,), allowed & compatible[x], i + 1)

    extend((), (1 << len(items)) - 1, 0)
    return found


@lru_cache(maxsize=None)
def enumerate_support_tilting(q: Quiver) -> tuple[IndecSet, ...]:
    """All basic support tilting objects, via Ext-compatible subset search."""
    require_finite_type(q)
    roots = positive_roots(q)
    found = [
        frozenset(s) for s in compatible_sets(roots, _ext_free_masks(q))
        if len(s) == _support(q, s).bit_count()
    ]
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


@lru_cache(maxsize=None)
def enumerate_torsion_classes(q: Quiver) -> tuple[IndecSet, ...]:
    """All finitely generated torsion classes, as Gen of support tiltings."""
    classes = [_closure(q, c) for c in enumerate_support_tilting(q)]
    ordered = sorted(set(classes), key=lambda s: (len(s), sorted(s)))
    if len(ordered) != len(classes):
        raise RuntimeError("support tilting objects generated a repeated torsion class")
    return tuple(ordered)


def wide_simples(q: Quiver, a: IndecSet) -> tuple[Root, ...]:
    """Simple objects of a wide subcategory in exceptional-sequence order.

    The dimension vectors of a wide subcategory A are the positive roots of
    a root subsystem, and its simples are that subsystem's base: the
    members x with x - y outside A for every member y (a positive root that
    is not simple is a simple plus a positive root).  The order places x
    before y whenever Hom(x, y) or Ext^1(x, y) is nonzero, so no Hom or Ext^1
    runs from a later simple to an earlier one: the least-first order under
    "x hits y".
    """
    require_finite_type(q)
    a = frozenset(a)
    _check_roots(q, a)
    members, splits = _mask(q, a), _split_masks(q)
    simples = [x for x in a if not any(m & members == m for m in splits[x])]
    # x must precede y whenever x "hits" y (Hom(x,y) or Ext(x,y) nonzero)
    hom, ext, bits = _hom_masks(q), _ext_masks(q), _bits(q)
    hit_by = {y: [x for x in simples if x != y and (hom[x] | ext[x]) & bits[y]] for y in simples}
    order = _least_first(simples, hit_by)
    if order is None:
        raise ValueError("no exceptional order exists; input is not wide")
    return order


@lru_cache(maxsize=None)
def _split_masks(q: Quiver) -> dict[Root, tuple[int, ...]]:
    """For each positive root x, the masks of the pairs {y, x - y} of
    positive roots."""
    bits = _bits(q)
    out = {}
    for x in bits:
        diffs = ((y, tuple(map(sub, x, y))) for y in bits)
        out[x] = tuple({bits[y] | bits[z] for y, z in diffs if z in bits})
    return out


def torsion_free_complement(q: Quiver, t: IndecSet) -> IndecSet:
    """F = {X : Hom(Y, X) = 0 for all Y in T}."""
    t = frozenset(t)
    _require_torsion_class(q, t)
    reached = _union(_hom_masks(q), t)
    return frozenset(x for x, bit in _bits(q).items() if not bit & reached)
