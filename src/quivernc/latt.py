"""Finite poset and lattice analytics, and the oracles on the lattice side:
the walk over the Weyl group, absolute order by integer (Bareiss) rank with
l_T computed once per element, the noncrossing partition poset
[e, cox(Q)], meet/join of torsion classes, principal (join-irreducible)
classes and the left-modular splitting chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import fields
from .fields import GF2
from .quiver import Quiver, positive_roots, require_finite_type
from .replab import DEFAULT_CAP, extension_root_closure, gen
from .tors import IndecSet, enumerate_torsion_classes
from .weyl import GroupElement, ar_linear_order, coxeter_element, simple_reflection


@dataclass(frozen=True)
class FinitePoset:
    """Elements are ids 0..n-1 carrying payloads; leq is the full relation."""

    payloads: tuple
    leq: tuple[tuple[bool, ...], ...]

    @staticmethod
    def from_elements(elements: Sequence, leq_fn: Callable) -> "FinitePoset":
        n = len(elements)
        leq = tuple(
            tuple(bool(leq_fn(elements[i], elements[j])) for j in range(n))
            for i in range(n)
        )
        p = FinitePoset(tuple(elements), leq)
        p.validate()
        return p

    def validate(self) -> None:
        n = len(self.payloads)
        for i in range(n):
            if not self.leq[i][i]:
                raise ValueError("relation is not reflexive; not a poset")
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise ValueError("relation is not antisymmetric; not a poset")
                if self.leq[i][j]:
                    for k in range(n):
                        if self.leq[j][k] and not self.leq[i][k]:
                            raise ValueError("relation is not transitive; not a poset")

    def __len__(self) -> int:
        return len(self.payloads)

    def covers(self) -> tuple[tuple[int, int], ...]:
        n = len(self)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq[i][j]:
                    continue
                if not any(
                    k != i and k != j and self.leq[i][k] and self.leq[k][j]
                    for k in range(n)
                ):
                    out.append((i, j))
        return tuple(out)


@dataclass(frozen=True)
class LatticeReport:
    is_lattice: bool
    join_irreducibles: tuple[int, ...]
    meet_irreducibles: tuple[int, ...]
    longest_chain: int
    is_extremal: bool
    is_trim: bool
    left_modular_chain: tuple[int, ...] | None

    def to_json(self, poset: FinitePoset, describe=str) -> str:
        return json.dumps(
            {
                "is_lattice": self.is_lattice,
                "join_irreducibles": [describe(poset.payloads[i]) for i in self.join_irreducibles],
                "meet_irreducibles": [describe(poset.payloads[i]) for i in self.meet_irreducibles],
                "longest_chain": self.longest_chain,
                "is_extremal": self.is_extremal,
                "is_trim": self.is_trim,
                "left_modular_chain": None
                if self.left_modular_chain is None
                else [describe(poset.payloads[i]) for i in self.left_modular_chain],
            }
        )


def _bound_tables(p: FinitePoset) -> tuple[list[list[int | None]], list[list[int | None]]]:
    n = len(p)
    joins: list[list[int | None]] = [[None] * n for _ in range(n)]
    meets: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ub = [k for k in range(n) if p.leq[i][k] and p.leq[j][k]]
            least = [m for m in ub if all(p.leq[m][k] for k in ub)]
            if len(least) == 1:
                joins[i][j] = joins[j][i] = least[0]
            lb = [k for k in range(n) if p.leq[k][i] and p.leq[k][j]]
            greatest = [m for m in lb if all(p.leq[k][m] for k in lb)]
            if len(greatest) == 1:
                meets[i][j] = meets[j][i] = greatest[0]
    return joins, meets


def lattice_analyze(p: FinitePoset) -> LatticeReport:
    """Exhaustive definition-level lattice analytics: irreducibles, longest
    chain, extremality, left-modular maximal chain, trimness."""
    p.validate()
    n = len(p)
    joins, meets = _bound_tables(p)
    is_lattice = all(
        joins[i][j] is not None and meets[i][j] is not None
        for i in range(n)
        for j in range(n)
    )

    minima = [i for i in range(n) if all(p.leq[i][j] for j in range(n))]
    maxima = [i for i in range(n) if all(p.leq[j][i] for j in range(n))]

    ji = []
    mi = []
    for x in range(n):
        below = [y for y in range(n) if y != x and p.leq[y][x]]
        if x not in minima and not any(
            joins[y][z] == x for y in below for z in below
        ):
            ji.append(x)
        above = [y for y in range(n) if y != x and p.leq[x][y]]
        if x not in maxima and not any(
            meets[y][z] == x for y in above for z in above
        ):
            mi.append(x)

    covers = p.covers()
    succ: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in covers:
        succ[a].append(b)
    depth = [0] * n
    order = sorted(range(n), key=lambda i: sum(p.leq[j][i] for j in range(n)))
    for i in order:
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
    longest = max(depth) if n else 0

    is_extremal = is_lattice and len(ji) == len(mi) == longest

    chain: tuple[int, ...] | None = None
    if is_lattice and n:
        lm = []
        for x in range(n):
            good = True
            for y in range(n):
                for z in range(n):
                    if y == z or not p.leq[y][z]:
                        continue
                    if meets[joins[y][x]][z] != joins[y][meets[x][z]]:
                        good = False
                        break
                if not good:
                    break
            if good:
                lm.append(x)
        lmset = set(lm)
        bottom, top = minima[0], maxima[0]

        def dfs(node: int, acc: list[int]) -> tuple[int, ...] | None:
            if node == top:
                return tuple(acc)
            for j in succ[node]:
                if j in lmset:
                    res = dfs(j, acc + [j])
                    if res is not None:
                        return res
            return None

        if bottom in lmset:
            chain = dfs(bottom, [bottom])

    return LatticeReport(
        is_lattice=is_lattice,
        join_irreducibles=tuple(ji),
        meet_irreducibles=tuple(mi),
        longest_chain=longest,
        is_extremal=is_extremal,
        is_trim=is_extremal and chain is not None,
        left_modular_chain=chain,
    )


def torsion_join(
    q: Quiver, t1: IndecSet, t2: IndecSet, cap: int = DEFAULT_CAP
) -> IndecSet:
    """Smallest torsion class containing both: iterate quotient closure and
    adjunction of extension middle terms, searched over GF(2) up to total
    dimension `cap`, to a fixpoint."""
    current = frozenset(t1) | frozenset(t2)
    while True:
        bigger = set(gen(q, current, GF2))
        for a in sorted(current):
            for b in sorted(current):
                bigger |= extension_root_closure(q, a, b, cap)
        if frozenset(bigger) == current:
            return current
        current = frozenset(bigger)


def principal_torsion_classes(q: Quiver) -> tuple[IndecSet, ...]:
    """Gen of a single indecomposable, one class per positive root."""
    out = [gen(q, frozenset({r})) for r in positive_roots(q)]
    if len(set(out)) != len(out):
        raise RuntimeError("principal torsion classes are not distinct")
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def splitting_chain(q: Quiver) -> tuple[IndecSet, ...]:
    """The chain of suffix classes of the AR linear order, from everything
    down to the zero class."""
    order = ar_linear_order(q)
    return tuple(
        frozenset(order[i:]) for i in range(len(order) + 1)
    )


@lru_cache(maxsize=None)
def cambrian_poset(q: Quiver) -> FinitePoset:
    """Torsion classes ordered by inclusion."""
    classes = enumerate_torsion_classes(q)
    return FinitePoset.from_elements(classes, lambda a, b: a <= b)


@lru_cache(maxsize=None)
def weyl_group(q: Quiver) -> tuple[GroupElement, ...]:
    """Full finite Weyl group by breadth-first closure under the simple
    reflections (right multiplication)."""
    require_finite_type(q)
    gens = [simple_reflection(q, v) for v in q.vertices]
    seen = {GroupElement.identity(q.n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                u = w * s
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: w.mat))


def _rank_of_difference(u: GroupElement, v: GroupElement) -> int:
    """rank(u - v) = l_T(v^{-1} u): v^{-1} u fixes x exactly when u.x = v.x."""
    rows = [[x - y for x, y in zip(ru, rv)] for ru, rv in zip(u.mat, v.mat)]
    return fields.int_rank(rows)


@lru_cache(maxsize=None)
def absolute_length(q: Quiver, w: GroupElement) -> int:
    """l_T(w) = n - dim fix(w) = rank(w - 1) (Carter's lemma) in finite type."""
    require_finite_type(q)
    return _rank_of_difference(w, GroupElement.identity(q.n))


def absolute_leq(q: Quiver, u: GroupElement, v: GroupElement) -> bool:
    """u <= v in absolute order: l_T(u) + l_T(u^{-1} v) = l_T(v)."""
    return absolute_length(q, u) + _rank_of_difference(v, u) == absolute_length(q, v)


@lru_cache(maxsize=None)
def noncrossing_partitions(q: Quiver) -> FinitePoset:
    """The interval [e, cox(Q)] in absolute order, as a poset whose payloads
    are the group elements, ordered by absolute length, then by matrix."""
    require_finite_type(q)
    cox = coxeter_element(q)
    elems = [w for w in weyl_group(q) if absolute_leq(q, w, cox)]
    elems.sort(key=lambda w: (absolute_length(q, w), w.mat))
    leq = tuple(
        tuple(absolute_leq(q, u, v) for v in elems) for u in elems
    )
    return FinitePoset(tuple(elems), leq)
