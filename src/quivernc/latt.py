"""Finite poset and lattice analytics, and the oracles on the lattice side:
absolute order by integer (Bareiss) rank, the noncrossing partition poset
[e, cox(Q)] built from its cover relations, the c-sortable elements
generated as their c-sorting words by Reading's induction and multiplied
out one row update per letter, meet/join of torsion classes, principal
(join-irreducible) classes and the left-modular splitting chain.

A poset's relation is its bitsets: each element's up-set and down-set is
an int, and a `FinitePoset` holds these beside its payloads. `_minimal`
gives the minimal elements of a set of ids, in one step per element where
ids extend the order, as every builder here numbers them. The covers of i
are the minimal elements of its strict up-set. Every lattice fact is read
from the covers: two upper covers of an element must have a join, one
minimal element of their common up-set (Bjorner-Edelman-Ziegler);
irreducibility pairs lower or upper covers; left modularity compares ANDs
of down-sets and of up-sets on each cover, grouped by the lower end of
the cover (McNamara-Thomas). [e, cox] is
built downward from cox: the lower covers of v are the v s_r, a rank-one
update of v, for the roots r in Mov(v); down-sets are unions over lower
covers, and up-sets are pushed down them. `inclusion_poset` orders the
Cambrian and wide families of root sets: ANDs, and complements of ORs, of
the sets that hold each root. No suite walks the Weyl group; `weyl_group`
stays as the reference the tests compare these against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import combinations
from operator import and_, mul, or_
from typing import Callable, Iterator, Sequence

from . import fields
from .ncmap import wide_of_nc
from .quiver import Quiver, Root, cartan_matrix, positive_roots, require_finite_type
from .replab import DEFAULT_CAP, extension_root_closure, gen
from .tors import IndecSet, enumerate_torsion_classes
from .weyl import (
    GroupElement,
    _simple_pairing,
    _two_rho,
    _validate_word,
    ar_linear_order,
    coxeter_element,
    simple_reflection,
    word_to_element,
)


def _bits_of(mask: int) -> list[int]:
    """The positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class FinitePoset:
    """Elements are ids 0..n-1 carrying payloads. The relation is held as
    bitsets: bit j of up[i] and bit i of down[j] are set exactly when
    i <= j."""

    payloads: tuple
    up: tuple[int, ...]
    down: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.payloads)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """(i, j) for the minimal elements j of the strict up-set of i."""
        return tuple(
            (i, j)
            for i, above in enumerate(self.up)
            for j in sorted(_minimal(self, above & ~(1 << i)))
        )


def _minimal(p: FinitePoset, s: int) -> list[int]:
    """The minimal elements of the set of ids s: from the lowest id in s,
    step down while s holds something below it, record that element and
    clear its up-set from s."""
    down, up = p.down, p.up
    out = []
    while s:
        x = (s & -s).bit_length() - 1
        while below := s & down[x] & ~(1 << x):
            x = (below & -below).bit_length() - 1
        out.append(x)
        s &= ~up[x]
    return out


@dataclass(frozen=True)
class LatticeReport:
    is_lattice: bool
    join_irreducibles: tuple[int, ...]
    meet_irreducibles: tuple[int, ...]
    longest_chain: int
    is_extremal: bool
    is_trim: bool
    left_modular_chain: tuple[int, ...] | None


def bounds(p: FinitePoset) -> tuple[Callable, Callable]:
    """join(i, j), the m with up[m] == up[i] & up[j], and meet(i, j), the m
    with down[m] == down[i] & down[j]; None where there is no such m."""
    up, down = p.up, p.down
    by_up = {u: m for m, u in enumerate(up)}
    by_down = {d: m for m, d in enumerate(down)}
    return (lambda i, j: by_up.get(up[i] & up[j])), (lambda i, j: by_down.get(down[i] & down[j]))


def _is_left_modular(x: int, p: FinitePoset, succ: list[list[int]]) -> bool:
    """No cover y < z of a lattice has x ^ y = x ^ z and x v y = x v z, as
    ANDs of down-sets and of up-sets. The covers come grouped by their lower
    end y, succ[y] its upper covers, so x ^ y is formed once per y; the
    joins are compared only where the meets agree."""
    up, down = p.up, p.down
    ux, dx = up[x], down[x]
    for y, above in enumerate(succ):
        meet = dx & down[y]
        for z in above:
            if meet == dx & down[z] and ux & up[y] == ux & up[z]:
                return False
    return True


def lattice_analyze(p: FinitePoset) -> LatticeReport:
    """Lattice analytics from the cover relations: irreducibles, longest
    chain, extremality, left-modular maximal chain, trimness.

    A bounded poset is a lattice when every two upper covers of a common
    element have a join (Bjorner-Edelman-Ziegler, Lemma 2.1): their common
    up-set has one minimal element. x is the join of two elements below it
    exactly when it is the join of two of its lower covers, and dually for
    meets. x is left modular when no y < z has x ^ y = x ^ z and
    x v y = x v z (McNamara-Thomas); both sides are monotone along a chain
    from y to z, so cover pairs y < z suffice."""
    n = len(p)
    up, down = p.up, p.down
    covers = p.covers()
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in covers:
        succ[a].append(b)
        pred[b].append(a)

    every = (1 << n) - 1
    minima = [i for i in range(n) if up[i] == every]
    maxima = [i for i in range(n) if down[i] == every]
    is_lattice = n == 0 or (bool(minima and maxima) and all(
        len(_minimal(p, up[a] & up[b])) == 1 for above in succ for a, b in combinations(above, 2)
    ))
    ji = [x for x in range(n) if x not in minima
          and not any(up[a] & up[b] == up[x] for a, b in combinations(pred[x], 2))]
    mi = [x for x in range(n) if x not in maxima
          and not any(down[a] & down[b] == down[x] for a, b in combinations(succ[x], 2))]

    depth = [0] * n
    order = sorted(range(n), key=lambda i: down[i].bit_count())
    for i in order:
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
    longest = max(depth) if n else 0

    is_extremal = is_lattice and len(ji) == len(mi) == longest

    chain: tuple[int, ...] | None = None
    if is_lattice and n:
        top = maxima[0]

        left_modular = cache(lambda x: _is_left_modular(x, p, succ))

        @cache
        def chain_from(x: int) -> tuple[int, ...] | None:
            """The first left-modular chain from x up to the top, in the
            order of the covers."""
            if x == top:
                return (x,)
            for y in succ[x]:
                if left_modular(y) and (rest := chain_from(y)) is not None:
                    return (x,) + rest
            return None

        chain = chain_from(minima[0])  # the bottom is left modular in every lattice

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
        bigger = set(gen(q, current))
        for a in sorted(current):
            for b in sorted(current):
                bigger |= extension_root_closure(q, a, b, cap)
        if frozenset(bigger) == current:
            return current
        current = frozenset(bigger)


def principal_torsion_classes(q: Quiver) -> tuple[IndecSet, ...]:
    """Gen of a single indecomposable, one class per positive root, traced
    by the GF(2) oracle `replab.gen`."""
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


def inclusion_poset(sets: Sequence[frozenset]) -> FinitePoset:
    """Distinct sets by inclusion: S_j contains S_i exactly when it holds
    every element of S_i, and lies in S_i when it holds none outside S_i."""
    holding: dict = {}
    for i, s in enumerate(sets):
        for r in s:
            holding[r] = holding.get(r, 0) | 1 << i
    every = (1 << len(sets)) - 1
    up = tuple(reduce(and_, map(holding.get, s), every) for s in sets)
    down = tuple(
        every & ~reduce(or_, (h for r, h in holding.items() if r not in s), 0) for s in sets
    )
    return FinitePoset(tuple(sets), up, down)


@lru_cache(maxsize=None)
def cambrian_poset(q: Quiver) -> FinitePoset:
    """Torsion classes ordered by inclusion."""
    return inclusion_poset(enumerate_torsion_classes(q))


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


def _times_reflection(v: GroupElement, r: Root, br: list[int]) -> GroupElement:
    """v s_r = v - (v r)(B r)^T, a rank-one update; br is B r."""
    return GroupElement(tuple(
        tuple(x - a * y for x, y in zip(row, br)) for row, a in zip(v.mat, v.apply(r))
    ))


@lru_cache(maxsize=None)
def noncrossing_partitions(q: Quiver) -> FinitePoset:
    """The interval [e, cox(Q)] in absolute order, as a poset whose payloads
    are the group elements, ordered by absolute length, then by matrix.

    Built downward from cox along its cover relations. A reflection t lies
    below v exactly when its root lies in Mov(v) = im(v - 1) (Brady-Watt),
    and then v t is a lower cover of v: l_T(v t) = l_T(t v) = l_T(v) - 1.
    `ncmap.wide_of_nc` finds those roots from one echelon form of v - 1.
    Every element of the interval is reached, and only those. The down-set
    of v is v with the down-sets of its lower covers."""
    require_finite_type(q)
    b = cartan_matrix(q)
    pairings = {r: [sum(map(mul, row, r)) for row in b] for r in positive_roots(q)}  # B r
    cox = coxeter_element(q)
    length = {cox: absolute_length(q, cox)}
    lower: dict[GroupElement, list[GroupElement]] = {}
    frontier = [cox]
    while frontier:
        below = []
        for v in frontier:
            lower[v] = [_times_reflection(v, r, pairings[r]) for r in wide_of_nc(q, v)]
            for u in lower[v]:
                if u not in length:
                    length[u] = length[v] - 1
                    below.append(u)
        frontier = below
    elems = sorted(length, key=lambda w: (length[w], w.mat))
    index = {w: i for i, w in enumerate(elems)}
    down = [1 << i for i in range(len(elems))]
    up = down[:]
    for i, w in enumerate(elems):  # lower covers come first: they are shorter
        for u in lower[w]:
            down[i] |= down[index[u]]
    for i in reversed(range(len(elems))):  # upper covers come first: they are longer
        for u in lower[elems[i]]:
            up[index[u]] |= up[i]
    return FinitePoset(tuple(elems), tuple(up), tuple(down))


def c_sortable_elements(q: Quiver, c_word: tuple[int, ...]) -> Iterator[GroupElement]:
    """Every c-sortable element of W, shortest first, multiplied out from
    its c-sorting word (`_c_sortable_words`)."""
    return (word_to_element(q, word) for word in _c_sortable_words(q, c_word))


def _c_sortable_words(q: Quiver, c_word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The c-sorting words of the c-sortable elements of W, shortest first,
    by Reading's induction in layers by length: with s = c[0],

        Sort_k(c) = {s u : u in Sort_{k-1}(c[1:] + s), s not in D_L(u)}
                    | Sort_k(W<S - s>, c[1:]).

    The first part has s as a left descent, the second lies in the
    parabolic subgroup on the other letters, so no element comes twice.
    The c-sorting word of s u is s followed by that of u, and an element of
    the second part keeps its word, which never uses s. Each word is
    carried as the pair (s, word of u), so that u's word is shared, with
    y = w(2 rho): s is a left descent of u exactly when (e_s, y) < 0, and
    s u has y - (e_s, y) e_s."""
    require_finite_type(q)
    _validate_word(q, c_word)
    memo: dict[tuple[tuple[int, ...], int], list] = {}  # freed with the generator
    c_word = tuple(c_word)
    return (_spelled(pair) for k in range(len(positive_roots(q)) + 1)
            for pair, _ in _sortable_layer(q, memo, c_word, k))


def _sortable_layer(q: Quiver, memo: dict, word: tuple[int, ...], k: int) -> list:
    """Sort_k(word) as (pair, y) entries, memoised on (word, k)."""
    if (word, k) not in memo:
        if k == 0:
            out = [((), _two_rho(q))]
        elif not word:
            out = []
        else:
            s = word[0]
            out = [((s, u), y[:s - 1] + (y[s - 1] - zs,) + y[s:])
                   for u, y in _sortable_layer(q, memo, word[1:] + (s,), k - 1)
                   if (zs := _simple_pairing(q, s, y)) >= 0]
            out += _sortable_layer(q, memo, word[1:], k)
        memo[word, k] = out
    return memo[word, k]


def _spelled(pair: tuple) -> tuple[int, ...]:
    """The word held as nested pairs (s, rest), () the empty word."""
    letters = []
    while pair:
        s, pair = pair
        letters.append(s)
    return tuple(letters)
