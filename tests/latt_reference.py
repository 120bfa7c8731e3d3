"""List-based references for the bitset lattice layer and the Weyl-group
walks that `latt` no longer takes: the definitions, scanned pair by pair.
`weyl_group` closes W under the simple reflections, and `absolute_leq`
tests absolute order on a pair.

`test_latt`, `test_fastpath` and the `hypothesis` relation tests compare
`latt` against these. `from_elements` builds a checked `FinitePoset` from
an order function, for posets the tests write out by hand.
"""

from functools import lru_cache

from quivernc.latt import FinitePoset, LatticeReport, _rank_of_difference, absolute_length
from quivernc.quiver import require_finite_type
from quivernc.weyl import GroupElement, coxeter_element, is_c_sortable, simple_reflection


def leq(p: FinitePoset, i: int, j: int) -> bool:
    """i <= j, read from bit j of the up-set of i."""
    return bool(p.up[i] >> j & 1)


def validate(p: FinitePoset) -> None:
    n = len(p.payloads)
    for i in range(n):
        if not leq(p, i, i):
            raise ValueError("relation is not reflexive; not a poset")
        for j in range(n):
            if i != j and leq(p, i, j) and leq(p, j, i):
                raise ValueError("relation is not antisymmetric; not a poset")
            if leq(p, i, j):
                for k in range(n):
                    if leq(p, j, k) and not leq(p, i, k):
                        raise ValueError("relation is not transitive; not a poset")


def from_elements(elements, leq_fn) -> FinitePoset:
    """The poset of `elements` under `leq_fn`, ids in the given order;
    `validate` raises if the relation is not a partial order."""
    leq_rows = [[leq_fn(a, b) for b in elements] for a in elements]
    up = tuple(sum(1 << j for j, x in enumerate(row) if x) for row in leq_rows)
    down = tuple(sum(1 << i for i, x in enumerate(col) if x) for col in zip(*leq_rows))
    p = FinitePoset(tuple(elements), up, down)
    validate(p)
    return p


def covers(p: FinitePoset) -> tuple[tuple[int, int], ...]:
    n = len(p)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq(p, i, j):
                continue
            if not any(
                k != i and k != j and leq(p, i, k) and leq(p, k, j) for k in range(n)
            ):
                out.append((i, j))
    return tuple(out)


@lru_cache(maxsize=4)
def bound_tables(p: FinitePoset):
    n = len(p)
    joins = [[None] * n for _ in range(n)]
    meets = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ub = [k for k in range(n) if leq(p, i, k) and leq(p, j, k)]
            least = [m for m in ub if all(leq(p, m, k) for k in ub)]
            if len(least) == 1:
                joins[i][j] = joins[j][i] = least[0]
            lb = [k for k in range(n) if leq(p, k, i) and leq(p, k, j)]
            greatest = [m for m in lb if all(leq(p, k, m) for k in lb)]
            if len(greatest) == 1:
                meets[i][j] = meets[j][i] = greatest[0]
    return joins, meets


def is_left_modular(p: FinitePoset, x: int) -> bool:
    """(y v x) ^ z == y v (x ^ z) for every y < z, in a lattice."""
    joins, meets = bound_tables(p)
    n = len(p)
    return all(
        meets[joins[y][x]][z] == joins[y][meets[x][z]]
        for y in range(n)
        for z in range(n)
        if y != z and leq(p, y, z)
    )


def as_tables(p: FinitePoset, join, meet):
    """The on-demand join(i, j) and meet(i, j) of `latt.bounds` as the two
    n x n tables that `bound_tables` returns."""
    n = len(p)
    return (
        [[join(i, j) for j in range(n)] for i in range(n)],
        [[meet(i, j) for j in range(n)] for i in range(n)],
    )


def lattice_analyze(p: FinitePoset) -> LatticeReport:
    validate(p)
    n = len(p)
    joins, meets = bound_tables(p)
    is_lattice = all(
        joins[i][j] is not None and meets[i][j] is not None
        for i in range(n)
        for j in range(n)
    )

    minima = [i for i in range(n) if all(leq(p, i, j) for j in range(n))]
    maxima = [i for i in range(n) if all(leq(p, j, i) for j in range(n))]

    ji = []
    mi = []
    for x in range(n):
        below = [y for y in range(n) if y != x and leq(p, y, x)]
        if x not in minima and not any(joins[y][z] == x for y in below for z in below):
            ji.append(x)
        above = [y for y in range(n) if y != x and leq(p, x, y)]
        if x not in maxima and not any(meets[y][z] == x for y in above for z in above):
            mi.append(x)

    succ = {i: [] for i in range(n)}
    for a, b in covers(p):
        succ[a].append(b)
    depth = [0] * n
    for i in sorted(range(n), key=lambda i: sum(leq(p, j, i) for j in range(n))):
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
    longest = max(depth) if n else 0

    is_extremal = is_lattice and len(ji) == len(mi) == longest

    chain = None
    if is_lattice and n:
        lmset = {x for x in range(n) if is_left_modular(p, x)}
        bottom, top = minima[0], maxima[0]

        def dfs(node, acc):
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


@lru_cache(maxsize=None)
def weyl_group(q) -> tuple[GroupElement, ...]:
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


def absolute_leq(q, u: GroupElement, v: GroupElement) -> bool:
    """u <= v in absolute order: l_T(u) + l_T(u^{-1} v) = l_T(v)."""
    return absolute_length(q, u) + _rank_of_difference(v, u) == absolute_length(q, v)


def noncrossing_partitions_by_weyl_filter(q) -> FinitePoset:
    """[e, cox(Q)] as the elements of W below cox, ordered by (l_T, matrix),
    with absolute order tested on every pair."""
    cox = coxeter_element(q)
    elems = [w for w in weyl_group(q) if absolute_leq(q, w, cox)]
    elems.sort(key=lambda w: (absolute_length(q, w), w.mat))
    return from_elements(elems, lambda u, v: absolute_leq(q, u, v))


def c_sortables_by_weyl_filter(q, c_word) -> set:
    return {w for w in weyl_group(q) if is_c_sortable(q, w, c_word)}
