"""List-based references for the bitset lattice layer and the Weyl-group
walks that `latt` no longer takes: the definitions, scanned pair by pair.

`test_latt`, `test_fastpath` and the `hypothesis` relation tests compare
`latt` against these.
"""

from functools import lru_cache

from quivernc.latt import (
    FinitePoset,
    LatticeReport,
    absolute_leq,
    absolute_length,
    weyl_group,
)
from quivernc.weyl import coxeter_element, is_c_sortable


def validate(p: FinitePoset) -> None:
    n = len(p.payloads)
    for i in range(n):
        if not p.leq[i][i]:
            raise ValueError("relation is not reflexive; not a poset")
        for j in range(n):
            if i != j and p.leq[i][j] and p.leq[j][i]:
                raise ValueError("relation is not antisymmetric; not a poset")
            if p.leq[i][j]:
                for k in range(n):
                    if p.leq[j][k] and not p.leq[i][k]:
                        raise ValueError("relation is not transitive; not a poset")


def covers(p: FinitePoset) -> tuple[tuple[int, int], ...]:
    n = len(p)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not p.leq[i][j]:
                continue
            if not any(
                k != i and k != j and p.leq[i][k] and p.leq[k][j] for k in range(n)
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
    validate(p)
    n = len(p)
    joins, meets = bound_tables(p)
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
        if x not in minima and not any(joins[y][z] == x for y in below for z in below):
            ji.append(x)
        above = [y for y in range(n) if y != x and p.leq[x][y]]
        if x not in maxima and not any(meets[y][z] == x for y in above for z in above):
            mi.append(x)

    succ = {i: [] for i in range(n)}
    for a, b in covers(p):
        succ[a].append(b)
    depth = [0] * n
    for i in sorted(range(n), key=lambda i: sum(p.leq[j][i] for j in range(n))):
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
    longest = max(depth) if n else 0

    is_extremal = is_lattice and len(ji) == len(mi) == longest

    chain = None
    if is_lattice and n:
        lmset = {
            x
            for x in range(n)
            if all(
                meets[joins[y][x]][z] == joins[y][meets[x][z]]
                for y in range(n)
                for z in range(n)
                if y != z and p.leq[y][z]
            )
        }
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


def noncrossing_partitions_by_weyl_filter(q) -> FinitePoset:
    """[e, cox(Q)] as the elements of W below cox, ordered by (l_T, matrix),
    with absolute order tested on every pair."""
    cox = coxeter_element(q)
    elems = [w for w in weyl_group(q) if absolute_leq(q, w, cox)]
    elems.sort(key=lambda w: (absolute_length(q, w), w.mat))
    leq = tuple(tuple(absolute_leq(q, u, v) for v in elems) for u in elems)
    return FinitePoset(tuple(elems), leq)


def c_sortables_by_weyl_filter(q, c_word) -> set:
    return {w for w in weyl_group(q) if is_c_sortable(q, w, c_word)}
