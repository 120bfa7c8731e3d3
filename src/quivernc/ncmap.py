"""The bridge maps: torsion classes to noncrossing partitions, sortable
elements, Reading's nc/cl recursions, exceptional sequences with the braid
action, the cover-reflection criterion and the fixed-space description.

Reading's recursions fold over the descents of one walk,
`weyl._reading_descents`, which checks sortability by Reading's nested
passes and returns the left descents it strips, each with z_v = (e_v, y)
for y = w(2 rho) at that step; the fold runs from the last descent to the
first, moving roots by the simple step s_v of `quiver`. The
cover-reflection criterion reads the same pairing: z_v < 0 marks s_v as a
left descent. In a simply-laced root system (b, 2 rho) = 2 ht(b) for
every root b, so z_v = (w^-1 e_v, 2 rho) is -2 exactly when w^-1 e_v is a
negative simple root -e_u; then s_v w = w s_u and s_v is the cover
reflection of w at the right descent u. The braid action reflects root
vectors, s_y(x) = x - (y, x) y with (y, x) read from the pairings B x, and
reads the exceptional condition from the per-quiver Hom and Ext bitsets.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple

from . import fields
from .cluster import CCIndec, ClusterTilting, gen_of
from .errors import OracleCapError
from .quiver import (
    Quiver,
    Root,
    Vertex,
    _pairings,
    _simple_pairing,
    _simple_step,
    cartan_matrix,
    coxeter_element_word,
    positive_roots,
    require_finite_type,
    simple_roots,
)
from .tors import (
    IndecSet,
    _bits,
    _ext_masks,
    _hom_masks,
    a_of,
    split_projectives,
    torsion_closure,
    wide_simples,
)
from .weyl import (
    GroupElement,
    _reading_descents,
    _two_rho,
    fixed_space,
    inversion_set,
    reflection_product,
    sorting_word_of_inversion_set,
    word_to_element,
)


def cox_of_wide(q: Quiver, a: IndecSet) -> GroupElement:
    """Product of the reflections of the simples of A in exceptional order."""
    return reflection_product(q, wide_simples(q, a))


def wide_of_nc(q: Quiver, w: GroupElement) -> IndecSet:
    """Inverse of `cox_of_wide` on NC: the positive roots in Mov(w) = im(w - 1),
    which for w below cox(Q) are those of its wide subcategory (Brady-Watt)."""
    moved = [[w.mat[i][j] - (i == j) for i in range(q.n)] for j in range(q.n)]
    echelon, pivots = fields.int_echelon(moved)  # rows span the columns of w - 1
    return frozenset(
        x for x in positive_roots(q) if fields.int_in_span(echelon, pivots, x)
    )


def nc_of_torsion(q: Quiver, t: IndecSet) -> GroupElement:
    """cox(a(T)): the noncrossing partition attached to a torsion class.

    Over all torsion classes this is a bijection onto NC_Q; it carries
    inclusion of the associated wide subcategories to absolute order
    (inclusion of the torsion classes themselves is the Cambrian order,
    which NC_Q does not refine).
    """
    return cox_of_wide(q, a_of(q, t))


def sorting_word_of_torsion(q: Quiver, t: IndecSet) -> tuple[Vertex, ...]:
    """The c-sorting word, c the Coxeter word of Q, of the element whose
    inversion set is exactly Ind(T); a ValueError when there is none.

    Peels simple roots in c-order passes: e_v lies in N(w) exactly when s_v
    is a left descent of w, and N(s_v w) = s_v(N(w) - {e_v}). The peel runs
    on the one vector w(2 rho) = 2 rho - 2 sum(Ind T), see
    `weyl.sorting_word_of_inversion_set`.
    """
    return sorting_word_of_inversion_set(q, frozenset(t), coxeter_element_word(q))


def sortable_of_torsion(q: Quiver, t: IndecSet) -> GroupElement:
    """The element whose inversion set is exactly Ind(T)."""
    return word_to_element(q, sorting_word_of_torsion(q, t))


def torsion_of_sortable(q: Quiver, w: GroupElement) -> IndecSet:
    """The torsion class whose indecomposables are the inversions of w."""
    s = frozenset(inversion_set(q, w))
    if torsion_closure(q, s) != s:
        raise ValueError("inversion set is not a torsion class; w is not sortable")
    return s


def reading_nc(q: Quiver, w: GroupElement, c_word: tuple[Vertex, ...]) -> GroupElement:
    """Reading's recursion from sortable elements to noncrossing partitions.

    With s the first letter of c: if sw is longer, recurse into the
    parabolic word sc; otherwise recurse on sw with word scs and multiply
    by s on the right (cover-reflection case) or conjugate by s.
    """
    return _reading_images(q, w, c_word)[0]


def reading_cl(q: Quiver, w: GroupElement, c_word: tuple[Vertex, ...]) -> IndecSet:
    """Reading's recursion from sortable elements to support tilting objects.

    At root level the reflection functor step sends each root through s_v
    and adjoins e_v exactly when v lies outside the support so far.
    """
    return _reading_images(q, w, c_word)[1]


def _reading_images(
    q: Quiver, w: GroupElement, c_word: tuple[Vertex, ...]
) -> tuple[GroupElement, IndecSet]:
    """`reading_nc` and `reading_cl` of w, both folded over one walk of
    Reading's induction, from the last descent s_v stripped to the first.
    The nc image is held as roots r_1..r_k with s_{r_1}...s_{r_k} the image:
    multiplying by s_v on the right appends e_v, and conjugating by s_v
    sends each s_r to s_{s_v(r)}."""
    descents = _reading_descents(q, w.apply(_two_rho(q)), c_word)
    if descents is None:
        raise ValueError("element is not sortable for the given word")
    nc: tuple[Root, ...] = ()
    cl: set[Root] = set()
    for v, zv in reversed(descents):
        if zv == -2:  # s_v is a cover reflection
            nc += (simple_roots(q)[v - 1],)
        else:
            nc = tuple(_simple_step(q, v, r) for r in nc)
        images = {_simple_step(q, v, r) for r in cl}
        if negative := [r for r in images if r[v - 1] < 0]:  # s_v changes entry v alone
            raise RuntimeError(f"reflection step produced the negative root {negative[0]}")
        if not any(r[v - 1] for r in cl):
            images.add(simple_roots(q)[v - 1])
        cl = images
    return reflection_product(q, nc), frozenset(cl)


def is_exceptional_sequence(q: Quiver, seq: tuple[Root, ...]) -> bool:
    """No backward Hom or Ext: for i < j, Hom(X_j, X_i) = Ext(X_j, X_i) = 0,
    read from the per-quiver Hom and Ext bitsets."""
    require_finite_type(q)
    hom, ext, bits = _hom_masks(q), _ext_masks(q), _bits(q)
    if any(r not in bits for r in seq) or len(set(seq)) != len(seq):
        return False
    return not any((hom[y] | ext[y]) & bits[x] for i, x in enumerate(seq) for y in seq[i + 1:])


def _positive(root: tuple[int, ...]) -> Root:
    if all(x >= 0 for x in root):
        return tuple(root)
    if all(x <= 0 for x in root):
        return tuple(-x for x in root)
    raise ValueError(f"{root} is neither positive nor negative")


@lru_cache(maxsize=None)
def _pair_product(q: Quiver, x: Root, y: Root) -> GroupElement:
    """s_x s_y, built once per quiver and pair of roots."""
    return reflection_product(q, (x, y))


def _reflect(q: Quiver, r: Root, x: Root) -> tuple[int, ...]:
    """s_r(x) = x - (r, x) r."""
    rx = sum(map(mul, r, _pairings(q, x)))
    return tuple(a - rx * c for a, c in zip(x, r))


def braid_act(
    q: Quiver, i: int, seq: tuple[Root, ...], direction: str = "+"
) -> tuple[Root, ...]:
    """Braid generator sigma_i (1-based) on an exceptional sequence.

    Forward: (..., X_i, X_{i+1}, ...) -> (..., X_{i+1}, R X_i, ...) with
    dim R X_i the positive representative of s_{X_{i+1}}(dim X_i); the
    inverse uses the left mutation L. The reflection product is checked on
    the swapped pair alone: P A S = P A' S exactly when A = A'.
    """
    if not 1 <= i <= len(seq) - 1:
        raise ValueError(f"position {i} out of range for length {len(seq)}")
    x, y = seq[i - 1], seq[i]
    if direction == "+":
        new_pair = (y, _positive(_reflect(q, y, x)))
    elif direction == "-":
        new_pair = (_positive(_reflect(q, x, y)), x)
    else:
        raise ValueError("direction must be '+' or '-'")
    out = seq[: i - 1] + new_pair + seq[i + 1 :]
    if not is_exceptional_sequence(q, out):
        raise RuntimeError("braid action left the set of exceptional sequences")
    if _pair_product(q, *new_pair) != _pair_product(q, x, y):
        raise RuntimeError("braid action changed the reflection product")
    return out


@lru_cache(maxsize=None)
def complete_exceptional_sequences(q: Quiver) -> tuple[tuple[Root, ...], ...]:
    """All complete exceptional sequences, by prefix-pruned search."""
    require_finite_type(q)
    if q.n > 4:
        raise OracleCapError("exceptional-sequence enumeration capped at rank 4")
    roots, hom, ext, bits = positive_roots(q), _hom_masks(q), _ext_masks(q), _bits(q)
    hits = {r: hom[r] | ext[r] for r in roots}  # bit p: Hom(r, p) or Ext(r, p) nonzero
    out: list[tuple[Root, ...]] = []

    def extend(prefix: tuple[Root, ...], mask: int) -> None:
        """mask holds the bits of the prefix; hits[r] holds r's own bit."""
        if len(prefix) == q.n:
            out.append(prefix)
            return
        for r in roots:
            if not hits[r] & mask:
                extend(prefix + (r,), mask | bits[r])

    extend((), 0)
    return tuple(out)  # depth first over sorted roots: already in lexicographic order


def braid_orbit(q: Quiver, seq: tuple[Root, ...]) -> frozenset[tuple[Root, ...]]:
    """Closure of one sequence under all braid generators and inverses."""
    seen = {seq}
    frontier = [seq]
    while frontier:
        nxt = []
        for s in frontier:
            for i in range(1, len(s)):
                for d in ("+", "-"):
                    t = braid_act(q, i, s, d)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return frozenset(seen)


def upper_indecs(q: Quiver, t: ClusterTilting) -> frozenset[CCIndec]:
    """Summands whose mutation strictly shrinks Gen: the unshifted summands
    whose roots are split projectives of Gen T. The two agree by the
    mutation-order law: mutating T at x shrinks Gen exactly when x is such a
    summand, and grows it otherwise. `verify --suite=bijections` checks that
    law at every summand of every cluster-tilting object."""
    split = split_projectives(q, gen_of(q, t))
    return frozenset(x for x in t if not x.is_shift and x.root in split)


def _perp_intersection(q: Quiver, roots: list[Root]) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis (`fields.int_row_space`) of the vectors
    orthogonal to every given root under the symmetrized form."""
    return fields.int_nullspace([_pairings(q, r) for r in roots], q.n)


class RSReport(NamedTuple):
    cluster_tilting: tuple[CCIndec, ...]
    upper: tuple[CCIndec, ...]
    fixed_space: tuple
    perp_space: tuple
    passed: bool


def rs_check(q: Quiver, t: ClusterTilting) -> RSReport:
    """Fixed space of the noncrossing partition of Gen T versus the
    intersection of the perpendiculars of the upper summand roots."""
    upper = upper_indecs(q, t)
    nc = nc_of_torsion(q, gen_of(q, t))
    fix = fixed_space(q, nc)
    perp = _perp_intersection(q, [x.root for x in upper if not x.is_shift])
    return RSReport(
        cluster_tilting=tuple(sorted(t, key=CCIndec.sort_key)),
        upper=tuple(sorted(upper, key=CCIndec.sort_key)),
        fixed_space=fix,
        perp_space=perp,
        passed=fix == perp,
    )


def initial_letters(q: Quiver, c_word: tuple[Vertex, ...]) -> tuple[Vertex, ...]:
    """Letters that can start a reduced word for the Coxeter element: those
    commuting with everything before them in the word."""
    b = cartan_matrix(q)
    out = []
    for i, v in enumerate(c_word):
        if all(b[u - 1][v - 1] == 0 for u in c_word[:i]):
            out.append(v)
    return tuple(out)


class CoverCriterionReport(NamedTuple):
    torsion_class: tuple[Root, ...]
    applicable: tuple[Vertex, ...]
    not_applicable: tuple[Vertex, ...]
    failures: tuple[Vertex, ...]
    passed: bool


def cover_criterion_check(
    q: Quiver,
    t: IndecSet,
    c_word: tuple[Vertex, ...],
    sortable: GroupElement | None = None,
    wide: IndecSet | None = None,
) -> CoverCriterionReport:
    """For each initial s with l_S(s w_T) < l_S(w_T): s is a cover
    reflection of w_T exactly when the simple at s lies in a(T). w_T and
    a(T) are `sortable` and `wide`, `sortable_of_torsion(q, t)` and
    `a_of(q, t)` unless given."""
    if sortable is None:
        sortable = sortable_of_torsion(q, t)
    if wide is None:
        wide = a_of(q, t)
    y = sortable.apply(_two_rho(q))
    applicable, skipped, failures = [], [], []
    for v in initial_letters(q, c_word):
        zv = _simple_pairing(q, v, y)
        if zv >= 0:
            skipped.append(v)
            continue
        applicable.append(v)
        if (zv == -2) != (simple_roots(q)[v - 1] in wide):  # -2: a cover reflection
            failures.append(v)
    return CoverCriterionReport(
        torsion_class=tuple(sorted(t)),
        applicable=tuple(applicable),
        not_applicable=tuple(skipped),
        failures=tuple(failures),
        passed=not failures,
    )
