"""Coxeter group elements as integer matrices on the root lattice, and the
Auslander-Reiten quiver knitted from integer vectors.

Reflections, inversion sets, length, c-sortability, cover reflections,
reduced and c-sorting words, and the AR translate. These rest on the sign
of (a, w(2 rho)) for inversions and descents.

Words come from one vector. The pairings z = B w(2 rho) (B the Cartan
matrix) mark the left descents of w, the v with z_v < 0, and s_v w has the
pairings z - z_v B e_v, so stripping a letter costs O(n), not a matrix
product. An inversion set N fixes the vector, w(2 rho) = 2 rho - 2 sum(N),
so the c-sorting word of the element with inversion set N needs no matrix
at all. `_strip_descents` is the one descent walk, and it records z_v
with each letter. Reading defines w as c-sortable when the passes of its
c-sorting word over c strip nested sets of letters, K_1 >= K_2 >= ...;
`_reading_descents` checks that on the walk, for `is_c_sortable` and
Reading's maps in `ncmap`. A word on part J of the vertices first needs w
in the parabolic subgroup on J: 2 rho - w(2 rho), twice the sum of its
inversions, supported on J. B y and the step s_v(y) = y - (e_v, y) e_v
live in `quiver`. A word is multiplied out one row update per letter:
s_v M differs from M only in row v, which becomes
-row_v - sum_{k != v} b_vk row_k, so a letter costs O(n deg v). A product
of reflections s_r = 1 - r (B r)^T is built by rank-one row updates, with
B r formed once per root. `GroupElement.inverse` and `fixed_space`, which
serve `verify` and the tests, read the canonical integer row space of a
Bareiss echelon form (`fields.int_row_space`): the inverse from
[mat | 1], the fixed space as the kernel of mat - 1. Absolute length
lives in `latt`.

The AR quiver is knitted from the projective roots, whose entries count
paths, with the Coxeter transformation; its construction from explicit Hom
bases, `replab.ar_quiver_by_hom_basis`, is the oracle for it.

Convention (fixed globally): a word (v1,...,vk) denotes s_{v1} o ... o s_{vk},
so its matrix is S_{v1} @ ... @ S_{vk} and the rightmost letter acts first
on column vectors: w(v) = mat . v.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from . import fields
from .errors import FingerprintError
from .quiver import (
    DimVector,
    Quiver,
    Root,
    Vertex,
    _Frozen,
    _least_first,
    _pairings,
    _simple_step,
    cartan_matrix,
    coxeter_element_word,
    is_positive_root,
    positive_roots,
    require_finite_type,
    simple_roots,
)


class GroupElement(_Frozen):
    """Integer matrix acting on dimension vectors by w(v) = mat . v.

    An immutable value, hashed once like `Quiver`: elements key the caches
    and the sets of elements that `verify` builds.
    """

    __slots__ = ("mat", "_hash")

    def __init__(self, mat: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_hash", hash((mat,)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mat == other.mat

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(mat={self.mat!r})"

    def __reduce__(self):
        return type(self), (self.mat,)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int) -> "GroupElement":
        return GroupElement(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.mat)

    def apply(self, v: DimVector) -> DimVector:
        return tuple(sum(map(mul, row, v)) for row in self.mat)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        a, b = self.mat, other.mat
        n = len(a)
        return GroupElement(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def inverse(self) -> "GroupElement":
        """The integer inverse, read off the canonical row space of [mat | 1]:
        its rows are (d e_i | d x_i) with x_i the rows of the inverse, and d = 1
        exactly when x_i is integral."""
        n = self.n
        rows = fields.int_row_space(
            [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.mat)])
        if any(row[i] == 0 for i, row in enumerate(rows)):
            raise ValueError("matrix is not invertible")
        if any(row[i] != 1 for i, row in enumerate(rows)):
            raise ValueError("inverse is not integral")
        return GroupElement(tuple(row[n:] for row in rows))

    def is_identity(self) -> bool:
        return all(self.mat[i][j] == (1 if i == j else 0) for i in range(self.n) for j in range(self.n))


def _check_root(q: Quiver, v: Root) -> None:
    if len(v) != q.n or sum(map(mul, v, _pairings(q, v))) != 2:
        raise ValueError(f"{v} is not a root")


def reflection(q: Quiver, v: Root) -> GroupElement:
    """s_v(w) = w - (v,w) v for a root v."""
    _check_root(q, v)
    return reflection_product(q, (v,))


def reflection_product(q: Quiver, roots) -> GroupElement:
    """s_{r_1} ... s_{r_k} for roots r_i, built right to left by rank-one
    row updates: s_r M = M - r ((B r)^T M)."""
    rows = [[int(i == j) for j in range(q.n)] for i in range(q.n)]
    for r in reversed(roots):
        u = [0] * q.n
        for br, row in zip(_pairings(q, r), rows):
            if br:
                u = [x + br * y for x, y in zip(u, row)]
        for i, x in enumerate(r):
            if x:
                rows[i] = [y - x * z for y, z in zip(rows[i], u)]
    return GroupElement(tuple(map(tuple, rows)))


def _check_letter(q: Quiver, v: Vertex) -> None:
    if type(v) is not int or not 1 <= v <= q.n:
        raise ValueError(f"no simple reflection s{v!r}: vertices are 1..{q.n}")


@lru_cache(maxsize=None, typed=True)
def simple_reflection(q: Quiver, v: Vertex) -> GroupElement:
    _check_letter(q, v)
    return reflection(q, simple_roots(q)[v - 1])


@lru_cache(maxsize=None)
def _neighbours(q: Quiver) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vertex v - 1, the pairs (k, b_vk) with k != v - 1 and b_vk != 0:
    the rest of row v of B, whose diagonal entry is 2 (no loops)."""
    return tuple(
        tuple((k, x) for k, x in enumerate(row) if x and k != v)
        for v, row in enumerate(cartan_matrix(q))
    )


def word_to_element(q: Quiver, word: tuple[Vertex, ...]) -> GroupElement:
    """s_{v_1} ... s_{v_k}, built right to left by one row update per
    letter: row v of s_v M is -row_v - sum_{k != v} b_vk row_k."""
    for v in word:
        _check_letter(q, v)
    neighbours = _neighbours(q)
    rows = list(GroupElement.identity(q.n).mat)
    for v in reversed(word):
        row = [-x for x in rows[v - 1]]
        for k, x in neighbours[v - 1]:
            row = [y - x * z for y, z in zip(row, rows[k])]
        rows[v - 1] = row
    return GroupElement(tuple(map(tuple, rows)))


@lru_cache(maxsize=None)
def coxeter_element(q: Quiver) -> GroupElement:
    return word_to_element(q, coxeter_element_word(q))


@lru_cache(maxsize=None)
def _two_rho(q: Quiver) -> DimVector:
    """2 rho, the sum of the positive roots."""
    return tuple(map(sum, zip(*positive_roots(q))))


def _rho_pairings(q: Quiver, w: GroupElement) -> list[int]:
    """B . w(2 rho), B the Cartan matrix. Its dot product with a root a is
    (a, w(2 rho)) = (w^{-1} a, 2 rho), which is negative exactly when
    w^{-1} a is a negative root."""
    return _pairings(q, w.apply(_two_rho(q)))


def _strip_descents(
    q: Quiver, z: list[int], c_word: tuple[Vertex, ...] | None = None
) -> list[tuple[Vertex, int]]:
    """Strip left descents off the element with pairings z = B w(2 rho), in
    place, until z has no negative entry: each time the smallest descent,
    or with `c_word` every descent met in passes over the word. s_v w has
    the pairings z - z_v B e_v: entry v turns to -z_v, and only the
    neighbours of v change besides. Returns the pairs (v, z_v) stripped,
    z_v read just before the strip; the letters spell w when z belonged to
    an element of W."""
    neighbours = _neighbours(q)
    stripped = []

    def strip(v: Vertex) -> None:
        zv = z[v - 1]
        z[v - 1] = -zv
        for k, x in neighbours[v - 1]:
            z[k] -= zv * x
        stripped.append((v, zv))

    if c_word is None:
        while (v := next((i for i, x in enumerate(z, 1) if x < 0), None)) is not None:
            strip(v)
    else:
        while any(x < 0 for x in z):
            for v in c_word:
                if z[v - 1] < 0:
                    strip(v)
    return stripped


def sorting_word_of_inversion_set(
    q: Quiver, roots: frozenset[Root], c_word: tuple[Vertex, ...]
) -> tuple[Vertex, ...]:
    """The c-sorting word of the w with N(w) = roots, from the one vector
    w(2 rho) = 2 rho - 2 sum(N(w)). The set is an inversion set exactly
    when stripping descents off that vector ends at 2 rho, so that the
    vector is w(2 rho) for the w the letters spell, and every member pairs
    negatively with it: then the set lies in N(w) and has the same sum, so
    it is N(w)."""
    _validate_full_word(q, c_word)
    if not frozenset(roots) <= frozenset(positive_roots(q)):
        raise ValueError("no group element has the given roots as inversion set")
    y = [x - 2 * sum(r[i] for r in roots) for i, x in enumerate(_two_rho(q))]
    z = _pairings(q, y)
    start = list(z)
    stripped = _strip_descents(q, z, c_word)
    if z != _pairings(q, _two_rho(q)) or any(
        sum(x * p for x, p in zip(r, start)) >= 0 for r in roots
    ):
        raise ValueError("no group element has the given roots as inversion set")
    return tuple(v for v, _ in stripped)


def inversion_set(q: Quiver, w: GroupElement) -> frozenset[Root]:
    """Positive roots sent to negative roots by w^{-1}."""
    y = _rho_pairings(q, w)
    return frozenset(
        alpha for alpha in positive_roots(q) if sum(map(mul, alpha, y)) < 0
    )


def length_S(q: Quiver, w: GroupElement) -> int:
    return len(inversion_set(q, w))


def fixed_space(q: Quiver, w: GroupElement) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis (`fields.int_row_space`) of ker(mat - id)."""
    rows = [[w.mat[i][j] - (i == j) for j in range(q.n)] for i in range(q.n)]
    return fields.int_nullspace(rows, q.n)


def _validate_word(q: Quiver, c_word: tuple[Vertex, ...]) -> None:
    for v in c_word:
        _check_letter(q, v)
    if len(set(c_word)) != len(c_word):
        raise ValueError(f"invalid Coxeter word {c_word!r}")


def _validate_full_word(q: Quiver, c_word: tuple[Vertex, ...]) -> None:
    """A Coxeter word with every letter: passes over a partial word strip
    nothing outside it, and would never end."""
    _validate_word(q, c_word)
    if len(c_word) != q.n:
        raise ValueError("c-sorting needs a full Coxeter word")


def is_c_sortable(q: Quiver, w: GroupElement, c_word: tuple[Vertex, ...]) -> bool:
    """Whether w is c-sortable, by Reading's nested passes (`_reading_descents`)."""
    return _reading_descents(q, w.apply(_two_rho(q)), c_word) is not None


def _reading_descents(
    q: Quiver, y: DimVector, c_word: tuple[Vertex, ...]
) -> list[tuple[Vertex, int]] | None:
    """c-sortability by Reading's nested passes, on y = w(2 rho) as the
    module docstring describes. Returns the descents stripped, as pairs
    (v, (e_v, y)) for y at that step, whose letters spell the c-sorting word
    of w; None when w is not c-sortable. A pass ends where the next letter
    stripped does not come later in the word: no strip comes between, so a
    letter that was no descent when the last pass reached it is none when
    the next pass does."""
    require_finite_type(q)
    _validate_word(q, c_word)
    two_rho = _two_rho(q)
    if any(y[u - 1] != two_rho[u - 1] for u in q.vertices if u not in c_word):
        return None
    stripped = _strip_descents(q, _pairings(q, y), tuple(c_word))
    place = {v: i for i, v in enumerate(c_word)}
    before, this, last = set(c_word), set(), -1
    for v, _ in stripped:
        if place[v] <= last:  # a new pass
            before, this = this, set()
        if v not in before:
            return None
        this.add(v)
        last = place[v]
    return stripped


def cover_reflections(q: Quiver, w: GroupElement) -> frozenset[GroupElement]:
    """{w s_v w^{-1} = s_{w(e_v)} : s_v a right descent of w, i.e. w(e_v) < 0}."""
    images = (w.apply(e) for e in simple_roots(q))
    return frozenset(reflection(q, r) for r in images if any(x < 0 for x in r))


def reflection_root(q: Quiver, w: GroupElement) -> Root | None:
    """The positive root r with w = s_r, or None when w is not a reflection.

    An element of W is a reflection exactly when rank(w - 1) = 1 (Carter's
    lemma), and the columns of s_r - 1 are the multiples -(r, e_j) r."""
    cols = [[w.mat[i][j] - (i == j) for i in range(q.n)] for j in range(q.n)]
    moved = [c for c in cols if any(c)]
    if not moved or any(
        x * d[j] != y * d[i]
        for d in moved[1:]
        for i, x in enumerate(moved[0])
        for j, y in enumerate(moved[0])
    ):
        return None
    scale = math.gcd(*moved[0]) * (1 if max(moved[0]) > 0 else -1)
    return tuple(x // scale for x in moved[0])


def reduced_word(q: Quiver, w: GroupElement) -> tuple[Vertex, ...]:
    """Canonical reduced word: repeatedly strip the smallest left descent."""
    return tuple(v for v, _ in _strip_descents(q, _rho_pairings(q, w)))


def c_sorting_word(q: Quiver, w: GroupElement, c_word: tuple[Vertex, ...]) -> tuple[Vertex, ...]:
    """The c-sorting word of w: greedy subword of c^infinity."""
    _validate_full_word(q, c_word)
    return tuple(v for v, _ in _strip_descents(q, _rho_pairings(q, w), tuple(c_word)))


def projective_root(q: Quiver, v: Vertex) -> Root:
    """dim P_v: its entry at w counts the paths v -> w, summed over the
    vertices in topological order."""
    dims = [int(u == v) for u in q.vertices]
    for u in q.topological_order():
        for k in q.arrows_out_of(u):
            dims[q.arrows[k][1] - 1] += dims[u - 1]
    return tuple(dims)


@lru_cache(maxsize=None)
def projective_roots(q: Quiver) -> frozenset[Root]:
    return frozenset(projective_root(q, v) for v in q.vertices)


def tau(q: Quiver, root: Root) -> Root | None:
    """AR translate on dimension vectors: cox(Q) . root, none on projectives."""
    require_finite_type(q)
    if not is_positive_root(q, root):
        raise ValueError(f"{root} is not a positive root")
    if root in projective_roots(q):
        return None
    image = coxeter_element(q).apply(root)
    if not is_positive_root(q, image):
        raise FingerprintError(f"tau({root}) = {image} is not a positive root")
    return image


@lru_cache(maxsize=None)
def ar_quiver(q: Quiver) -> tuple[tuple[Root, Root], ...]:
    """Edges of the AR quiver, knitted from the projective roots.

    Every indecomposable of a Dynkin quiver is preprojective, tau^-k P_v for
    one k >= 0 and one vertex v, with dimension vector cox(Q)^-k dim P_v.
    An arrow s -> t of Q is an irreducible map P_t -> P_s, and it gives the
    AR arrows tau^-k P_t -> tau^-k P_s and tau^-k P_s -> tau^-(k+1) P_t.
    Checked: the vertices are the positive roots, each once, and every mesh
    satisfies dim tau^-1 X = sum of the successors of X - dim X.
    """
    require_finite_type(q)
    orbit: dict[tuple[Vertex, int], Root] = {}  # (v, k) -> dim tau^-k P_v
    for v in q.vertices:
        x, k = projective_root(q, v), 0
        while all(c >= 0 for c in x):  # a root is positive or negative
            orbit[v, k] = x
            k += 1
            for u in coxeter_element_word(q):  # cox^-1 = s_{u_n} ... s_{u_1}
                x = _simple_step(q, u, x)
    if sorted(orbit.values()) != list(positive_roots(q)):
        raise FingerprintError("the tau^-1 orbits of the projectives are not the positive roots")
    edges = []
    for s, t in q.arrows:
        for (v, k), x in orbit.items():
            if v == t and (s, k) in orbit:
                edges.append((x, orbit[s, k]))
            if v == s and (t, k + 1) in orbit:
                edges.append((x, orbit[t, k + 1]))
    successors: dict[Root, list[Root]] = {x: [] for x in orbit.values()}
    for x, y in edges:
        successors[x].append(y)
    for (v, k), x in orbit.items():
        if (v, k + 1) in orbit and orbit[v, k + 1] != tuple(
            sum(col) - c for col, c in zip(zip(*successors[x]), x)
        ):
            raise FingerprintError(f"the mesh starting at {x} breaks the dimension rule")
    return tuple(sorted(edges))


@lru_cache(maxsize=None)
def ar_linear_order(q: Quiver) -> tuple[Root, ...]:
    """Lexicographically least topological sort of the AR quiver."""
    preds: dict[Root, set[Root]] = {r: set() for r in positive_roots(q)}
    for a, b in ar_quiver(q):
        preds[b].add(a)
    order = _least_first(positive_roots(q), preds)
    if order is None:
        raise FingerprintError("the AR quiver has an oriented cycle")
    return order


def ar_dot(q: Quiver) -> str:
    """Graphviz rendering of the AR quiver."""
    lines = ["digraph AR {"]
    for r in positive_roots(q):
        lines.append(f'  "{list(r)}";')
    for a, b in ar_quiver(q):
        lines.append(f'  "{list(a)}" -> "{list(b)}";')
    lines.append("}")
    return "\n".join(lines)
