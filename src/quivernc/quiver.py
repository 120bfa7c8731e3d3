"""Acyclic quiver model: text format, Euler form, root system, Coxeter word.

Vertices are labelled 1..n.  Dimension vectors and roots are plain integer
tuples in the basis of simple roots, ordered lexicographically whenever a
canonical order is needed.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from operator import mul

from .errors import NotFiniteTypeError, QuiverSyntaxError

Vertex = int
DimVector = tuple[int, ...]
Root = tuple[int, ...]


def _least_first(items, before) -> tuple | None:
    """The lexicographically least order of `items` in which each x comes
    after every member of `before[x]`, or None when there is no such order
    (`before` has a cycle)."""
    order, remaining = [], set(items)
    while remaining:
        ready = [x for x in remaining if remaining.isdisjoint(before[x])]
        if not ready:
            return None
        order.append(min(ready))
        remaining.remove(order[-1])
    return tuple(order)


class _Frozen:
    """Base of the package's immutable values: a subclass names its fields
    in `__slots__`, its `__init__` takes them in that order and sets them
    with `object.__setattr__`, and any later assignment raises.

    Equality, hash, repr and pickling go by the field tuple, as a frozen
    dataclass's do: equal exactly when the fields are, hashed as the tuple
    of the fields, so sets and dicts of values iterate in the same order.
    The fast path's values write their own, to hash once or print shorter.
    """

    __slots__ = ()

    def _field_values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._field_values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return type(self), self._field_values()


class Quiver(_Frozen):
    """Finite acyclic directed multigraph on vertices 1..n (loops rejected).

    An immutable value: equal quivers hash alike, and the hash of the
    field tuple is computed once, since every per-quiver cache is keyed on
    the quiver.
    """

    __slots__ = ("n", "arrows", "_hash")

    def __init__(self, n: int, arrows: tuple[tuple[Vertex, Vertex], ...]):
        if n < 1:
            raise ValueError("quiver needs at least one vertex")
        arrows = tuple(sorted(tuple(a) for a in arrows))
        for s, t in arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise ValueError(f"arrow {s}->{t} uses an undeclared vertex")
            if s == t:
                raise ValueError(f"loop at vertex {s} is not allowed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "_hash", hash((n, arrows)))
        self.topological_order()  # raises on an oriented cycle

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.arrows == other.arrows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, arrows={self.arrows!r})"

    def __reduce__(self):
        return type(self), (self.n, self.arrows)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(range(1, self.n + 1))

    def topological_order(self) -> tuple[Vertex, ...]:
        """Smallest-label-first topological order (sources before targets)."""
        sources = {v: {s for s, t in self.arrows if t == v} for v in self.vertices}
        order = _least_first(self.vertices, sources)
        if order is None:
            raise ValueError("quiver has an oriented cycle")
        return order

    def arrows_into(self, v: Vertex) -> tuple[int, ...]:
        return tuple(i for i, (_, t) in enumerate(self.arrows) if t == v)

    def arrows_out_of(self, v: Vertex) -> tuple[int, ...]:
        return tuple(i for i, (s, _) in enumerate(self.arrows) if s == v)

    def is_sink(self, v: Vertex) -> bool:
        return not self.arrows_out_of(v)

    def is_source(self, v: Vertex) -> bool:
        return not self.arrows_into(v)

    def sinks(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if self.is_sink(v))

    def sources(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if self.is_source(v))

    def reflect_at(self, v: Vertex) -> "Quiver":
        """Reverse every arrow incident with v."""
        new = tuple((t, s) if s == v or t == v else (s, t) for s, t in self.arrows)
        return Quiver(self.n, new)

    def to_json(self) -> str:
        return json.dumps({"vertices": self.n, "arrows": [list(a) for a in self.arrows]})


@lru_cache(maxsize=None)
def parse_quiver(text: str) -> Quiver:
    """Parse the quiver DSL.

    Line "vertices N" followed by zero or more lines "arrow S T"; comments
    start with '#'.  Memoised on the text: a `Quiver` is immutable, and
    handing back the same object lets every per-quiver cache find it by
    identity.

    >>> parse_quiver("vertices 2\\narrow 2 1").arrows
    ((2, 1),)
    """
    n: int | None = None
    arrows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n is not None:
                raise QuiverSyntaxError(f"line {lineno}: duplicate vertices declaration")
            if len(parts) != 2 or not parts[1].isdigit():
                raise QuiverSyntaxError(f"line {lineno}: expected 'vertices N'")
            n = int(parts[1])
            if n < 1:
                raise QuiverSyntaxError(f"line {lineno}: vertex count must be positive")
        elif parts[0] == "arrow":
            if n is None:
                raise QuiverSyntaxError(f"line {lineno}: arrow before vertices declaration")
            if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
                raise QuiverSyntaxError(f"line {lineno}: expected 'arrow S T'")
            s, t = int(parts[1]), int(parts[2])
            if not (1 <= s <= n and 1 <= t <= n):
                raise QuiverSyntaxError(f"line {lineno}: arrow endpoint out of range")
            if s == t:
                raise QuiverSyntaxError(f"line {lineno}: loops are not allowed")
            arrows.append((s, t))
        else:
            raise QuiverSyntaxError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise QuiverSyntaxError("missing vertices declaration")
    try:
        return Quiver(n, tuple(arrows))
    except ValueError as exc:
        raise QuiverSyntaxError(str(exc)) from exc


def _check_length(q: Quiver, v: DimVector) -> None:
    if len(v) != q.n:
        raise ValueError(f"dimension vector of length {len(v)}, expected {q.n}")


def euler_row(q: Quiver, a: DimVector) -> tuple[int, ...]:
    """The coefficients of the functional <a, .> of the Euler form."""
    row = list(a)
    for s, t in q.arrows:
        row[t - 1] -= a[s - 1]
    return tuple(row)


def euler_form(q: Quiver, a: DimVector, b: DimVector) -> int:
    """<a,b> = sum_i a_i b_i - sum_{i->j} a_i b_j."""
    _check_length(q, a)
    _check_length(q, b)
    return sum(x * y for x, y in zip(euler_row(q, a), b))


def hom_dim_roots(q: Quiver, a: Root, b: Root) -> int:
    """dim Hom(M_a, M_b) = max(<a,b>, 0) for indecomposables of a Dynkin quiver.

    The Euler form on the root lattice is dim Hom - dim Ext^1, and at most one
    of the two is nonzero: Hom gives a path a -> b in the AR quiver, and
    Ext^1(M_a, M_b) = D Hom(M_b, tau M_a) a path b -> tau a -> a, but a
    Dynkin AR quiver has no oriented cycle.
    """
    return max(euler_form(q, a, b), 0)


def ext_dim_roots(q: Quiver, a: Root, b: Root) -> int:
    """dim Ext^1(M_a, M_b) = max(-<a,b>, 0); see `hom_dim_roots` for why at
    most one of Hom and Ext^1 is nonzero between two indecomposables."""
    return max(-euler_form(q, a, b), 0)


def symmetrized_form(q: Quiver, a: DimVector, b: DimVector) -> int:
    """(a,b) = <a,b> + <b,a>."""
    return euler_form(q, a, b) + euler_form(q, b, a)


@lru_cache(maxsize=None)
def cartan_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Matrix of the symmetrized form in the simple-root basis."""
    simples = simple_roots(q)
    return tuple(
        tuple(symmetrized_form(q, ei, ej) for ej in simples) for ei in simples
    )


def _pairings(q: Quiver, y: DimVector) -> list[int]:
    """B . y, B the Cartan matrix: its v-th entry is (e_v, y)."""
    return [sum(map(mul, row, y)) for row in cartan_matrix(q)]


def _simple_pairing(q: Quiver, v: Vertex, y: DimVector) -> int:
    """(e_v, y), negative for y = w(2 rho) exactly when s_v is a left
    descent of w."""
    return sum(map(mul, cartan_matrix(q)[v - 1], y))


def _simple_step(q: Quiver, v: Vertex, y: DimVector) -> DimVector:
    """s_v(y) = y - (e_v, y) e_v: only entry v changes."""
    out = list(y)
    out[v - 1] -= _simple_pairing(q, v, y)
    return tuple(out)


@lru_cache(maxsize=None)
def simple_roots(q: Quiver) -> tuple[Root, ...]:
    return tuple(
        tuple(1 if i == j else 0 for j in range(q.n)) for i in range(q.n)
    )


def _det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination: every
    division by the previous pivot is exact, and the last pivot is the
    determinant up to the sign of the row swaps."""
    a = [row[:] for row in rows]
    sign, prev = 1, 1
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        p = a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[c])]
        prev = p
    return sign * prev


@lru_cache(maxsize=None)
def classify(q: Quiver) -> str:
    """'finite', 'affine' or 'wild' by definiteness of the symmetrized form."""
    b = cartan_matrix(q)
    idx = range(q.n)
    leading_positive = True
    for k in range(1, q.n + 1):
        rows = [[b[i][j] for j in idx[:k]] for i in idx[:k]]
        if _det(rows) <= 0:
            leading_positive = False
            break
    if leading_positive:
        return "finite"
    # positive semidefinite <=> every principal minor is >= 0
    for size in range(1, q.n + 1):
        for subset in itertools.combinations(idx, size):
            rows = [[b[i][j] for j in subset] for i in subset]
            if _det(rows) < 0:
                return "wild"
    return "affine"


def require_finite_type(q: Quiver) -> None:
    kind = classify(q)
    if kind != "finite":
        raise NotFiniteTypeError(f"quiver is of {kind} type, not finite type")


@lru_cache(maxsize=None)
def positive_roots(q: Quiver) -> tuple[Root, ...]:
    """All v >= 0 with (v,v) = 2, found by closing the simples under
    simple reflections; lexicographically sorted."""
    require_finite_type(q)
    found: set[Root] = set(simple_roots(q))
    frontier = list(found)
    while frontier:
        nxt = []
        for v in frontier:
            for u in q.vertices:
                w = _simple_step(q, u, v)
                if all(x >= 0 for x in w) and w not in found:
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(found))


def is_positive_root(q: Quiver, v: DimVector) -> bool:
    return len(v) == q.n and all(x >= 0 for x in v) and symmetrized_form(q, v, v) == 2


@lru_cache(maxsize=None)
def coxeter_element_word(q: Quiver) -> tuple[Vertex, ...]:
    """Topological order of the vertices; reading it left to right and
    multiplying simple reflections gives cox(Q)."""
    return q.topological_order()


def support(v: DimVector) -> frozenset[Vertex]:
    return frozenset(i + 1 for i, x in enumerate(v) if x != 0)
