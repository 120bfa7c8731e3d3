"""King stability conditions and semistable subcategories.

A stability condition is an integer linear functional theta on the root
lattice; V is semistable when theta(dim V) = 0 and every subrepresentation
has theta <= 0.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .quiver import Quiver, Root, Vertex, euler_row, positive_roots, require_finite_type, support
from .replab import (
    DEFAULT_CAP,
    Representation,
    indecomposable,
    subrep_dimvectors,
)
from .tors import IndecSet, a_of, is_support_tilting, split_projectives, torsion_closure

Stability = tuple  # of int, one coefficient per vertex


def theta_value(theta: Stability, v: tuple[int, ...]) -> int:
    return sum(c * x for c, x in zip(theta, v))


def default_coefficients(q: Quiver, c: IndecSet) -> tuple[dict[Root, int], dict[Vertex, int]]:
    """a_i = 1 on non-split summands (0 on split), b_j = -1 off support."""
    split = split_projectives(q, torsion_closure(q, c))
    a = {r: (0 if r in split else 1) for r in c}
    supp: set[Vertex] = set()
    for r in c:
        supp |= support(r)
    b = {v: -1 for v in q.vertices if v not in supp}
    return a, b


def theta_of_support_tilting(
    q: Quiver,
    c: IndecSet,
    a: Mapping[Root, int],
    b: Mapping[Vertex, int],
) -> Stability:
    """theta = sum a_i <T_i, .> + sum b_j e_j with the sign constraints
    a_i = 0 on split projectives, a_i > 0 on non-split ones, b_j < 0."""
    if not is_support_tilting(q, c):
        raise ValueError("input is not a support tilting object")
    a0, b0 = default_coefficients(q, c)
    if set(a) != set(a0):
        raise ValueError("a-coefficients must be indexed exactly by the summands")
    if set(b) != set(b0):
        raise ValueError("b-coefficients must be indexed exactly by the off-support vertices")
    for r, coeff in a.items():
        if a0[r] == 0 and coeff != 0:
            raise ValueError(f"a-coefficient of split projective {r} must be 0")
        if a0[r] and coeff <= 0:
            raise ValueError(f"a-coefficient of non-split summand {r} must be positive")
    for v, coeff in b.items():
        if coeff >= 0:
            raise ValueError(f"b-coefficient of off-support vertex {v} must be negative")
    return _theta(q, a, b)


def _theta(q: Quiver, a: Mapping[Root, int], b: Mapping[Vertex, int]) -> Stability:
    """sum a_i <T_i, .> + sum b_j e_j, for coefficients already checked."""
    theta = [0] * q.n
    for r, coeff in a.items():
        row = euler_row(q, r)
        for i in range(q.n):
            theta[i] += coeff * row[i]
    for v, coeff in b.items():
        theta[v - 1] += coeff
    return tuple(theta)


def is_semistable(
    q: Quiver, theta: Stability, m: Representation, cap: int = DEFAULT_CAP
) -> bool:
    """theta(dim M) = 0 and theta(W) <= 0 for every subrepresentation W."""
    if theta_value(theta, m.dims) != 0:
        return False
    return all(theta_value(theta, w) <= 0 for w in subrep_dimvectors(m, cap))


def semistable_indecs(q: Quiver, theta: Stability, cap: int = DEFAULT_CAP) -> IndecSet:
    require_finite_type(q)
    return frozenset(
        r
        for r in positive_roots(q)
        if is_semistable(q, theta, indecomposable(q, r), cap)
    )


class SemistableReport(NamedTuple):
    support_tilting: tuple[Root, ...]
    theta: Stability
    semistable: tuple[Root, ...]
    wide: tuple[Root, ...]
    passed: bool


def verify_semistable_theorem(
    q: Quiver,
    c: IndecSet,
    a: Mapping[Root, int] | None = None,
    b: Mapping[Vertex, int] | None = None,
    cap: int = DEFAULT_CAP,
) -> SemistableReport:
    """Check that the semistables of theta are exactly a(Gen C)."""
    c = frozenset(c)
    if a is None and b is None:
        a, b = default_coefficients(q, c)
    theta = theta_of_support_tilting(q, c, a, b)
    semis = semistable_indecs(q, theta, cap)
    wide = a_of(q, torsion_closure(q, c))
    return SemistableReport(
        support_tilting=tuple(sorted(c)),
        theta=theta,
        semistable=tuple(sorted(semis)),
        wide=tuple(sorted(wide)),
        passed=semis == wide,
    )
