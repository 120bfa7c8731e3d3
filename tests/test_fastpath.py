"""Integer fast paths against their representation-theoretic oracles, on
every orientation of A3, A4 and D4."""

import itertools

import pytest

from quivernc import (
    a_of,
    absolute_leq,
    coxeter_element,
    enumerate_torsion_classes,
    indecomposable,
    noncrossing_partitions,
    parse_quiver,
    positive_roots,
    weyl_group,
)
from quivernc.cli import _map_step
from quivernc.fields import GF2, QQ
from quivernc.ncmap import cox_of_wide, wide_of_nc
from quivernc.quiver import ext_dim_roots, hom_dim_roots
from quivernc.replab import (
    decompose,
    ext_dim,
    hom_dim,
    sub_representation,
    subrepresentation_subspaces,
)
from quivernc.tors import wide_simples

EDGES = {
    "a3": (3, ((1, 2), (2, 3))),
    "a4": (4, ((1, 2), (2, 3), (3, 4))),
    "d4": (4, ((1, 2), (2, 3), (2, 4))),
}


def orientations(n, edges):
    """Every orientation of a tree: one quiver per choice of edge directions."""
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = [(t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips)]
        text = "\n".join([f"vertices {n}"] + [f"arrow {s} {t}" for s, t in arrows])
        yield parse_quiver(text)


QUIVERS = [
    pytest.param(q, id=f"{name}-{'.'.join(f'{s}{t}' for s, t in q.arrows)}")
    for name, (n, edges) in EDGES.items()
    for q in orientations(n, edges)
]


def gf2_simples(q, a):
    """Members of A with no proper nonzero GF(2) subrepresentation whose
    summands all lie in A: the definition of a simple object of A."""
    out = set()
    for alpha in a:
        m = indecomposable(q, alpha, GF2)
        proper = False
        for sub in subrepresentation_subspaces(m):
            dims = tuple(len(rows) for rows in sub)
            if dims == alpha or all(x == 0 for x in dims):
                continue
            if set(decompose(q, sub_representation(m, sub))) <= a:
                proper = True
                break
        if not proper:
            out.add(alpha)
    return out


def test_nc_interval_matches_poset(a3, d4):
    for q in (a3, d4):
        cox = coxeter_element(q)
        nc = {w for w in weyl_group(q) if absolute_leq(q, w, cox)}
        assert nc == set(noncrossing_partitions(q).elements)


def test_orientation_counts():
    counts = {name: len(list(orientations(n, e))) for name, (n, e) in EDGES.items()}
    assert counts == {"a3": 4, "a4": 8, "d4": 8}
    assert len({p.values[0].arrows for p in QUIVERS}) == 20


@pytest.mark.parametrize("q", QUIVERS)
def test_hom_ext_closed_form_matches_explicit_reps(q):
    roots = positive_roots(q)
    for field in (QQ, GF2):
        reps = {r: indecomposable(q, r, field) for r in roots}
        for a in roots:
            for b in roots:
                assert hom_dim_roots(q, a, b) == hom_dim(reps[a], reps[b]), (field, a, b)
                assert ext_dim_roots(q, a, b) == ext_dim(q, reps[a], reps[b]), (field, a, b)
        assert all(hom_dim_roots(q, r, r) == 1 for r in roots)  # Schur


@pytest.mark.parametrize("q", QUIVERS)
def test_wide_simples_match_gf2_definition(q):
    for t in enumerate_torsion_classes(q):
        a = a_of(q, t)
        assert set(wide_simples(q, a)) == gf2_simples(q, a), sorted(t)


@pytest.mark.parametrize("q", QUIVERS)
def test_wide_of_nc_inverts_cox_of_wide(q):
    for t in enumerate_torsion_classes(q):
        a = a_of(q, t)
        assert wide_of_nc(q, cox_of_wide(q, a)) == a


@pytest.mark.parametrize("q", QUIVERS)
def test_nc_to_wide_accepts_exactly_nc(q):
    """NC is the interval [e, cox(Q)] of absolute order, as in
    `noncrossing_partitions`, whose cover matrix this test does not need."""
    cox = coxeter_element(q)
    nc = {w for w in weyl_group(q) if absolute_leq(q, w, cox)}
    accepted = set()
    for w in weyl_group(q):
        try:
            _map_step(q, "nc", "wide", w)
        except ValueError as exc:
            assert "not a noncrossing partition" in str(exc)
        else:
            accepted.add(w)
    assert accepted == nc
