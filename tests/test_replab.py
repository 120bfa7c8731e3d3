import itertools
import json

import pytest

from quivernc import (
    OracleCapError,
    ar_quiver,
    euler_form,
    positive_roots,
    tau,
)
from quivernc.fields import GF2, GF3, QQ, rank, zeros
from quivernc.quiver import ext_dim_roots, hom_dim_roots
from quivernc import replab
from quivernc.replab import (
    Representation,
    decompose,
    direct_sum,
    ext_dim,
    gen,
    hom_basis,
    hom_dim,
    indecomposable,
    injective_rep,
    projective_rep,
    reflect,
    simple_rep,
    subrep_dimvectors,
)
from quivernc.tors import enumerate_support_tilting
from quivernc.weyl import ar_dot, ar_linear_order, projective_roots


def ext_dim_cocycle(m, n):
    """Independent Ext^1 oracle: arrow-indexed cocycles modulo coboundaries.

    A cocycle is a tuple (c_a: M_{s(a)} -> N_{t(a)}); the coboundary of a
    vertex tuple (h_v) is (h_{t(a)} M_a - N_a h_{s(a)}).  dim Ext equals the
    cocycle count minus the rank of the explicit coboundary matrix.
    """
    q, field = m.quiver, m.field
    cocycle_dim = sum(m.dims[s - 1] * n.dims[t - 1] for s, t in q.arrows)
    rows = []
    for v in range(q.n):
        for i in range(n.dims[v]):
            for j in range(m.dims[v]):
                h = [zeros(field, n.dims[u], m.dims[u]) for u in range(q.n)]
                h[v][i][j] = field.of_int(1)
                image = []
                for k, (sv, tv) in enumerate(q.arrows):
                    si, ti = sv - 1, tv - 1
                    for r in range(n.dims[ti]):
                        for c in range(m.dims[si]):
                            lhs = sum(
                                h[ti][r][l] * m.maps[k][l][c]
                                for l in range(m.dims[ti])
                            )
                            rhs = sum(
                                n.maps[k][r][l] * h[si][l][c]
                                for l in range(n.dims[si])
                            )
                            image.append(field.sub(field.of_int(lhs) if isinstance(lhs, int) else lhs,
                                                   field.of_int(rhs) if isinstance(rhs, int) else rhs))
                rows.append(image)
    return cocycle_dim - rank(field, rows)


class TestStandardReps:
    def test_simple(self, a2):
        s2 = simple_rep(a2, 2)
        assert s2.dims == (0, 1)
        assert all(not any(row) for m in s2.maps for row in m)

    def test_projective_a3(self, a3):
        assert projective_rep(a3, 2).dims == (1, 1, 1)
        assert projective_rep(a3, 1).dims == (1, 0, 0)
        assert projective_rep(a3, 3).dims == (0, 0, 1)

    def test_injective_a3(self, a3):
        assert injective_rep(a3, 2).dims == (0, 1, 0)
        assert injective_rep(a3, 1).dims == (1, 1, 0)
        assert injective_rep(a3, 3).dims == (0, 1, 1)

    def test_projective_end_one_dimensional(self, a3, d4):
        for q in (a3, d4):
            for v in q.vertices:
                p = projective_rep(q, v)
                assert hom_dim(p, p) == 1

    def test_hom_from_projective_is_dim_at_vertex(self, a3):
        for v in a3.vertices:
            p = projective_rep(a3, v)
            for r in positive_roots(a3):
                m = indecomposable(a3, r)
                assert hom_dim(p, m) == r[v - 1]

    def test_unknown_vertex(self, a2):
        with pytest.raises(ValueError):
            simple_rep(a2, 3)


class TestHomExt:
    def test_hom_examples(self, a2, a3):
        assert hom_dim(simple_rep(a2, 2), indecomposable(a2, (1, 1))) == 0
        assert hom_dim_roots(a3, (1, 1, 1), (1, 1, 0)) == 1
        for q in (a2, a3):
            for r in positive_roots(q):
                assert hom_dim_roots(q, r, r) == 1  # Schur property

    def test_ext_examples(self, a2, a3):
        assert ext_dim_roots(a2, (0, 1), (1, 0)) == 1
        assert ext_dim_roots(a3, (0, 1, 1), (0, 1, 0)) == 0
        for v in a3.vertices:
            p = projective_rep(a3, v)
            for r in positive_roots(a3):
                assert ext_dim(a3, p, indecomposable(a3, r)) == 0

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_euler_identity_all_pairs(self, fix, request):
        """hom - ext computed homologically equals the Euler form."""
        q = request.getfixturevalue(fix)
        for a in positive_roots(q):
            for b in positive_roots(q):
                m, n = indecomposable(q, a), indecomposable(q, b)
                assert hom_dim(m, n) - ext_dim_cocycle(m, n) == euler_form(q, a, b)
                assert ext_dim(q, m, n) == ext_dim_cocycle(m, n)

    def test_field_mismatch(self, a2):
        with pytest.raises(ValueError):
            hom_basis(simple_rep(a2, 1, QQ), simple_rep(a2, 1, GF2))

    def test_hom_basis_elements_commute(self, a3):
        m = indecomposable(a3, (1, 1, 1))
        n = indecomposable(a3, (1, 1, 0))
        basis = hom_basis(m, n)
        from quivernc.fields import mat_mul

        for phi in basis.elements:
            for k, (s, t) in enumerate(a3.arrows):
                lhs = mat_mul(QQ, phi[t - 1], m.maps[k])
                rhs = mat_mul(QQ, n.maps[k], phi[s - 1])
                assert lhs == rhs


class TestReflectionFunctors:
    def test_kills_simple_projective_at_sink(self, a2):
        out = reflect(a2, 1, "+", simple_rep(a2, 1))
        assert out.dims == (0, 0)

    def test_dims_transform_by_reflection(self, a2):
        out = reflect(a2, 1, "+", indecomposable(a2, (1, 1)))
        assert out.dims == (0, 1)
        out = reflect(a2, 1, "+", simple_rep(a2, 2))
        assert out.dims == (1, 1)

    def test_round_trip_is_identity_up_to_iso(self, a3):
        for r in positive_roots(a3):
            m = indecomposable(a3, r)
            for v in a3.sinks():
                if r == tuple(int(u == v) for u in a3.vertices):
                    continue  # the killed simple projective
                back = reflect(a3.reflect_at(v), v, "-", reflect(a3, v, "+", m))
                assert back.dims == m.dims
                assert decompose(a3, back) == (r,)

    def test_wrong_vertex_type(self, a2):
        with pytest.raises(ValueError, match="sink"):
            reflect(a2, 2, "+", simple_rep(a2, 2))
        with pytest.raises(ValueError, match="source"):
            reflect(a2, 1, "-", simple_rep(a2, 1))

    def test_tau_via_reflection_chain(self, a3):
        """Reflecting through a full admissible sink order realizes tau."""
        projectives = projective_roots(a3)
        for r in positive_roots(a3):
            if r in projectives:
                continue
            m = indecomposable(a3, r)
            q = a3
            for v in reversed(a3.topological_order()):
                m = reflect(q, v, "+", m)
                q = q.reflect_at(v)
            assert q == a3
            assert m.dims == tau(a3, r)


class TestIndecomposable:
    @pytest.mark.parametrize("fix", ["a2", "a3", "a3_linear", "a4", "d4"])
    def test_every_root_realized(self, fix, request):
        q = request.getfixturevalue(fix)
        for r in positive_roots(q):
            m = indecomposable(q, r)
            assert m.dims == r
            assert hom_dim(m, m) == 1
            assert ext_dim(q, m, m) == 0

    def test_simple_roots_give_simples(self, a3):
        assert indecomposable(a3, (0, 1, 0)).dims == (0, 1, 0)

    def test_a2_arrow_map_is_isomorphism(self, a2):
        m = indecomposable(a2, (1, 1))
        assert m.maps[0][0][0] != 0

    def test_a3_both_maps_nonzero(self, a3):
        m = indecomposable(a3, (1, 1, 1))
        for mat in m.maps:
            assert mat[0][0] != 0

    def test_non_root_rejected(self, a3):
        with pytest.raises(ValueError):
            indecomposable(a3, (1, 0, 1))

    def test_gf2_and_rational_fingerprints_agree(self, a3):
        roots = positive_roots(a3)
        for r in roots:
            mq = indecomposable(a3, r, QQ)
            m2 = indecomposable(a3, r, GF2)
            for x in roots:
                assert hom_dim(indecomposable(a3, x, QQ), mq) == hom_dim(
                    indecomposable(a3, x, GF2), m2
                )


class TestSubrepresentations:
    def test_simple(self, a2):
        assert subrep_dimvectors(simple_rep(a2, 1, GF2)) == {(0, 0), (1, 0)}

    def test_a2_indecomposable(self, a2):
        m = indecomposable(a2, (1, 1), GF2)
        assert subrep_dimvectors(m) == {(0, 0), (1, 0), (1, 1)}

    def test_a3_indecomposable(self, a3):
        m = indecomposable(a3, (1, 1, 1), GF2)
        assert subrep_dimvectors(m) == {
            (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1),
        }

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_field_independence(self, fix, request):
        q = request.getfixturevalue(fix)
        for r in positive_roots(q):
            assert subrep_dimvectors(indecomposable(q, r, GF2)) == subrep_dimvectors(
                indecomposable(q, r, GF3)
            )

    def test_cap(self, a2):
        m = direct_sum([indecomposable(a2, (1, 1), GF2)] * 7)
        with pytest.raises(OracleCapError):
            subrep_dimvectors(m)


class TestDecompose:
    def test_sum_of_simples(self, a2):
        m = direct_sum([simple_rep(a2, 1, GF2), simple_rep(a2, 1, GF2)])
        assert decompose(a2, m) == ((1, 0), (1, 0))

    def test_quotient_of_p2_by_socle(self, a3):
        from quivernc.replab import quotient_representation, subrepresentation_subspaces

        m = indecomposable(a3, (1, 1, 1), GF2)
        sub = next(
            s
            for s in subrepresentation_subspaces(m)
            if tuple(len(rows) for rows in s) == (1, 0, 1)
        )
        assert decompose(a3, quotient_representation(m, sub)) == ((0, 1, 0),)

    def test_nonsplit_extension_is_indecomposable(self, a2):
        assert decompose(a2, indecomposable(a2, (1, 1), GF2)) == ((1, 1),)

    def test_zero(self, a2):
        from quivernc.replab import zero_rep

        assert decompose(a2, zero_rep(a2, GF2)) == ()


class TestTau:
    def test_projectives_have_no_translate(self, a3):
        for r in projective_roots(a3):
            assert tau(a3, r) is None

    def test_a2(self, a2):
        assert tau(a2, (0, 1)) == (1, 0)
        assert tau(a2, (1, 1)) is None

    def test_a3_worked_example(self, a3):
        assert tau(a3, (0, 1, 0)) == (1, 1, 1)
        assert tau(a3, (0, 1, 1)) == (1, 0, 0)
        assert tau(a3, (1, 1, 0)) == (0, 0, 1)


class TestARQuiver:
    def test_a1(self, a1):
        assert ar_quiver(a1) == ()

    def test_a2_path(self, a2):
        assert ar_quiver(a2) == (((1, 0), (1, 1)), ((1, 1), (0, 1)))

    def test_a3_matches_worked_figure(self, a3):
        assert set(ar_quiver(a3)) == {
            ((1, 0, 0), (1, 1, 1)),
            ((0, 0, 1), (1, 1, 1)),
            ((1, 1, 1), (0, 1, 1)),
            ((1, 1, 1), (1, 1, 0)),
            ((0, 1, 1), (0, 1, 0)),
            ((1, 1, 0), (0, 1, 0)),
        }

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
    def test_acyclic(self, fix, request):
        q = request.getfixturevalue(fix)
        order = ar_linear_order(q)  # raises if no topological order exists
        pos = {r: i for i, r in enumerate(order)}
        for a, b in ar_quiver(q):
            assert pos[a] < pos[b]

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
    def test_mesh_relation(self, fix, request):
        """Predecessors of a non-projective equal successors of its translate."""
        q = request.getfixturevalue(fix)
        edges = ar_quiver(q)
        for r in positive_roots(q):
            t = tau(q, r)
            if t is None:
                continue
            preds = sorted(a for a, b in edges if b == r)
            succs = sorted(b for a, b in edges if a == t)
            assert preds == succs

    def test_dot_output(self, a2):
        dot = ar_dot(a2)
        assert dot.startswith("digraph") and '"[1, 0]" -> "[1, 1]"' in dot


def test_representation_json(a2):
    m = indecomposable(a2, (1, 1))
    doc = json.loads(m.to_json())
    assert doc["dims"] == [1, 1]
    assert doc["field"] == "Q"
    assert doc["maps"]["0"] == [[1]]


def test_representation_shape_validation(a2):
    with pytest.raises(ValueError):
        Representation(a2, QQ, (1,), ())


def clear_oracle_caches():
    replab._indecomposable_hom_basis.cache_clear()
    replab.indecomposable.cache_clear()


def decompose_and_gen(q, field):
    """decompose on every sum of at most two indecomposables and gen on every
    support tilting object, all over `field`."""
    roots = positive_roots(q)
    sums = [
        direct_sum([indecomposable(q, r, field) for r in c])
        for k in (1, 2)
        for c in itertools.combinations_with_replacement(roots, k)
    ]
    return (
        [decompose(q, m) for m in sums],
        [gen(q, s, field) for s in enumerate_support_tilting(q)],
    )


@pytest.mark.parametrize("first,second", [(QQ, GF2), (GF2, QQ)])
@pytest.mark.parametrize("fix", ["a3", "d4"])
def test_hom_basis_cache_keeps_fields_apart(fix, first, second, request):
    q = request.getfixturevalue(fix)
    fresh = {}
    for field in (first, second):
        clear_oracle_caches()
        fresh[field] = decompose_and_gen(q, field)
    clear_oracle_caches()
    assert decompose_and_gen(q, first) == fresh[first]
    assert decompose_and_gen(q, second) == fresh[second]
    roots = positive_roots(q)
    for field in (first, second):
        for a, b in itertools.product(roots, roots):
            basis = replab._indecomposable_hom_basis(q, a, b, field)
            assert basis.source == indecomposable(q, a, field)
            assert basis.target == indecomposable(q, b, field)
            assert len(basis) == hom_dim_roots(q, a, b)


@pytest.mark.parametrize("fix", ["a3", "d4"])
def test_gen_does_not_depend_on_the_field(fix, request):
    q = request.getfixturevalue(fix)
    for s in enumerate_support_tilting(q):
        assert gen(q, s, GF2) == gen(q, s, QQ), sorted(s)


@pytest.mark.parametrize("fix", ["a3", "d4"])
def test_subrep_dimvector_cache_keeps_caps_and_fields_apart(fix, request):
    """One entry per representation and cap: the same root over GF(2) and
    GF(3), or under two caps, never shares an entry, every entry equals the
    uncached enumeration, and a refusal under a small cap is not cached."""
    q = request.getfixturevalue(fix)
    uncached = subrep_dimvectors.__wrapped__
    roots = positive_roots(q)
    top = max(roots, key=sum)
    subrep_dimvectors.cache_clear()
    with pytest.raises(OracleCapError):
        subrep_dimvectors(indecomposable(q, top, GF2), sum(top) - 1)
    for cap in (sum(top), 12):
        for field in (GF2, GF3):
            for r in roots:
                m = indecomposable(q, r, field)
                assert subrep_dimvectors(m, cap) == uncached(m, cap), (cap, field, r)
    # a simple root's representation has the same entries over both fields
    assert subrep_dimvectors.cache_info().currsize == 2 * 2 * len(roots)


def test_decompose_and_gen_caches_match_fresh_results(a3):
    """Cached answers equal those computed with the caches cleared, and a
    representation over QQ and the same matrices over GF2 are different
    keys: Fraction(1) == 1, so only the field tells them apart."""
    roots = positive_roots(a3)
    reps = [direct_sum([indecomposable(a3, a, f), indecomposable(a3, b, f)])
            for f in (QQ, GF2) for a in roots for b in roots]
    sets = [frozenset(roots[:k]) for k in range(len(roots) + 1)]

    def answers():
        return ([decompose(a3, m) for m in reps],
                [gen(a3, s, f) for s in sets for f in (QQ, GF2)])

    cached = answers()
    assert answers() == cached
    decompose.cache_clear()
    replab._gen.cache_clear()
    assert answers() == cached

    qq, gf2 = simple_rep(a3, 1, QQ), simple_rep(a3, 1, GF2)
    assert qq.dims == gf2.dims and qq != gf2
    decompose.cache_clear()
    decompose(a3, qq), decompose(a3, gf2)
    assert decompose.cache_info().misses == 2
    replab._gen.cache_clear()
    gen(a3, sets[1], QQ), gen(a3, sets[1], GF2)
    assert replab._gen.cache_info().misses == 2


def test_gen_checks_roots_before_the_cache(a3):
    gen(a3, frozenset({(1, 0, 0)}))
    with pytest.raises(ValueError, match="not positive roots"):
        gen(a3, frozenset({(1, 0, 0), (2, 0, 0)}))


def test_subspaces_of_one_dimension_vector(a3):
    m = direct_sum([indecomposable(a3, (1, 1, 1), GF2), indecomposable(a3, (0, 1, 0), GF2)])
    every = replab.subrepresentation_subspaces(m)
    for dims in {tuple(len(rows) for rows in sub) for sub in every} | {(1, 2, 1), (2, 0, 0)}:
        assert replab.subrepresentation_subspaces(m, dims=dims) == [
            sub for sub in every if tuple(len(rows) for rows in sub) == dims]
