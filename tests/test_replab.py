import itertools

import pytest

import field_reference

from quivernc import (
    OracleCapError,
    ar_quiver,
    euler_form,
    positive_roots,
    tau,
)
from quivernc.fields import gf2_rank, pack
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
    cocycle count minus the GF(2) rank of the explicit coboundary matrix.
    """
    q = m.quiver
    cocycle_dim = sum(m.dims[s - 1] * n.dims[t - 1] for s, t in q.arrows)
    rows = []
    for v in range(q.n):
        for i in range(n.dims[v]):
            for j in range(m.dims[v]):
                h = [[[0] * m.dims[u] for _ in range(n.dims[u])] for u in range(q.n)]
                h[v][i][j] = 1
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
                            image.append((lhs - rhs) % 2)
                rows.append(pack(image))
    return cocycle_dim - gf2_rank(rows)


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
        injective_rep = field_reference.injective_rep
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

    def test_hom_basis_elements_commute(self, a3):
        m = indecomposable(a3, (1, 1, 1))
        n = indecomposable(a3, (1, 1, 0))
        basis = hom_basis(m, n)

        def mat_mul(a, b):
            return [[sum(x * y for x, y in zip(row, col)) % 2 for col in zip(*b)] for row in a]

        for phi in basis.elements:
            for k, (s, t) in enumerate(a3.arrows):
                assert mat_mul(phi[t - 1], m.maps[k]) == mat_mul(n.maps[k], phi[s - 1])


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
            mq = field_reference.indecomposable(a3, r)
            for x in roots:
                assert hom_dim(indecomposable(a3, x), indecomposable(a3, r)) == (
                    field_reference.hom_dim(field_reference.indecomposable(a3, x), mq))


class TestSubrepresentations:
    def test_simple(self, a2):
        assert subrep_dimvectors(simple_rep(a2, 1)) == {(0, 0), (1, 0)}

    def test_a2_indecomposable(self, a2):
        m = indecomposable(a2, (1, 1))
        assert subrep_dimvectors(m) == {(0, 0), (1, 0), (1, 1)}

    def test_a3_indecomposable(self, a3):
        m = indecomposable(a3, (1, 1, 1))
        assert subrep_dimvectors(m) == {
            (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1),
        }

    def test_cap(self, a2):
        m = direct_sum([indecomposable(a2, (1, 1))] * 7)
        with pytest.raises(OracleCapError):
            subrep_dimvectors(m)


class TestDecompose:
    def test_sum_of_simples(self, a2):
        m = direct_sum([simple_rep(a2, 1), simple_rep(a2, 1)])
        assert decompose(a2, m) == ((1, 0), (1, 0))

    def test_quotient_of_p2_by_socle(self, a3):
        from quivernc.replab import quotient_representation, subrepresentation_subspaces

        m = indecomposable(a3, (1, 1, 1))
        sub = next(
            s
            for s in subrepresentation_subspaces(m)
            if tuple(len(rows) for rows in s) == (1, 0, 1)
        )
        assert decompose(a3, quotient_representation(m, sub)) == ((0, 1, 0),)

    def test_nonsplit_extension_is_indecomposable(self, a2):
        assert decompose(a2, indecomposable(a2, (1, 1))) == ((1, 1),)

    def test_zero(self, a2):
        from quivernc.replab import zero_rep

        assert decompose(a2, zero_rep(a2)) == ()


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


def test_representation_shape_validation(a2):
    with pytest.raises(ValueError):
        Representation(a2, (1,), ())


def decompose_and_gen(q):
    """decompose on every sum of at most two indecomposables and gen on every
    support tilting object."""
    roots = positive_roots(q)
    sums = [
        direct_sum([indecomposable(q, r) for r in c])
        for k in (1, 2)
        for c in itertools.combinations_with_replacement(roots, k)
    ]
    return (
        [decompose(q, m) for m in sums],
        [gen(q, s) for s in enumerate_support_tilting(q)],
    )


@pytest.mark.parametrize("fix", ["a3", "a4", "d4"])
def test_gen_does_not_depend_on_the_field(fix, request):
    """The GF(2) oracle's Gen equals the one traced over Q."""
    q = request.getfixturevalue(fix)
    for s in enumerate_support_tilting(q):
        assert gen(q, s) == field_reference.gen(q, s), sorted(s)


@pytest.mark.parametrize("fix", ["a3", "d4"])
def test_subrep_dimvector_cache_keeps_caps_apart(fix, request):
    """One entry per representation and cap: the same root under two caps
    never shares an entry, every entry equals the uncached enumeration, and
    a refusal under a small cap is not cached."""
    q = request.getfixturevalue(fix)
    uncached = subrep_dimvectors.__wrapped__
    roots = positive_roots(q)
    top = max(roots, key=sum)
    subrep_dimvectors.cache_clear()
    with pytest.raises(OracleCapError):
        subrep_dimvectors(indecomposable(q, top), sum(top) - 1)
    for cap in (sum(top), 12):
        for r in roots:
            m = indecomposable(q, r)
            assert subrep_dimvectors(m, cap) == uncached(m, cap), (cap, r)
    assert subrep_dimvectors.cache_info().currsize == 2 * len(roots)


def test_decompose_and_gen_caches_match_fresh_results(a3, d4):
    """Cached answers equal those computed with every oracle cache cleared,
    and each Hom basis in the cache runs between the cached indecomposables."""
    for q in (a3, d4):
        cached = decompose_and_gen(q)
        assert decompose_and_gen(q) == cached
        for fn in (decompose, replab._gen, replab._trace_columns,
                   replab._indecomposable_hom_basis, indecomposable):
            fn.cache_clear()
        assert decompose_and_gen(q) == cached
        roots = positive_roots(q)
        for a, b in itertools.product(roots, roots):
            basis = replab._indecomposable_hom_basis(q, a, b)
            assert basis.source == indecomposable(q, a)
            assert basis.target == indecomposable(q, b)
            assert len(basis) == hom_dim_roots(q, a, b)


def test_gen_checks_roots_before_the_cache(a3):
    gen(a3, frozenset({(1, 0, 0)}))
    with pytest.raises(ValueError, match="not positive roots"):
        gen(a3, frozenset({(1, 0, 0), (2, 0, 0)}))


def test_subspaces_of_one_dimension_vector(a3):
    m = direct_sum([indecomposable(a3, (1, 1, 1)), indecomposable(a3, (0, 1, 0))])
    every = replab.subrepresentation_subspaces(m)
    for dims in {tuple(len(rows) for rows in sub) for sub in every} | {(1, 2, 1), (2, 0, 0)}:
        assert replab.subrepresentation_subspaces(m, dims=dims) == [
            sub for sub in every if tuple(len(rows) for rows in sub) == dims]
