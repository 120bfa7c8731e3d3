import itertools

import pytest

from quivernc import (
    GroupElement,
    braid_act,
    cc_rep,
    cc_shift,
    complete_exceptional_sequences,
    complete_support_tilting,
    cover_criterion_check,
    cox_of_wide,
    coxeter_element,
    enumerate_torsion_classes,
    ext_projectives,
    is_c_sortable,
    is_exceptional_sequence,
    nc_of_torsion,
    positive_roots,
    reading_cl,
    reading_nc,
    reflection,
    rs_check,
    simple_reflection,
    sortable_of_torsion,
    torsion_of_sortable,
    upper_indecs,
    word_to_element,
)
from quivernc.latt import absolute_length, absolute_leq, noncrossing_partitions, weyl_group
from quivernc.ncmap import braid_orbit, initial_letters
from quivernc.quiver import coxeter_element_word
from quivernc.tors import a_of, wide_simples


def s(q, *word):
    return word_to_element(q, word)


class TestCoxOfWide:
    def test_whole_category(self, a2, a3):
        for q in (a2, a3):
            assert cox_of_wide(q, frozenset(positive_roots(q))) == coxeter_element(q)

    def test_singleton(self, a2):
        assert cox_of_wide(a2, frozenset({(1, 1)})) == reflection(a2, (1, 1))

    def test_empty(self, a2):
        assert cox_of_wide(a2, frozenset()) == GroupElement.identity(2)

    def test_independent_of_exceptional_order(self, a2, a3):
        from quivernc.quiver import ext_dim_roots, hom_dim_roots

        for q in (a2, a3):
            for t in enumerate_torsion_classes(q):
                wide = a_of(q, t)
                simples = wide_simples(q, wide)
                target = cox_of_wide(q, wide)
                for perm in itertools.permutations(simples):
                    ok = all(
                        hom_dim_roots(q, perm[j], perm[i]) == 0
                        and ext_dim_roots(q, perm[j], perm[i]) == 0
                        for i in range(len(perm))
                        for j in range(i + 1, len(perm))
                    )
                    if ok:
                        prod = GroupElement.identity(q.n)
                        for r in perm:
                            prod = prod * reflection(q, r)
                        assert prod == target


class TestNCOfTorsion:
    def test_a2_all_five(self, a2):
        expected = {
            frozenset(): GroupElement.identity(2),
            frozenset({(1, 0)}): simple_reflection(a2, 1),
            frozenset({(0, 1)}): simple_reflection(a2, 2),
            frozenset({(0, 1), (1, 1)}): reflection(a2, (1, 1)),
            frozenset(positive_roots(a2)): coxeter_element(a2),
        }
        for t, w in expected.items():
            assert nc_of_torsion(a2, t) == w

    @pytest.mark.parametrize("fix,count", [("a3", 14), ("a4", 42), ("d4", 50)])
    def test_bijection_onto_nc(self, fix, count, request):
        q = request.getfixturevalue(fix)
        image = {nc_of_torsion(q, t) for t in enumerate_torsion_classes(q)}
        assert len(image) == count
        assert image == set(noncrossing_partitions(q).payloads)

    def test_order_isomorphism_on_wides(self, a3):
        classes = enumerate_torsion_classes(a3)
        for t1 in classes:
            for t2 in classes:
                assert (a_of(a3, t1) <= a_of(a3, t2)) == absolute_leq(
                    a3, nc_of_torsion(a3, t1), nc_of_torsion(a3, t2)
                )

    def test_absolute_length_is_rank_of_wide(self, a3):
        for t in enumerate_torsion_classes(a3):
            assert absolute_length(a3, nc_of_torsion(a3, t)) == len(
                wide_simples(a3, a_of(a3, t))
            )


class TestSortableTorsion:
    def test_empty_class(self, a2):
        assert sortable_of_torsion(a2, frozenset()) == GroupElement.identity(2)

    def test_a2_examples(self, a2):
        assert sortable_of_torsion(a2, frozenset({(0, 1), (1, 1)})) == s(a2, 2, 1)
        assert sortable_of_torsion(a2, frozenset(positive_roots(a2))) == s(a2, 2, 1, 2)

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
    def test_mutually_inverse(self, fix, request):
        q = request.getfixturevalue(fix)
        cword = coxeter_element_word(q)
        for t in enumerate_torsion_classes(q):
            w = sortable_of_torsion(q, t)
            assert is_c_sortable(q, w, cword)
            assert torsion_of_sortable(q, w) == t

    def test_non_sortable_rejected(self, a2):
        with pytest.raises(ValueError):
            torsion_of_sortable(a2, s(a2, 1, 2))

    def test_non_torsion_rejected(self, a2):
        with pytest.raises(ValueError):
            sortable_of_torsion(a2, frozenset({(1, 1)}))


class TestReading:
    def test_nc_base_case(self, a2):
        assert reading_nc(a2, GroupElement.identity(2), (2, 1)).is_identity()

    def test_nc_example(self, a2):
        assert reading_nc(a2, s(a2, 2, 1), (2, 1)) == reflection(a2, (1, 1))

    def test_nc_longest(self, a2):
        assert reading_nc(a2, s(a2, 2, 1, 2), (2, 1)) == coxeter_element(a2)

    def test_cl_base_case(self, a2):
        assert reading_cl(a2, GroupElement.identity(2), (2, 1)) == frozenset()

    def test_cl_examples(self, a2):
        assert reading_cl(a2, simple_reflection(a2, 2), (2, 1)) == {(0, 1)}
        assert reading_cl(a2, s(a2, 2, 1, 2), (2, 1)) == {(1, 0), (1, 1)}

    def test_non_sortable_rejected(self, a2):
        with pytest.raises(ValueError):
            reading_nc(a2, s(a2, 1, 2), (2, 1))
        with pytest.raises(ValueError):
            reading_cl(a2, s(a2, 1, 2), (2, 1))

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_coincidence_with_composite_maps(self, fix, request):
        q = request.getfixturevalue(fix)
        cword = coxeter_element_word(q)
        for w in weyl_group(q):
            if not is_c_sortable(q, w, cword):
                continue
            t = torsion_of_sortable(q, w)
            assert reading_nc(q, w, cword) == nc_of_torsion(q, t)
            assert reading_cl(q, w, cword) == ext_projectives(q, t)


class TestExceptionalSequences:
    def test_simples_in_arrow_order(self, a3):
        assert is_exceptional_sequence(a3, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))

    def test_wrong_order_fails(self, a2):
        assert not is_exceptional_sequence(a2, ((1, 0), (0, 1)))
        assert is_exceptional_sequence(a2, ((0, 1), (1, 0)))

    def test_single(self, a3):
        assert is_exceptional_sequence(a3, ((1, 1, 1),))

    @pytest.mark.parametrize("fix,count", [("a1", 1), ("a2", 3), ("a3", 16)])
    def test_counts(self, fix, count, request):
        q = request.getfixturevalue(fix)
        assert len(complete_exceptional_sequences(q)) == count

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_products_equal_cox(self, fix, request):
        q = request.getfixturevalue(fix)
        cox = coxeter_element(q)
        for seq in complete_exceptional_sequences(q):
            prod = GroupElement.identity(q.n)
            for r in seq:
                prod = prod * reflection(q, r)
            assert prod == cox

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_single_braid_orbit(self, fix, request):
        q = request.getfixturevalue(fix)
        seqs = complete_exceptional_sequences(q)
        assert braid_orbit(q, seqs[0]) == frozenset(seqs)


class TestBraidAction:
    def test_a2_example(self, a2):
        assert braid_act(a2, 1, ((0, 1), (1, 0))) == ((1, 0), (1, 1))

    def test_inverse(self, a3):
        for seq in complete_exceptional_sequences(a3):
            for i in (1, 2):
                assert braid_act(a3, i, braid_act(a3, i, seq), "-") == seq
                assert braid_act(a3, i, braid_act(a3, i, seq, "-")) == seq

    def test_braid_relation(self, a3):
        for seq in complete_exceptional_sequences(a3):
            lhs = braid_act(a3, 1, braid_act(a3, 2, braid_act(a3, 1, seq)))
            rhs = braid_act(a3, 2, braid_act(a3, 1, braid_act(a3, 2, seq)))
            assert lhs == rhs

    def test_commuting_relation_far_apart(self, a4):
        seq = next(iter(complete_exceptional_sequences(a4)))
        assert braid_act(a4, 1, braid_act(a4, 3, seq)) == braid_act(
            a4, 3, braid_act(a4, 1, seq)
        )

    def test_position_out_of_range(self, a2):
        with pytest.raises(ValueError):
            braid_act(a2, 2, ((0, 1), (1, 0)))


class TestRSFixedSpace:
    def test_kq_completion(self, a2):
        t = complete_support_tilting(a2, frozenset({(1, 0), (1, 1)}))
        report = rs_check(a2, t)
        assert report.passed
        assert set(report.upper) == {cc_rep((1, 0)), cc_rep((1, 1))}
        assert report.fixed_space == ()

    def test_partial_support(self, a2):
        t = complete_support_tilting(a2, frozenset({(0, 1)}))
        report = rs_check(a2, t)
        assert report.passed
        assert set(report.upper) == {cc_rep((0, 1))}

    def test_all_shifts(self, a2):
        t = frozenset({cc_shift(1), cc_shift(2)})
        report = rs_check(a2, t)
        assert report.passed
        assert report.upper == ()
        assert len(report.fixed_space) == 2

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_all_cluster_tiltings(self, fix, request):
        from quivernc import cluster_tilting_objects

        q = request.getfixturevalue(fix)
        for t in cluster_tilting_objects(q):
            assert rs_check(q, t).passed

    def test_upper_equals_split_projectives(self, a3, d4):
        """The upper summands, read off the split projectives of Gen T, are
        the summands whose mutation strictly shrinks Gen."""
        from quivernc import cluster_tilting_objects, gen_of, mutate, split_projectives

        for q in (a3, d4):
            for t in cluster_tilting_objects(q):
                genT = gen_of(q, t)
                ups = upper_indecs(q, t)
                assert ups == {x for x in t if gen_of(q, mutate(q, t, x)) < genT}
                assert {x.root for x in ups} == split_projectives(q, genT)


class TestCoverCriterion:
    def test_initial_letters(self, a3):
        assert set(initial_letters(a3, (2, 1, 3))) == {2}
        assert set(initial_letters(a3, (1, 3, 2))) == {1, 3}

    def test_a2_applicable_case(self, a2):
        report = cover_criterion_check(a2, frozenset({(0, 1)}), (2, 1))
        assert report.passed and report.applicable == (2,)

    def test_a2_negative_case(self, a2):
        report = cover_criterion_check(a2, frozenset({(0, 1), (1, 1)}), (2, 1))
        assert report.passed  # both sides false for s2

    def test_vacuous_case(self, a2):
        report = cover_criterion_check(a2, frozenset({(1, 0)}), (2, 1))
        assert report.passed and 2 in report.not_applicable

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_all_classes(self, fix, request):
        q = request.getfixturevalue(fix)
        cword = coxeter_element_word(q)
        for t in enumerate_torsion_classes(q):
            assert cover_criterion_check(q, t, cword).passed
