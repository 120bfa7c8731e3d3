import json

import pytest

from quivernc import (
    cc_ext_orthogonal,
    cc_rep,
    cc_shift,
    cluster_tilting_objects,
    complete_support_tilting,
    enumerate_support_tilting,
    gen_of,
    mutate,
    support_tilting_of,
)
from quivernc.cli import _emit_object
from quivernc.cluster import CCIndec, all_cc_indecs


class TestOrthogonality:
    def test_shift_shift_always(self, a2):
        assert cc_ext_orthogonal(a2, cc_shift(1), cc_shift(2))

    def test_shift_rep_uses_hom_from_projective(self, a2):
        assert not cc_ext_orthogonal(a2, cc_shift(1), cc_rep((1, 0)))
        assert cc_ext_orthogonal(a2, cc_shift(1), cc_rep((0, 1)))

    def test_rep_rep_needs_ext_both_ways(self, a2):
        assert not cc_ext_orthogonal(a2, cc_rep((1, 0)), cc_rep((0, 1)))
        assert cc_ext_orthogonal(a2, cc_rep((1, 1)), cc_rep((0, 1)))

    def test_symmetric(self, a3):
        items = all_cc_indecs(a3)
        for x in items:
            for y in items:
                assert cc_ext_orthogonal(a3, x, y) == cc_ext_orthogonal(a3, y, x)


class TestEnumeration:
    def test_a1(self, a1):
        cts = cluster_tilting_objects(a1)
        assert set(cts) == {frozenset({cc_rep((1,))}), frozenset({cc_shift(1)})}

    @pytest.mark.parametrize(
        "fix,count", [("a2", 5), ("a3", 14), ("a4", 42), ("d4", 50)]
    )
    def test_counts(self, fix, count, request):
        q = request.getfixturevalue(fix)
        cts = cluster_tilting_objects(q)
        assert len(cts) == count
        for t in cts:
            assert len(t) == q.n
            for x in t:
                for y in t:
                    assert cc_ext_orthogonal(q, x, y)

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
    def test_completion_bijection(self, fix, request):
        q = request.getfixturevalue(fix)
        cts = set(cluster_tilting_objects(q))
        seen = set()
        for c in enumerate_support_tilting(q):
            t = complete_support_tilting(q, c)
            assert t in cts
            assert support_tilting_of(t) == c
            seen.add(t)
        assert seen == cts


class TestCompletion:
    def test_empty(self, a2):
        assert complete_support_tilting(a2, frozenset()) == {cc_shift(1), cc_shift(2)}

    def test_partial_support(self, a2):
        assert complete_support_tilting(a2, frozenset({(0, 1)})) == {
            cc_rep((0, 1)),
            cc_shift(1),
        }

    def test_full_support(self, a2):
        assert complete_support_tilting(a2, frozenset({(1, 1), (0, 1)})) == {
            cc_rep((1, 1)),
            cc_rep((0, 1)),
        }

    def test_rejects_non_support_tilting(self, a2):
        with pytest.raises(ValueError):
            complete_support_tilting(a2, frozenset({(1, 1)}))


class TestMutation:
    def test_a2_examples(self, a2):
        t = frozenset({cc_rep((1, 1)), cc_rep((0, 1))})
        assert mutate(a2, t, cc_rep((0, 1))) == {cc_rep((1, 1)), cc_rep((1, 0))}
        t2 = frozenset({cc_rep((0, 1)), cc_shift(1)})
        assert mutate(a2, t2, cc_shift(1)) == {cc_rep((0, 1)), cc_rep((1, 1))}

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_involution_and_neighbor_count(self, fix, request):
        q = request.getfixturevalue(fix)
        for t in cluster_tilting_objects(q):
            neighbors = set()
            for x in t:
                v = mutate(q, t, x)
                assert v != t
                y = next(z for z in v if z not in t)
                assert mutate(q, v, y) == t
                neighbors.add(v)
            assert len(neighbors) == q.n

    def test_not_a_summand(self, a2):
        t = frozenset({cc_rep((1, 1)), cc_rep((0, 1))})
        with pytest.raises(ValueError):
            mutate(a2, t, cc_shift(1))

    def test_summand_of_another_quiver(self, a2):
        t = frozenset({cc_rep((1, 1)), cc_rep((0, 1)), cc_shift(3)})
        with pytest.raises(ValueError, match="indecomposables of the quiver"):
            mutate(a2, t, cc_rep((0, 1)))


class TestGenOrder:
    def test_all_shifts_is_minimum(self, a2):
        bottom = frozenset({cc_shift(1), cc_shift(2)})
        assert gen_of(a2, bottom) == frozenset()
        for t in cluster_tilting_objects(a2):
            assert gen_of(a2, bottom) <= gen_of(a2, t)

    def test_gen_of_example(self, a2):
        t = frozenset({cc_rep((1, 1)), cc_rep((0, 1))})
        assert gen_of(a2, t) == {(1, 1), (0, 1)}

    def test_gen_leq_example(self, a2):
        t1 = frozenset({cc_rep((1, 1)), cc_rep((0, 1))})
        t2 = frozenset({cc_rep((1, 1)), cc_rep((1, 0))})
        assert gen_of(a2, t1) < gen_of(a2, t2)


def test_ccindec_validation():
    with pytest.raises(ValueError):
        CCIndec(root=(1, 0), shift=1)
    with pytest.raises(ValueError):
        CCIndec()


def test_cluster_json(a2):
    t = frozenset({cc_rep((0, 1)), cc_shift(1)})
    doc = json.loads(_emit_object(a2, "cluster", t))
    assert doc == {"summands": [{"rep": [0, 1]}, {"shift": 1}]}
