import os
import subprocess
import sys
from pathlib import Path

import pytest

import quivernc
from latt_reference import absolute_leq, weyl_group
from quivernc import (
    GroupElement,
    cover_reflections,
    coxeter_element,
    fixed_space,
    inversion_set,
    is_c_sortable,
    length_S,
    positive_roots,
    reading_nc,
    reflection,
    simple_reflection,
    word_to_element,
)
from quivernc.cli import _word_str
from quivernc.fields import int_echelon, int_in_span
from quivernc.latt import absolute_length, c_sortable_elements, noncrossing_partitions
from quivernc.verify import min_deletions_to_identity
from quivernc.weyl import reduced_word


def s(q, *word):
    return word_to_element(q, word)


class TestReflection:
    def test_negates_own_root(self, a2):
        for v in positive_roots(a2):
            assert reflection(a2, v).apply(v) == tuple(-x for x in v)

    def test_a2_substitution(self, a2):
        assert reflection(a2, (0, 1)).apply((1, 0)) == (1, 1)

    def test_involution(self, a3):
        for v in positive_roots(a3):
            r = reflection(a3, v)
            assert (r * r).is_identity()

    def test_fixes_perp(self, a2):
        # (e1+e2, e1-e2) = 0 for A2, so s_{(1,1)} fixes e1-e2
        assert reflection(a2, (1, 1)).apply((1, -1)) == (1, -1)

    def test_non_root_rejected(self, a2):
        with pytest.raises(ValueError):
            reflection(a2, (1, -1))
        with pytest.raises(ValueError):
            reflection(a2, (2, 0))

    def test_preserves_form(self, a3):
        from quivernc import symmetrized_form

        for v in positive_roots(a3):
            w = reflection(a3, v)
            for a in positive_roots(a3):
                for b in positive_roots(a3):
                    assert symmetrized_form(a3, w.apply(a), w.apply(b)) == symmetrized_form(a3, a, b)


class TestInversions:
    def test_identity(self, a2):
        assert inversion_set(a2, GroupElement.identity(2)) == frozenset()

    def test_s2s1(self, a2):
        assert inversion_set(a2, s(a2, 2, 1)) == {(0, 1), (1, 1)}

    def test_longest_element(self, a2):
        w0 = s(a2, 2, 1, 2)
        assert inversion_set(a2, w0) == set(positive_roots(a2))

    def test_length_equals_inversions(self, a3):
        for w in weyl_group(a3):
            assert length_S(a3, w) == len(inversion_set(a3, w))
        assert length_S(a3, GroupElement.identity(3)) == 0
        assert length_S(a3, simple_reflection(a3, 2)) == 1
        assert length_S(a3, s(a3, 2, 1)) == 2


class TestAbsoluteLength:
    def test_basics(self, a2, a3):
        assert absolute_length(a2, GroupElement.identity(2)) == 0
        for v in positive_roots(a3):
            assert absolute_length(a3, reflection(a3, v)) == 1
        assert absolute_length(a3, coxeter_element(a3)) == 3

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_carter_dyer_crosscheck(self, fix, request):
        """n - dim fix(w) equals the exhaustive Dyer deletion count."""
        q = request.getfixturevalue(fix)
        for w in weyl_group(q):
            assert absolute_length(q, w) == min_deletions_to_identity(q, reduced_word(q, w))

    def test_fixed_space_dims(self, a3):
        assert len(fixed_space(a3, GroupElement.identity(3))) == 3
        for v in positive_roots(a3):
            assert len(fixed_space(a3, reflection(a3, v))) == 2
        assert fixed_space(a3, coxeter_element(a3)) == ()


class TestAbsoluteOrder:
    def test_identity_below_everything(self, a2):
        e = GroupElement.identity(2)
        for w in weyl_group(a2):
            assert absolute_leq(a2, e, w)

    def test_a2_examples(self, a2):
        cox = s(a2, 2, 1)
        assert absolute_leq(a2, simple_reflection(a2, 2), cox)
        assert not absolute_leq(a2, cox, simple_reflection(a2, 2))

    def test_triangle_inequality_with_nc_membership(self, a3):
        cox = coxeter_element(a3)
        nc = set(noncrossing_partitions(a3).payloads)
        lc = absolute_length(a3, cox)
        for w in weyl_group(a3):
            total = absolute_length(a3, w) + absolute_length(a3, w.inverse() * cox)
            assert total >= lc
            assert (total == lc) == (w in nc)


class TestNCPoset:
    def test_a1(self, a1):
        assert len(noncrossing_partitions(a1)) == 2

    def test_a2_elements(self, a2):
        nc = noncrossing_partitions(a2)
        assert len(nc) == 5
        expected = {
            GroupElement.identity(2),
            simple_reflection(a2, 1),
            simple_reflection(a2, 2),
            reflection(a2, (1, 1)),
            coxeter_element(a2),
        }
        assert set(nc.payloads) == expected

    def test_counts(self, a3, a4, d4):
        assert len(noncrossing_partitions(a3)) == 14
        assert len(noncrossing_partitions(a4)) == 42
        assert len(noncrossing_partitions(d4)) == 50

    def test_every_length_one_element_is_reflection(self, a2, a3):
        for q in (a2, a3):
            refl = {reflection(q, v) for v in positive_roots(q)}
            nc = noncrossing_partitions(q)
            length_one = {w for w in nc.payloads if absolute_length(q, w) == 1}
            assert length_one <= refl
        assert {w for w in noncrossing_partitions(a2).payloads
                if absolute_length(a2, w) == 1} == {reflection(a2, v) for v in positive_roots(a2)}

    def test_fixed_space_reverse_inclusion(self, a3):
        nc = noncrossing_partitions(a3)
        for i, u in enumerate(nc.payloads):
            for j, v in enumerate(nc.payloads):
                if nc.up[i] >> j & 1:
                    fu, fv = fixed_space(a3, u), fixed_space(a3, v)
                    echelon, pivots = int_echelon(fu)
                    assert all(int_in_span(echelon, pivots, row) for row in fv)

    def test_covers(self, a2):
        """e below each of the three reflections, each below cox(Q)."""
        nc = noncrossing_partitions(a2)
        e, cox = nc.payloads.index(GroupElement.identity(2)), nc.payloads.index(coxeter_element(a2))
        assert sorted(nc.covers()) == sorted(
            pair for r in range(len(nc)) if r not in (e, cox) for pair in ((e, r), (r, cox))
        )


class TestSortable:
    def test_identity_always_sortable(self, a3):
        assert is_c_sortable(a3, GroupElement.identity(3), (2, 1, 3))

    def test_a2_sortables(self, a2):
        c = (2, 1)
        sortable = {w for w in weyl_group(a2) if is_c_sortable(a2, w, c)}
        assert sortable == {
            GroupElement.identity(2),
            simple_reflection(a2, 1),
            simple_reflection(a2, 2),
            s(a2, 2, 1),
            s(a2, 2, 1, 2),
        }
        assert not is_c_sortable(a2, s(a2, 1, 2), c)

    @pytest.mark.parametrize(
        "fix,count", [("a2", 5), ("a3", 14), ("a4", 42), ("d4", 50)]
    )
    def test_counts_match_nc(self, fix, count, request):
        q = request.getfixturevalue(fix)
        from quivernc.quiver import coxeter_element_word

        c = coxeter_element_word(q)
        assert sum(is_c_sortable(q, w, c) for w in weyl_group(q)) == count
        assert len(noncrossing_partitions(q)) == count

    def test_invalid_word(self, a2, a3):
        with pytest.raises(ValueError):
            is_c_sortable(a2, GroupElement.identity(2), (1, 1))
        with pytest.raises(ValueError):
            is_c_sortable(a2, GroupElement.identity(2), (3,))
        e = GroupElement.identity(3)
        for word in [(1.0, 2, 3), (True, 2, 3), ("1", 2, 3)]:  # letters are ints, not bools
            with pytest.raises(ValueError):
                is_c_sortable(a3, e, word)
            with pytest.raises(ValueError):
                reading_nc(a3, e, word)
            with pytest.raises(ValueError):
                list(c_sortable_elements(a3, word))


class TestCoverReflections:
    def test_identity(self, a2):
        assert cover_reflections(a2, GroupElement.identity(2)) == frozenset()

    def test_s2s1(self, a2):
        assert cover_reflections(a2, s(a2, 2, 1)) == {reflection(a2, (1, 1))}

    def test_longest(self, a2):
        w0 = s(a2, 2, 1, 2)
        assert cover_reflections(a2, w0) == {
            simple_reflection(a2, 1),
            simple_reflection(a2, 2),
        }


def test_group_sizes(a2, a3, a4, d4):
    assert len(weyl_group(a2)) == 6
    assert len(weyl_group(a3)) == 24
    assert len(weyl_group(a4)) == 120
    assert len(weyl_group(d4)) == 192


def test_element_repr(a2):
    assert _word_str(reduced_word(a2, GroupElement.identity(2))) == "e"
    assert _word_str(reduced_word(a2, simple_reflection(a2, 2))) == "s2"


def test_inverse_integrality(a3):
    for w in weyl_group(a3):
        assert (w * w.inverse()).is_identity()


@pytest.mark.parametrize("v", [0, -1, 4, True, 1.0, "1"])
def test_simple_reflection_rejects_non_vertices(a3, v):
    with pytest.raises(ValueError, match="no simple reflection"):
        simple_reflection(a3, v)


def test_sorting_words_refuse_a_partial_word():
    """Passes over a word that lacks a letter never strip that letter, so
    they would run forever: a partial word is refused before the walk. The
    calls run in a child process, whose timeout turns a hang into a failure."""
    code = (
        "from quivernc import parse_quiver, simple_reflection\n"
        "from quivernc.weyl import c_sorting_word, sorting_word_of_inversion_set\n"
        "q = parse_quiver('vertices 3\\narrow 2 1\\narrow 2 3')\n"
        "for call in (lambda: sorting_word_of_inversion_set(q, frozenset({(1, 0, 0)}), (2, 3)),\n"
        "             lambda: c_sorting_word(q, simple_reflection(q, 1), (2, 3))):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["c-sorting needs a full Coxeter word"] * 2
