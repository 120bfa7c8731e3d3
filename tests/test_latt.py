import json
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import field_reference
import latt_reference
from quivernc import enumerate_torsion_classes, parse_quiver, positive_roots
from quivernc.latt import (
    _is_left_modular,
    bounds,
    cambrian_poset,
    inclusion_poset,
    lattice_analyze,
    noncrossing_partitions,
    principal_torsion_classes,
    splitting_chain,
    torsion_join,
)
from quivernc.replab import is_torsion_class


D4_ROOTS = positive_roots(parse_quiver("vertices 4\narrow 2 1\narrow 2 3\narrow 2 4"))
D5 = "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5"
E6 = "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6"
TEXTS = {"d5": D5, "e6": E6}


def _quiver(name, request):
    """The quiver of TEXTS, or else the conftest fixture, of that name."""
    return parse_quiver(TEXTS[name]) if name in TEXTS else request.getfixturevalue(name)


def boolean_lattice_two_atoms():
    elems = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))
    return latt_reference.from_elements(elems, lambda a, b: a <= b)


class TestFinitePoset:
    @pytest.mark.parametrize("name", ["a1", "a2", "a3", "a3_linear", "a4", "d4", *TEXTS])
    @pytest.mark.parametrize("build", [noncrossing_partitions, cambrian_poset],
                             ids=["nc", "cambrian"])
    def test_builders_number_ids_along_the_order(self, build, name, request):
        """Every id above i is at least i, so `_minimal` records an element
        at each step."""
        p = build(_quiver(name, request))
        assert all(above >> i << i == above for i, above in enumerate(p.up))

    def test_validation(self):
        with pytest.raises(ValueError, match="reflexive"):
            latt_reference.from_elements((1, 2), lambda a, b: a == b == 2)
        with pytest.raises(ValueError, match="antisymmetric"):
            latt_reference.from_elements((1, 2), lambda a, b: True)
        with pytest.raises(ValueError, match="transitive"):
            latt_reference.from_elements((1, 2, 3), lambda a, b: b - a in (0, 1))

    def test_covers(self):
        p = boolean_lattice_two_atoms()
        assert set(p.covers()) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def _relation(n, flags):
    return tuple(tuple(flags[i * n + j] for j in range(n)) for i in range(n))


def _from_relation(n, leq):
    return latt_reference.from_elements(range(n), lambda i, j: leq[i][j])


def _closure(n, leq):
    """The reflexive and transitive closure (Floyd-Warshall)."""
    leq = [[leq[i][j] or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    return tuple(map(tuple, leq))


@st.composite
def posets(draw, max_size, bounded=False):
    """The relation of a random poset on up to max_size elements: random
    edges kept where they climb a random ranking, closed. When bounded, a
    new bottom and top go around it, at ids 0 and n + 1."""
    n = draw(st.integers(0, max_size))
    rank = draw(st.permutations(range(n)))
    edges = _relation(n, draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    leq = _closure(n, tuple(
        tuple(edges[i][j] and rank[i] < rank[j] for j in range(n)) for i in range(n)
    ))
    if bounded:
        leq = tuple(
            tuple(i == 0 or j == n + 1 or (0 < i <= n and 0 < j <= n and leq[i - 1][j - 1])
                  for j in range(n + 2))
            for i in range(n + 2)
        )
    return leq


@st.composite
def lattices(draw):
    """A random lattice: subsets of a set of up to four points, closed under
    intersection and holding the whole set, ordered by inclusion, in a
    random order of ids."""
    k = draw(st.integers(0, 4))
    family = {(1 << k) - 1} | set(draw(st.lists(st.integers(0, (1 << k) - 1), max_size=8)))
    while (more := {a & b for a in family for b in family} - family):
        family |= more
    elems = draw(st.permutations(sorted(family)))
    return latt_reference.from_elements(elems, lambda a, b: a & b == a)


class TestBitsetsAgainstListScans:
    """The bitset lattice layer against the definitions scanned pair by
    pair, on random posets with random ids: lattices and non-lattices."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(sets=st.lists(st.frozensets(st.sampled_from(D4_ROOTS), max_size=12),
                         max_size=12, unique=True))
    @example(sets=[])
    @example(sets=[frozenset()])
    def test_inclusion_poset_matches_from_elements(self, sets):
        """Random families of distinct root sets, the empty family and the
        empty set among them."""
        assert inclusion_poset(sets) == latt_reference.from_elements(sets, operator.le)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(leq=posets(7))
    def test_analysis_matches_on_random_posets(self, leq):
        self._check_analysis(leq)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(leq=posets(7, bounded=True))
    def test_analysis_matches_on_random_bounded_posets(self, leq):
        """Bounded, so the lattice test reaches its upper-cover joins, and
        fails there on the non-lattices."""
        self._check_analysis(leq)

    @staticmethod
    def _check_analysis(leq):
        n = len(leq)
        p = _from_relation(n, leq)
        assert p.down == tuple(sum(leq[i][j] << i for i in range(n)) for j in range(n))
        assert p.covers() == latt_reference.covers(p)
        assert latt_reference.as_tables(p, *bounds(p)) == latt_reference.bound_tables(p)
        assert lattice_analyze(p) == latt_reference.lattice_analyze(p)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(p=lattices())
    def test_left_modularity_on_covers_matches_all_pairs(self, p):
        covers = p.covers()
        assert [_is_left_modular(x, p, covers) for x in range(len(p))] == [
            latt_reference.is_left_modular(p, x) for x in range(len(p))]
        assert lattice_analyze(p) == latt_reference.lattice_analyze(p)


class TestLatticeAnalyze:
    def test_boolean_two_atoms(self):
        report = lattice_analyze(boolean_lattice_two_atoms())
        assert report.is_lattice
        assert len(report.join_irreducibles) == 2
        assert len(report.meet_irreducibles) == 2
        assert report.longest_chain == 2
        assert report.is_extremal and report.is_trim

    def test_pentagon_is_trim_but_not_distributive(self):
        # 0 < a < 1 and 0 < b < c < 1
        order = {
            (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 1), (1, 4),
            (2, 2), (2, 3), (2, 4),
            (3, 3), (3, 4),
            (4, 4),
        }
        p = latt_reference.from_elements((0, 1, 2, 3, 4), lambda a, b: (a, b) in order)
        report = lattice_analyze(p)
        assert report.is_lattice and report.is_trim
        assert report.longest_chain == 3

    def test_non_lattice(self):
        # two incomparable tops: no joins
        p = latt_reference.from_elements(
            (0, 1, 2, 3),
            lambda a, b: a == b or (a in (0,) and b in (2, 3)) or (a == 1 and b in (2, 3)),
        )
        assert not lattice_analyze(p).is_lattice

    def test_bounded_non_lattice(self):
        # 0 < a, b < c, d < 1: a and b have no join, c and d no meet
        height = {"0": 0, "a": 1, "b": 1, "c": 2, "d": 2, "1": 3}
        p = latt_reference.from_elements(
            tuple(height), lambda x, y: x == y or height[x] < height[y]
        )
        join, meet = bounds(p)
        assert join(1, 2) is None and meet(3, 4) is None
        report = lattice_analyze(p)
        assert not report.is_lattice and report.left_modular_chain is None
        assert report == latt_reference.lattice_analyze(p)

    def test_cambrian_a2(self, a2):
        cp = cambrian_poset(a2)
        report = lattice_analyze(cp)
        assert report.is_lattice and report.is_trim
        assert report.longest_chain == 3
        ji = {cp.payloads[i] for i in report.join_irreducibles}
        assert ji == {
            frozenset({(1, 0)}),
            frozenset({(0, 1)}),
            frozenset({(0, 1), (1, 1)}),
        }

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
    def test_cambrian_trim_with_counts(self, fix, request):
        q = request.getfixturevalue(fix)
        report = lattice_analyze(cambrian_poset(q))
        n = len(positive_roots(q))
        assert report.is_trim
        assert len(report.join_irreducibles) == n
        assert len(report.meet_irreducibles) == n
        assert report.longest_chain == n

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
    def test_nc_poset_is_lattice(self, fix, request):
        q = request.getfixturevalue(fix)
        nc = noncrossing_partitions(q)
        p = latt_reference.from_elements(range(len(nc)), lambda i, j: nc.up[i] >> j & 1)
        assert lattice_analyze(p).is_lattice

    def test_report_json(self, a2):
        cp = cambrian_poset(a2)
        doc = json.loads(lattice_analyze(cp).to_json(cp, describe=lambda s: sorted(s)))
        assert doc["is_trim"] is True
        assert len(doc["join_irreducibles"]) == 3


class TestMeetJoin:
    def test_meet_is_intersection(self, a2):
        classes = set(enumerate_torsion_classes(a2))
        assert all(t1 & t2 in classes for t1 in classes for t2 in classes)

    def test_join_forces_extension(self, a2):
        assert torsion_join(a2, frozenset({(1, 0)}), frozenset({(0, 1)})) == frozenset(
            positive_roots(a2)
        )

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_join_and_meet_match_lattice_tables(self, fix, request):
        q = request.getfixturevalue(fix)
        cp = cambrian_poset(q)
        join, meet = bounds(cp)
        for i, t1 in enumerate(cp.payloads):
            for j, t2 in enumerate(cp.payloads):
                assert torsion_join(q, t1, t2) == cp.payloads[join(i, j)]
                assert t1 & t2 == cp.payloads[meet(i, j)]

    def test_join_output_is_torsion_class(self, a3):
        classes = enumerate_torsion_classes(a3)
        for t1 in classes[:5]:
            for t2 in classes[:5]:
                assert is_torsion_class(a3, torsion_join(a3, t1, t2))


class TestPrincipalClasses:
    def test_a1(self, a1):
        assert principal_torsion_classes(a1) == (frozenset({(1,)}),)

    def test_a2(self, a2):
        assert set(principal_torsion_classes(a2)) == {
            frozenset({(1, 0)}),
            frozenset({(0, 1)}),
            frozenset({(0, 1), (1, 1)}),
        }

    @pytest.mark.parametrize("name", TEXTS)
    def test_gf2_classes_equal_the_qq_classes(self, name):
        q = parse_quiver(TEXTS[name])
        assert set(principal_torsion_classes(q)) == {
            field_reference.gen(q, frozenset({r})) for r in positive_roots(q)}

    @pytest.mark.parametrize("fix", ["a3", "a4", "d4"])
    def test_one_per_root_and_join_irreducible(self, fix, request):
        q = request.getfixturevalue(fix)
        principal = principal_torsion_classes(q)
        assert len(principal) == len(positive_roots(q))
        cp = cambrian_poset(q)
        report = lattice_analyze(cp)
        assert {cp.payloads[i] for i in report.join_irreducibles} == set(principal)


class TestSplittingChain:
    def test_a2_chain(self, a2):
        chain = splitting_chain(a2)
        assert [sorted(s) for s in chain] == [
            [(0, 1), (1, 0), (1, 1)],
            [(0, 1), (1, 1)],
            [(0, 1)],
            [],
        ]

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
    def test_chain_of_torsion_classes(self, fix, request):
        q = request.getfixturevalue(fix)
        chain = splitting_chain(q)
        classes = set(enumerate_torsion_classes(q))
        assert len(chain) == len(positive_roots(q)) + 1
        assert chain[0] == frozenset(positive_roots(q))
        assert chain[-1] == frozenset()
        for i in range(len(chain) - 1):
            assert chain[i + 1] < chain[i]
        for s in chain:
            assert s in classes

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_chain_members_are_splitting(self, fix, request):
        """Every indecomposable is torsion or torsion free for each S_i."""
        from quivernc import torsion_free_complement

        q = request.getfixturevalue(fix)
        for s in splitting_chain(q):
            f = torsion_free_complement(q, s)
            assert s | f == frozenset(positive_roots(q))

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_left_modularity(self, fix, request):
        q = request.getfixturevalue(fix)
        cp = cambrian_poset(q)
        join, meet = bounds(cp)
        idx = {p: i for i, p in enumerate(cp.payloads)}
        for s in splitting_chain(q):
            x = idx[s]
            for y in range(len(cp)):
                for z in range(len(cp)):
                    if y != z and cp.up[y] >> z & 1:
                        assert meet(join(y, x), z) == join(y, meet(x, z))

    def test_chain_is_left_modular_maximal_chain(self, a3):
        cp = cambrian_poset(a3)
        report = lattice_analyze(cp)
        assert report.left_modular_chain is not None
        chain_payloads = {cp.payloads[i] for i in report.left_modular_chain}
        assert len(chain_payloads) == len(positive_roots(a3)) + 1
