import random

import pytest

from quivernc import (
    enumerate_support_tilting,
    positive_roots,
    split_projectives,
)
from quivernc.quiver import support
from quivernc.replab import direct_sum, gen, indecomposable, is_wide, simple_rep, subrep_dimvectors
from quivernc.stab import (
    default_coefficients,
    euler_row,
    is_semistable,
    semistable_indecs,
    theta_of_support_tilting,
    theta_value,
    verify_semistable_theorem,
)


def quotient_side_semistable(q, theta, m):
    """Independent route: theta(M) = 0 and theta(W) >= 0 on all quotients."""
    if theta_value(theta, m.dims) != 0:
        return False
    return all(
        theta_value(theta, tuple(m.dims[i] - w[i] for i in range(q.n))) >= 0
        for w in subrep_dimvectors(m)
    )


class TestTheta:
    def test_euler_row_example(self, a2):
        assert euler_row(a2, (0, 1)) == (-1, 1)

    def test_nonsplit_summand_theta(self, a2):
        c = frozenset({(1, 1), (0, 1)})
        theta = theta_of_support_tilting(a2, c, {(1, 1): 0, (0, 1): 1}, {})
        assert theta == (-1, 1)  # beta_2 - beta_1

    def test_full_split_tilting_gives_zero(self, a2):
        c = frozenset({(1, 0), (1, 1)})
        theta = theta_of_support_tilting(a2, c, {(1, 0): 0, (1, 1): 0}, {})
        assert theta == (0, 0)

    def test_off_support_term(self, a2):
        c = frozenset({(0, 1)})
        theta = theta_of_support_tilting(a2, c, {(0, 1): 0}, {1: -1})
        assert theta == (-1, 0)

    def test_sign_violations(self, a2):
        c = frozenset({(1, 1), (0, 1)})
        with pytest.raises(ValueError, match="split"):
            theta_of_support_tilting(a2, c, {(1, 1): 1, (0, 1): 1}, {})
        with pytest.raises(ValueError, match="positive"):
            theta_of_support_tilting(a2, c, {(1, 1): 0, (0, 1): 0}, {})
        with pytest.raises(ValueError, match="negative"):
            theta_of_support_tilting(a2, frozenset({(0, 1)}), {(0, 1): 0}, {1: 1})
        with pytest.raises(ValueError, match="indexed"):
            theta_of_support_tilting(a2, c, {(1, 1): 0}, {})


class TestSemistable:
    def test_zero_functional_accepts_everything(self, a2):
        for r in positive_roots(a2):
            assert is_semistable(a2, (0, 0), indecomposable(a2, r))

    def test_a2_example(self, a2):
        theta = (-1, 1)
        assert is_semistable(a2, theta, indecomposable(a2, (1, 1)))
        assert not is_semistable(a2, theta, simple_rep(a2, 2))

    def test_semistable_indecs_examples(self, a2, a3):
        assert semistable_indecs(a2, (0, 0)) == frozenset(positive_roots(a2))
        assert semistable_indecs(a2, (-1, 1)) == {(1, 1)}
        c = frozenset({(1, 1, 1), (0, 1, 1), (1, 1, 0)})
        theta = theta_of_support_tilting(
            a3, c, {(1, 1, 1): 0, (0, 1, 1): 1, (1, 1, 0): 1}, {}
        )
        assert semistable_indecs(a3, theta) == {(1, 1, 1)}

    @pytest.mark.parametrize("fix", ["a2", "a3"])
    def test_quotient_side_equivalence(self, fix, request):
        q = request.getfixturevalue(fix)
        thetas = [euler_row(q, r) for r in positive_roots(q)]
        thetas.append(tuple(0 for _ in range(q.n)))
        for theta in thetas:
            for r in positive_roots(q):
                m = indecomposable(q, r)
                assert is_semistable(q, theta, m) == quotient_side_semistable(q, theta, m)

    def test_semistable_sets_are_wide(self, a2, a3):
        for q in (a2, a3):
            for c in enumerate_support_tilting(q):
                r = verify_semistable_theorem(q, c)
                assert is_wide(q, frozenset(r.semistable))


class TestTheorem:
    def test_a2_example(self, a2):
        r = verify_semistable_theorem(a2, frozenset({(1, 1), (0, 1)}))
        assert r.passed and r.semistable == ((1, 1),)

    def test_full_tilting(self, a2):
        r = verify_semistable_theorem(a2, frozenset({(1, 0), (1, 1)}))
        assert r.passed and set(r.semistable) == set(positive_roots(a2))

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4"])
    def test_all_support_tiltings_default(self, fix, request):
        q = request.getfixturevalue(fix)
        for c in enumerate_support_tilting(q):
            assert verify_semistable_theorem(q, c).passed

    @pytest.mark.parametrize("fix", ["a2", "a3", "a4"])
    def test_random_valid_coefficients(self, fix, request):
        q = request.getfixturevalue(fix)
        rng = random.Random(11)
        for c in enumerate_support_tilting(q):
            split = split_projectives(q, gen(q, c))
            supp = set()
            for r in c:
                supp |= support(r)
            for _ in range(3):
                a = {r: (0 if r in split else rng.choice([1, 2, 3])) for r in c}
                b = {v: rng.choice([-1, -2]) for v in q.vertices if v not in supp}
                assert verify_semistable_theorem(q, c, a, b).passed


def test_default_coefficients_signs(a3):
    for c in enumerate_support_tilting(a3):
        a, b = default_coefficients(a3, c)
        split = split_projectives(a3, gen(a3, c))
        for r, coeff in a.items():
            assert coeff == (0 if r in split else 1)
        assert all(v == -1 for v in b.values())


def test_semistable_matches_wide_on_direct_sum(a2):
    # semistability of a sum at theta-degree 0 reduces to the summands
    theta = (-1, 1)
    m = direct_sum([indecomposable(a2, (1, 1)), indecomposable(a2, (1, 1))])
    assert is_semistable(a2, theta, m)
