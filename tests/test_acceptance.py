"""Acceptance criteria, one test per criterion, each printing a pass line.

Counts are cross-checked against the degree product formula for the number
of antichains in the root poset (the generalized Catalan number), computed
from the exponent table of the detected diagram type.
"""

import itertools
import math
import random
import time

import pytest

from latt_reference import absolute_leq, weyl_group
from quivernc import (
    GroupElement,
    a_of,
    cluster_tilting_objects,
    complete_support_tilting,
    cover_criterion_check,
    coxeter_element,
    enumerate_support_tilting,
    enumerate_torsion_classes,
    ext_projectives,
    gen_of,
    is_c_sortable,
    mutate,
    nc_of_torsion,
    parse_quiver,
    positive_roots,
    reading_cl,
    reading_nc,
    reflection,
    rs_check,
    split_projectives,
    support_tilting_of,
    torsion_of_sortable,
)
from quivernc.latt import (
    absolute_length,
    cambrian_poset,
    lattice_analyze,
    noncrossing_partitions,
    principal_torsion_classes,
)
from quivernc.ncmap import braid_orbit, braid_act, complete_exceptional_sequences
from quivernc.quiver import coxeter_element_word, support
from quivernc.replab import gen, is_torsion_class
from quivernc.stab import verify_semistable_theorem
from quivernc.verify import min_deletions_to_identity
from quivernc.weyl import ar_quiver, fixed_space, projective_roots, reduced_word, tau


def catalan_number(q):
    """Independent count oracle: prod (e_i + h + 1) / (e_i + 1) from the
    exponent table of the underlying connected diagram: A_n is a path, and
    D_n, E6, E7 and E8 are stars whose three arms have lengths (1, 1, n - 3),
    (1, 2, 2), (1, 2, 3) and (1, 2, 4)."""
    n = q.n
    adj = {v: set() for v in range(1, n + 1)}
    for s, t in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    degseq = sorted((len(nbrs) for nbrs in adj.values()), reverse=True)
    branch = [v for v, nbrs in adj.items() if len(nbrs) == 3]
    arms = []
    if len(branch) == 1 and degseq[1] <= 2:
        for v in adj[branch[0]]:
            prev, length = branch[0], 1
            while len(adj[v]) == 2:
                prev, v = v, next(iter(adj[v] - {prev}))
                length += 1
            arms.append(length)
        arms.sort()
    if n == 1:
        exponents = [1]
    elif degseq[0] <= 2 and degseq.count(1) == 2:
        exponents = list(range(1, n + 1))  # type A path
    elif sum(arms) + 1 != n:
        raise ValueError("no exponent table for this diagram")
    elif arms[:2] == [1, 1]:
        exponents = list(range(1, 2 * n - 2, 2)) + [n - 1]  # type D_n
    elif arms == [1, 2, 2]:
        exponents = [1, 4, 5, 7, 8, 11]  # type E6
    elif arms == [1, 2, 3]:
        exponents = [1, 5, 7, 9, 11, 13, 17]  # type E7
    elif arms == [1, 2, 4]:
        exponents = [1, 7, 11, 13, 17, 19, 23, 29]  # type E8
    else:
        raise ValueError("no exponent table for this diagram")
    h = max(exponents) + 1
    num = math.prod(e + h + 1 for e in exponents)
    den = math.prod(e + 1 for e in exponents)
    assert num % den == 0
    return num // den


EXPECTED = {"a2": 5, "a3": 14, "a4": 42, "d4": 50}


@pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
def test_criterion_01_counts(fix, request):
    q = request.getfixturevalue(fix)
    expected = EXPECTED[fix]
    assert catalan_number(q) == expected
    cword = coxeter_element_word(q)
    runs = {
        "torsion classes": lambda: len(enumerate_torsion_classes(q)),
        "support tilting": lambda: len(enumerate_support_tilting(q)),
        "cluster tilting": lambda: len(cluster_tilting_objects(q)),
        "nc image": lambda: len(
            {nc_of_torsion(q, t) for t in enumerate_torsion_classes(q)}
        ),
        "sortable elements": lambda: sum(
            1 for w in weyl_group(q) if is_c_sortable(q, w, cword)
        ),
    }
    for name, runner in runs.items():
        t0 = time.monotonic()
        count = runner()
        elapsed = time.monotonic() - t0
        assert count == expected, f"{name}: {count} != {expected}"
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"
    print(f"[PASS] criterion 1 ({fix}): all five counts equal {expected}")


@pytest.mark.parametrize("text,expected", [
    ("vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5", 182),
    ("vertices 6\narrow 2 1\narrow 2 3\narrow 4 3\narrow 4 5\narrow 4 6", 672),
    ("vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6", 833),
    ("vertices 7\narrow 2 1\narrow 2 3\narrow 4 3\narrow 4 5\narrow 6 5\narrow 7 3", 4160),
], ids=["d5", "d6", "e6", "e7"])
def test_torsion_class_counts_match_degree_product(text, expected):
    q = parse_quiver(text)
    assert catalan_number(q) == expected
    assert len(enumerate_torsion_classes(q)) == expected


E8 = "vertices 8\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 5 6\narrow 6 7\narrow 3 8"


def test_e8_catalan_number():
    """The formula alone: enumerating the 25 080 torsion classes of E8 takes
    about 20 s, too long for the default suite."""
    assert catalan_number(parse_quiver(E8)) == 25080


def test_e8_knitted_ar_quiver():
    """Vertices the 120 positive roots, each tau^-k P for one projective P
    and one k; tau = cox on every non-projective; every mesh
    tau X -> middle terms -> X keeps dimension."""
    q = parse_quiver(E8)
    edges = ar_quiver(q)
    roots = positive_roots(q)
    assert len(roots) == 120
    assert sorted({x for edge in edges for x in edge}) == list(roots)
    cox = coxeter_element(q)
    projectives = projective_roots(q)
    position = {}  # x = tau^-k P: (P, k)
    for x in roots:
        y, k = x, 0
        while y not in projectives:
            y, k = tau(q, y), k + 1
        position[x] = (y, k)
    assert len(set(position.values())) == 120
    for x in roots:
        if x in projectives:
            continue
        t = tau(q, x)
        assert t == cox.apply(x) and t in roots
        middle = [b for a, b in edges if a == t]
        assert middle == [a for a, b in edges if b == x]
        assert tuple(map(sum, zip(t, x))) == tuple(map(sum, zip(*middle)))


@pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
def test_criterion_02_bijection_round_trips(fix, request):
    q = request.getfixturevalue(fix)
    for c in enumerate_support_tilting(q):
        assert ext_projectives(q, gen(q, c)) == c
        ct = complete_support_tilting(q, c)
        assert support_tilting_of(ct) == c
        assert ct in set(cluster_tilting_objects(q))
    for t in enumerate_torsion_classes(q):
        assert gen(q, ext_projectives(q, t)) == t
        wide = a_of(q, t)
        assert gen(q, wide) == t
        assert a_of(q, gen(q, wide)) == wide
    print(f"[PASS] criterion 2 ({fix}): all round trips are identities")


@pytest.mark.parametrize("fix", ["a2", "a3"])
def test_criterion_03_oracle_equivalence(fix, request):
    q = request.getfixturevalue(fix)
    t0 = time.monotonic()
    classes = set(enumerate_torsion_classes(q))
    hits = 0
    for k in range(len(positive_roots(q)) + 1):
        for sub in itertools.combinations(positive_roots(q), k):
            s = frozenset(sub)
            assert is_torsion_class(q, s) == (s in classes)
            hits += 1
    elapsed = time.monotonic() - t0
    assert hits == 2 ** len(positive_roots(q))
    assert elapsed < 60.0
    print(
        f"[PASS] criterion 3 ({fix}): GF(2) oracle matches enumeration on all"
        f" {hits} subsets in {elapsed:.1f}s"
    )


@pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
def test_criterion_04_nc_lattice_and_order_isomorphism(fix, request):
    q = request.getfixturevalue(fix)
    nc = noncrossing_partitions(q)
    assert lattice_analyze(nc).is_lattice
    classes = enumerate_torsion_classes(q)
    images = {t: nc_of_torsion(q, t) for t in classes}
    assert len(set(images.values())) == len(classes)
    assert set(images.values()) == set(nc.payloads)
    if fix == "a3":
        # the isomorphism pairs wide-subcategory inclusion with absolute
        # order; checked in both directions over all 14 x 14 pairs
        wides = {t: a_of(q, t) for t in classes}
        for t1 in classes:
            for t2 in classes:
                assert (wides[t1] <= wides[t2]) == absolute_leq(
                    q, images[t1], images[t2]
                )
    print(f"[PASS] criterion 4 ({fix}): NC is a lattice; bijection + order isomorphism")


@pytest.mark.parametrize("fix", ["a2", "a3"])
def test_criterion_05_stability_theorem(fix, request):
    q = request.getfixturevalue(fix)
    rng = random.Random(2026)
    for c in enumerate_support_tilting(q):
        assert verify_semistable_theorem(q, c).passed
        split = split_projectives(q, gen(q, c))
        supp = set()
        for r in c:
            supp |= support(r)
        for _ in range(3):
            a = {r: (0 if r in split else rng.choice([1, 2, 3])) for r in c}
            b = {v: rng.choice([-1, -2]) for v in q.vertices if v not in supp}
            assert verify_semistable_theorem(q, c, a, b).passed
    n = len(enumerate_support_tilting(q))
    print(
        f"[PASS] criterion 5 ({fix}): semistable = a(Gen C) for all {n} support"
        " tiltings, default + 3 seeded coefficient choices"
    )


@pytest.mark.parametrize("fix,count", [("a2", 3), ("a3", 16)])
def test_criterion_06_exceptional_sequences(fix, count, request):
    q = request.getfixturevalue(fix)
    seqs = complete_exceptional_sequences(q)
    assert len(seqs) == count
    cox = coxeter_element(q)
    for seq in seqs:
        prod = GroupElement.identity(q.n)
        for r in seq:
            prod = prod * reflection(q, r)
        assert prod == cox
    assert braid_orbit(q, seqs[0]) == frozenset(seqs)
    if q.n >= 3:
        for seq in seqs:
            lhs = braid_act(q, 1, braid_act(q, 2, braid_act(q, 1, seq)))
            rhs = braid_act(q, 2, braid_act(q, 1, braid_act(q, 2, seq)))
            assert lhs == rhs
    print(
        f"[PASS] criterion 6 ({fix}): {count} complete exceptional sequences,"
        " products = cox, single braid orbit"
    )


@pytest.mark.parametrize("fix", ["a2", "a3"])
def test_criterion_07_reading_coincidence(fix, request):
    q = request.getfixturevalue(fix)
    cword = coxeter_element_word(q)
    sortables = [w for w in weyl_group(q) if is_c_sortable(q, w, cword)]
    for w in sortables:
        t = torsion_of_sortable(q, w)
        assert reading_nc(q, w, cword) == nc_of_torsion(q, t)
        assert reading_cl(q, w, cword) == ext_projectives(q, t)
    applicable = 0
    for t in enumerate_torsion_classes(q):
        report = cover_criterion_check(q, t, cword)
        assert report.passed
        applicable += len(report.applicable)
    print(
        f"[PASS] criterion 7 ({fix}): nc/cl coincide on {len(sortables)} sortables;"
        f" cover criterion holds on {applicable} applicable pairs"
    )


def test_criterion_08_rs_fixed_space(a3):
    cts = cluster_tilting_objects(a3)
    assert len(cts) == 14
    for t in cts:
        report = rs_check(a3, t)
        assert report.passed
        assert report.fixed_space == report.perp_space  # exact rational equality
    print("[PASS] criterion 8: fixed-space description holds for all 14 cluster tiltings")


@pytest.mark.parametrize("fix,chain", [("a2", 3), ("a3", 6), ("a4", 10)])
def test_criterion_09_trimness(fix, chain, request):
    q = request.getfixturevalue(fix)
    cp = cambrian_poset(q)
    report = lattice_analyze(cp)
    assert report.is_trim
    assert len(report.join_irreducibles) == chain
    assert len(report.meet_irreducibles) == chain
    assert report.longest_chain == chain
    ji = {cp.payloads[i] for i in report.join_irreducibles}
    assert ji == set(principal_torsion_classes(q))
    print(
        f"[PASS] criterion 9 ({fix}): Cambrian lattice trim with"
        f" |JI| = |MI| = longest chain = {chain}"
    )


def test_criterion_10_mutation_order(a3):
    split_cache = {}

    def split_of(t):
        if t not in split_cache:
            split_cache[t] = split_projectives(a3, t)
        return split_cache[t]

    edges = 0
    for ct in cluster_tilting_objects(a3):
        gen_t = gen_of(a3, ct)
        neighbors = set()
        for x in ct:
            v = mutate(a3, ct, x)
            neighbors.add(v)
            y = next(z for z in v if z not in ct)
            gen_v = gen_of(a3, v)
            x_split = (not x.is_shift) and x.root in split_of(gen_t)
            y_split = (not y.is_shift) and y.root in split_of(gen_v)
            assert x_split != y_split  # exactly one complement is split projective
            if x_split:
                assert gen_v < gen_t
            else:
                assert gen_v > gen_t
            edges += 1
        assert len(neighbors) == a3.n
    assert edges == 14 * 3
    print(f"[PASS] criterion 10: alternative + order laws hold on all {edges} mutation edges")


@pytest.mark.parametrize("fix", ["a2", "a3", "a4", "d4"])
def test_criterion_11_absolute_length_of_cox(fix, request):
    q = request.getfixturevalue(fix)
    cox = coxeter_element(q)
    by_fixed_space = q.n - len(fixed_space(q, cox))
    assert by_fixed_space == q.n
    assert absolute_length(q, cox) == q.n
    by_dyer = min_deletions_to_identity(q, reduced_word(q, cox))
    assert by_dyer == q.n
    print(f"[PASS] criterion 11 ({fix}): l_T(cox) = {q.n} by fixed space and by Dyer deletion")
