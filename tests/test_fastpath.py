"""Integer fast paths against their representation-theoretic,
matrix-product and pairwise-loop references, on every orientation of A3, A4
and D4 (the Weyl checks also on a disconnected quiver, the AR quiver and
`wide_of_nc` also on D5 and E6).  The oracles that step on root vectors
(sortability, Reading's recursions, the cover criterion, the braid action)
are checked against their matrix-product versions the same way."""

import itertools
from argparse import Namespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_reference
import latt_reference
from latt_reference import absolute_leq, weyl_group
from quivernc import (
    a_of,
    cluster_tilting_objects,
    cover_reflections,
    coxeter_element,
    enumerate_support_tilting,
    enumerate_torsion_classes,
    ext_projectives,
    fields,
    fixed_space,
    inversion_set,
    is_c_sortable,
    parse_quiver,
    positive_roots,
    simple_reflection,
    sortable_of_torsion,
    split_projectives,
    torsion_closure,
)
from quivernc.cli import (
    _KINDS,
    _emit_object,
    _enumerate_rows,
    _nc_str,
    _root_str,
    _Row,
    _row_of,
    _word_str,
    cmd_map,
)
from quivernc.cluster import _orth_masks, all_cc_indecs, cc_ext_orthogonal, mutate
from quivernc.latt import (
    absolute_length,
    bounds,
    c_sortable_elements,
    cambrian_poset,
    lattice_analyze,
    noncrossing_partitions,
)
from quivernc import latt, ncmap, weyl
from quivernc.ncmap import (
    CoverCriterionReport,
    braid_act,
    braid_orbit,
    complete_exceptional_sequences,
    cover_criterion_check,
    cox_of_wide,
    initial_letters,
    is_exceptional_sequence,
    nc_of_torsion,
    reading_cl,
    reading_nc,
    sorting_word_of_torsion,
    wide_of_nc,
)
from quivernc.quiver import (
    _simple_pairing,
    cartan_matrix,
    coxeter_element_word,
    ext_dim_roots,
    hom_dim_roots,
    simple_roots,
    support,
)
from quivernc.replab import (
    ar_quiver_by_hom_basis,
    decompose,
    ext_dim,
    gen,
    hom_dim,
    indecomposable,
    projective_rep,
    sub_representation,
    subrepresentation_subspaces,
)
from quivernc.tors import _ext_masks, _hom_masks, is_support_tilting, wide_simples
from quivernc.weyl import (
    GroupElement,
    _two_rho,
    ar_quiver,
    c_sorting_word,
    length_S,
    projective_root,
    reduced_word,
    reflection,
    reflection_product,
    reflection_root,
    word_to_element,
)

EDGES = {
    "a3": (3, ((1, 2), (2, 3))),
    "a4": (4, ((1, 2), (2, 3), (3, 4))),
    "d4": (4, ((1, 2), (2, 3), (2, 4))),
}
D5 = "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5"
E6 = "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6"


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
WEYL_QUIVERS = QUIVERS + [pytest.param(parse_quiver("vertices 3\narrow 1 2"), id="a2+a1")]
LATTICE_QUIVERS = WEYL_QUIVERS + [pytest.param(parse_quiver(D5), id="d5")]
AR_QUIVERS = QUIVERS + [
    pytest.param(parse_quiver(D5), id="d5"),
    pytest.param(parse_quiver(E6), id="e6"),
]


def gf2_simples(q, a):
    """Members of A with no proper nonzero GF(2) subrepresentation whose
    summands all lie in A: the definition of a simple object of A."""
    out = set()
    for alpha in a:
        m = indecomposable(q, alpha)
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
        nc = latt_reference.noncrossing_partitions_by_weyl_filter(q).payloads
        assert set(nc) == set(noncrossing_partitions(q).payloads)


@pytest.mark.parametrize("q", LATTICE_QUIVERS)
def test_nc_by_covers_matches_weyl_filter(q):
    """The same payloads in the same order, and the same relation."""
    assert noncrossing_partitions(q) == latt_reference.noncrossing_partitions_by_weyl_filter(q)


def test_nc_takes_one_echelon_per_element(monkeypatch):
    """NC's lower covers come from one echelon form of v - 1 per element
    (Mov), and l_T(cox) from one more: no rank per (element, reflection)."""
    q = parse_quiver(D5)
    noncrossing_partitions.cache_clear()
    absolute_length.cache_clear()
    calls = []
    echelon = fields.int_echelon
    monkeypatch.setattr(fields, "int_echelon", lambda rows: calls.append(rows) or echelon(rows))
    assert len(noncrossing_partitions(q)) == 182
    assert len(calls) == 182 + 1


@pytest.mark.parametrize("q", LATTICE_QUIVERS)
def test_sortables_by_induction_match_weyl_filter(q):
    cword = coxeter_element_word(q)
    for word in (cword, cword[::-1], cword[1:] + cword[:1]):
        found = list(c_sortable_elements(q, word))
        assert len(found) == len(set(found)), word
        assert set(found) == latt_reference.c_sortables_by_weyl_filter(q, word), word
        lengths = [length_S(q, w) for w in found]
        assert lengths == sorted(lengths), word  # shortest first


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a3_linear", "a4", "d4", "d5", "e6"])
def test_reading_walk_and_generator_spell_the_c_sorting_word(name, request):
    """The letters Reading's walk strips from each c-sortable element, and
    the words `c_sortable_elements` carries, are its c-sorting word."""
    text = {"d5": D5, "e6": E6}.get(name)
    q = parse_quiver(text) if text else request.getfixturevalue(name)
    cword = coxeter_element_word(q)
    words = list(latt._c_sortable_words(q, cword))
    assert len(set(words)) == len(words) == len(enumerate_torsion_classes(q))
    for word in words:
        w = word_to_element(q, word)
        assert c_sorting_word(q, w, cword) == word
        descents = weyl._reading_descents(q, w.apply(_two_rho(q)), cword)
        assert tuple(v for v, _ in descents) == word


@pytest.mark.parametrize("q", LATTICE_QUIVERS)
def test_bitset_lattice_layer_matches_list_scans(q):
    for p in (noncrossing_partitions(q), cambrian_poset(q)):
        latt_reference.validate(p)
        assert p.covers() == latt_reference.covers(p)
        assert latt_reference.as_tables(p, *bounds(p)) == latt_reference.bound_tables(p)
        assert lattice_analyze(p) == latt_reference.lattice_analyze(p)


def test_orientation_counts():
    counts = {name: len(list(orientations(n, e))) for name, (n, e) in EDGES.items()}
    assert counts == {"a3": 4, "a4": 8, "d4": 8}
    assert len({p.values[0].arrows for p in QUIVERS}) == 20


@pytest.mark.parametrize("q", QUIVERS)
def test_hom_ext_closed_form_matches_explicit_reps(q):
    """Over GF(2) by the oracle, and over Q by the tests' reference."""
    roots = positive_roots(q)
    reps = {r: indecomposable(q, r) for r in roots}
    qq_reps = {r: field_reference.indecomposable(q, r) for r in roots}
    for a in roots:
        for b in roots:
            assert hom_dim_roots(q, a, b) == hom_dim(reps[a], reps[b]), (a, b)
            assert ext_dim_roots(q, a, b) == ext_dim(q, reps[a], reps[b]), (a, b)
            assert hom_dim_roots(q, a, b) == field_reference.hom_dim(qq_reps[a], qq_reps[b])
    assert all(hom_dim_roots(q, r, r) == 1 for r in roots)  # Schur
    for v in q.vertices:
        assert projective_root(q, v) == projective_rep(q, v).dims, v


@pytest.mark.parametrize("q", QUIVERS)
def test_wide_simples_match_gf2_definition(q):
    for t in enumerate_torsion_classes(q):
        a = a_of(q, t)
        assert set(wide_simples(q, a)) == gf2_simples(q, a), sorted(t)


def split_projectives_by_removal(q, t):
    """The minimal generator by its definition: drop one Ext-projective that
    lies in Gen of the others, recompute, repeat."""
    current = set(ext_projectives(q, t))
    changed = True
    while changed:
        changed = False
        for x in sorted(current):
            if x in gen(q, frozenset(current - {x})):
                current.remove(x)
                changed = True
                break
    return frozenset(current)


@pytest.mark.parametrize("q", QUIVERS)
def test_torsion_closure_matches_gen(q):
    for c in enumerate_support_tilting(q):
        assert torsion_closure(q, c) == gen(q, c), sorted(c)
    for t in enumerate_torsion_classes(q):
        a = a_of(q, t)
        assert torsion_closure(q, a) == gen(q, a) == t, sorted(t)


@pytest.mark.parametrize("q", QUIVERS)
def test_gen_over_gf2_matches_gen_over_q(q):
    """The oracle's Gen over GF(2) against the tests' Gen over Q, on every
    support tilting object and every wide subcategory a(T)."""
    sets = list(enumerate_support_tilting(q))
    sets += [a_of(q, t) for t in enumerate_torsion_classes(q)]
    for s in sets:
        assert gen(q, s) == field_reference.gen(q, s), sorted(s)


@pytest.mark.parametrize("q", QUIVERS)
def test_split_projectives_match_removal_loop(q):
    for t in enumerate_torsion_classes(q):
        assert split_projectives(q, t) == split_projectives_by_removal(q, t), sorted(t)


@pytest.mark.parametrize("q", QUIVERS)
def test_wide_of_nc_inverts_cox_of_wide(q):
    for t in enumerate_torsion_classes(q):
        a = a_of(q, t)
        assert wide_of_nc(q, cox_of_wide(q, a)) == a


def wide_of_nc_over_qq(q, w):
    """The positive roots in im(w - 1), by rational RREF of its columns."""
    moved = [[w.mat[i][j] - (i == j) for i in range(q.n)] for j in range(q.n)]
    reduced, pivots = field_reference.rref(moved)
    return frozenset(
        x for x in positive_roots(q) if field_reference.in_span(reduced, pivots, x))


@pytest.mark.parametrize("q", AR_QUIVERS)
def test_wide_of_nc_matches_rational_span(q):
    """On every NC element, and on all of W up to rank 4."""
    elements = weyl_group(q) if q.n <= 4 else [
        nc_of_torsion(q, t) for t in enumerate_torsion_classes(q)]
    for w in elements:
        assert wide_of_nc(q, w) == wide_of_nc_over_qq(q, w), w.mat


@pytest.mark.parametrize("q", QUIVERS)
def test_nc_to_wide_accepts_exactly_nc(q):
    """NC is the interval [e, cox(Q)] of absolute order, as in
    `noncrossing_partitions`, whose cover matrix this test does not need."""
    cox = coxeter_element(q)
    nc = {w for w in weyl_group(q) if absolute_leq(q, w, cox)}
    accepted = set()
    for w in weyl_group(q):
        try:
            _row_of(q, "nc", w)
        except ValueError as exc:
            assert "not a noncrossing partition" in str(exc)
        else:
            accepted.add(w)
    assert accepted == nc


@pytest.mark.parametrize("q", [p for p in QUIVERS if not p.id.startswith("a4")])
def test_map_sends_each_kind_of_a_torsion_class_to_every_kind(q, capsys):
    """All 36 (--from, --to) pairs, equal ones included, on every torsion
    class: `map` takes the class's --from object to its --to object.  The
    cluster and support columns equal the independent subset searches."""
    rows = [{kind: row[kind] for kind in _KINDS}
            for row in (_Row(q, t) for t in enumerate_torsion_classes(q))]
    for kind, search in (("cluster", cluster_tilting_objects), ("support", enumerate_support_tilting)):
        column = {row[kind] for row in rows}
        assert len(column) == len(rows) and column == set(search(q))
    for row in rows:
        emitted = {kind: _emit_object(q, kind, obj) for kind, obj in row.items()}
        for src, dst in itertools.product(_KINDS, repeat=2):
            cmd_map(q, Namespace(src=src, dst=dst, object=emitted[src]))
            assert capsys.readouterr().out == emitted[dst] + "\n", (src, dst)


def left_descent(q, w, v):
    """s_v is a left descent of w: (e_v, w(2 rho)) < 0, the test that
    sortability and Reading's recursions step on."""
    return _simple_pairing(q, v, w.apply(_two_rho(q))) < 0


def inversion_set_by_inverse(q, w):
    """N(w) from its definition: the positive roots that w^{-1} makes negative."""
    winv = w.inverse()
    return frozenset(a for a in positive_roots(q) if any(x < 0 for x in winv.apply(a)))


ONE_PER_GRAPH = [
    next(p for p in WEYL_QUIVERS if p.id.startswith(name)) for name in ("a3", "a4", "d4", "a2+a1")
]


def absolute_order_by_definition(q):
    """w^{-1} and l_T(w) = n - dim fix(w) on all of W, and u <= v in absolute
    order as l_T(u) + l_T(u^{-1} v) = l_T(v)."""
    inv = {w: w.inverse() for w in weyl_group(q)}
    l_t = {w: q.n - len(fixed_space(q, w)) for w in inv}
    return inv, l_t, lambda u, v: l_t[u] + l_t[inv[u] * v] == l_t[v]


@pytest.mark.parametrize("q", ONE_PER_GRAPH)
def test_weyl_fast_paths_match_inverse_definitions(q):
    """The rho-sign test, rank(w - 1) and the w(e_v) < 0 cover rule on all of
    W, and rank(v - u) on NC x NC, against inverse and fixed-space
    definitions. W and its action on roots depend only on the underlying
    graph, so one orientation per graph covers them; the cox-dependent check
    below runs on every orientation."""
    simples, cox = simple_roots(q), coxeter_element(q)
    inv, l_t, leq = absolute_order_by_definition(q)
    for w, winv in inv.items():
        n_w = inversion_set_by_inverse(q, w)
        assert inversion_set(q, w) == n_w
        assert {v for v in q.vertices if left_descent(q, w, v)} == {
            v for v in q.vertices if simples[v - 1] in n_w
        }
        assert absolute_length(q, w) == l_t[w]
        right_descents = [v for v in q.vertices if any(x < 0 for x in w.apply(simples[v - 1]))]
        assert cover_reflections(q, w) == {
            w * simple_reflection(q, v) * winv for v in right_descents
        }
    nc = [w for w in inv if leq(w, cox)]
    for u in nc:
        for v in nc:
            assert absolute_leq(q, u, v) == leq(u, v)


@pytest.mark.parametrize("q", WEYL_QUIVERS)
def test_absolute_leq_below_cox_matches_definition(q):
    cox = coxeter_element(q)
    _, _, leq = absolute_order_by_definition(q)
    for w in weyl_group(q):
        assert absolute_leq(q, w, cox) == leq(w, cox)


@pytest.mark.parametrize("q", WEYL_QUIVERS)
def test_sortable_of_torsion_matches_weyl_index(q):
    index = {inversion_set_by_inverse(q, w): w for w in weyl_group(q)}
    for t in enumerate_torsion_classes(q):
        assert sortable_of_torsion(q, t) == index[t]


@pytest.mark.parametrize("q", [p for p in QUIVERS if p.id.startswith("a3")])
def test_sortable_of_torsion_rejects_non_inversion_sets(q):
    """Every one of the 64 sets of positive roots of A3: the peel returns the
    element with that inversion set, or rejects the set when there is none."""
    index = {inversion_set_by_inverse(q, w): w for w in weyl_group(q)}
    roots = positive_roots(q)
    for k in range(len(roots) + 1):
        for subset in itertools.combinations(roots, k):
            s = frozenset(subset)
            if s in index:
                assert sortable_of_torsion(q, s) == index[s]
            else:
                with pytest.raises(ValueError, match="no group element"):
                    sortable_of_torsion(q, s)
    for not_roots in ({(1, -1, 0)}, {(0, 1, 0), (-1, 0, 0)}, {(1, 0)}, {(2, 0, 0)}):
        with pytest.raises(ValueError, match="no group element"):
            sortable_of_torsion(q, frozenset(not_roots))


@pytest.mark.parametrize("q", WEYL_QUIVERS)
def test_enumerate_sortables_matches_weyl_filter(q):
    cword = coxeter_element_word(q)
    words = [c_sorting_word(q, w, cword) for w in weyl_group(q) if is_c_sortable(q, w, cword)]
    assert _enumerate_rows(q, "sortables") == sorted(words, key=lambda w: (len(w), w))


@pytest.mark.parametrize("q", AR_QUIVERS)
def test_knitted_ar_quiver_matches_hom_basis_oracle(q):
    assert ar_quiver(q) == ar_quiver_by_hom_basis(q)


def reduced_word_by_products(q, w):
    """The canonical reduced word by one matrix product per letter."""
    word, cur = [], w
    while not cur.is_identity():
        v = next(v for v in q.vertices if left_descent(q, cur, v))
        word.append(v)
        cur = simple_reflection(q, v) * cur
    return tuple(word)


def c_sorting_word_by_products(q, w, c_word):
    out, cur = [], w
    while not cur.is_identity():
        for v in c_word:
            if left_descent(q, cur, v):
                out.append(v)
                cur = simple_reflection(q, v) * cur
    return tuple(out)


def reflection_by_formula(q, r):
    """s_r as the matrix of x -> x - (r, x) r, column by column."""
    b = cartan_matrix(q)
    cols = [[int(i == j) - sum(b[k][j] * r[k] for k in range(q.n)) * r[i] for i in range(q.n)]
            for j in range(q.n)]
    return GroupElement(tuple(tuple(cols[j][i] for j in range(q.n)) for i in range(q.n)))


def product_by_formula(q, roots):
    """s_{r_1} ... s_{r_k} as a product of `reflection_by_formula` matrices,
    independent of the row updates in `weyl`."""
    product = GroupElement.identity(q.n)
    for r in roots:
        product = product * reflection_by_formula(q, r)
    return product


@pytest.mark.parametrize("q", ONE_PER_GRAPH)
def test_one_vector_words_match_matrix_products(q):
    """Reduced and c-sorting words, reflection matrices, words multiplied
    out and the reflection test rank(w - 1) = 1 on all of W."""
    cword = coxeter_element_word(q)
    reflections = {reflection_by_formula(q, r): r for r in positive_roots(q)}
    assert {reflection(q, r): r for r in positive_roots(q)} == reflections
    simples = simple_roots(q)
    for w in weyl_group(q):
        word = reduced_word(q, w)
        assert word == reduced_word_by_products(q, w)
        assert c_sorting_word(q, w, cword) == c_sorting_word_by_products(q, w, cword)
        product = product_by_formula(q, [simples[v - 1] for v in word])
        assert word_to_element(q, word) == product == w
        assert reflection_root(q, w) == reflections.get(w)


@pytest.mark.parametrize("quiver", ["a1", "a2", "a3", "a3_linear", "a4", "d4", D5, E6],
                         ids=["a1", "a2", "a3", "a3_linear", "a4", "d4", "d5", "e6"])
def test_kernels_match_formula_products(request, quiver):
    """`reflection_product` over random root sequences and `word_to_element`
    over random words, letters repeating, against products of
    `reflection_by_formula` matrices. `quiver` names a conftest fixture or
    is quiver text."""
    if quiver.startswith("vertices"):
        q = parse_quiver(quiver)
    else:
        q = request.getfixturevalue(quiver)
    roots, simples = positive_roots(q), simple_roots(q)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(roots), max_size=8),
           st.lists(st.integers(1, q.n), max_size=12))
    def check(rs, word):
        assert reflection_product(q, rs) == product_by_formula(q, rs)
        assert word_to_element(q, tuple(word)) == product_by_formula(
            q, [simples[v - 1] for v in word])

    check()


def nc_str_by_scan(q, w):
    root = next((r for r in positive_roots(q) if reflection_by_formula(q, r) == w), None)
    if root is not None:
        return "s" + _root_str(root)
    return _word_str(reduced_word_by_products(q, w))


@pytest.mark.parametrize("q", QUIVERS)
def test_rank_one_nc_str_matches_reflection_scan(q):
    for t in enumerate_torsion_classes(q):
        w = nc_of_torsion(q, t)
        assert _nc_str(q, w) == nc_str_by_scan(q, w)


def sortable_by_simple_root_peel(q, t):
    """The element with inversion set t by peeling its smallest simple root:
    N(s_v w) = s_v(N(w) - {e_v}); None when the peel gets stuck."""
    roots, simples = set(positive_roots(q)), simple_roots(q)
    rest, word = set(t), []
    while rest:
        v = next((v for v in q.vertices if simples[v - 1] in rest), None)
        if v is None or not rest <= roots:
            return None
        word.append(v)
        rest = {simple_reflection(q, v).apply(x) for x in rest - {simples[v - 1]}}
    return word_to_element(q, tuple(word))


@pytest.mark.parametrize("q", QUIVERS)
def test_sorting_word_matches_simple_root_peel(q):
    """Every torsion class, and on A3 every set of positive roots: the
    one-vector peel accepts exactly the sets the root-set peel empties, and
    its word is the c-sorting word of that element."""
    cword, roots = coxeter_element_word(q), positive_roots(q)
    sets = list(enumerate_torsion_classes(q))
    if q.n == 3:
        sets = [frozenset(s) for k in range(len(roots) + 1) for s in itertools.combinations(roots, k)]
    for s in sets:
        w = sortable_by_simple_root_peel(q, s)
        if w is None:
            with pytest.raises(ValueError, match="no group element"):
                sorting_word_of_torsion(q, s)
        else:
            assert sorting_word_of_torsion(q, s) == c_sorting_word_by_products(q, w, cword)


def ext_projectives_pairwise(q, t):
    return frozenset(a for a in t if all(ext_dim_roots(q, a, b) == 0 for b in t))


def a_of_pairwise(q, t):
    nonsplit = ext_projectives_pairwise(q, t) - split_projectives_by_removal(q, t)
    return frozenset(x for x in t if all(hom_dim_roots(q, p, x) == 0 for p in nonsplit))


def is_support_tilting_pairwise(q, c):
    if any(ext_dim_roots(q, a, b) for a in c for b in c):
        return False
    return len(c) == len(set().union(*(support(a) for a in c)))


def compatible_search(items, compatible, size=None):
    """Every pairwise compatible set (of `size` members), checking each new
    member against every chosen one."""
    found = []

    def extend(chosen, start):
        if size is None or len(chosen) == size:
            found.append(frozenset(chosen))
            if size is not None:
                return
        for i in range(start, len(items)):
            if all(compatible(items[i], c) for c in chosen):
                extend(chosen + (items[i],), i + 1)

    extend((), 0)
    return found


@pytest.mark.parametrize("q", QUIVERS)
def test_hom_and_ext_masks_match_pairwise_forms(q):
    roots = positive_roots(q)
    for a in roots:
        assert _hom_masks(q)[a] == sum(
            1 << j for j, b in enumerate(roots) if hom_dim_roots(q, a, b) > 0), a
        assert _ext_masks(q)[a] == sum(
            1 << j for j, b in enumerate(roots) if ext_dim_roots(q, a, b) > 0), a


@pytest.mark.parametrize("q", QUIVERS)
def test_ext_masks_match_pairwise_loops(q):
    roots = positive_roots(q)
    for t in enumerate_torsion_classes(q):
        assert ext_projectives(q, t) == ext_projectives_pairwise(q, t), sorted(t)
        assert a_of(q, t) == a_of_pairwise(q, t), sorted(t)
    for k in range(q.n + 2):
        for c in itertools.combinations(roots, k):
            assert is_support_tilting(q, frozenset(c)) == is_support_tilting_pairwise(q, c), c
    rigid = compatible_search(
        roots, lambda a, b: ext_dim_roots(q, a, b) == 0 == ext_dim_roots(q, b, a))
    support_tilting = {c for c in rigid if len(c) == len(set().union(*map(support, c)))}
    assert len(enumerate_support_tilting(q)) == len(support_tilting)
    assert set(enumerate_support_tilting(q)) == support_tilting
    items = all_cc_indecs(q)
    clusters = compatible_search(items, lambda x, y: cc_ext_orthogonal(q, x, y), q.n)
    assert len(cluster_tilting_objects(q)) == len(clusters)
    assert set(cluster_tilting_objects(q)) == set(clusters)


@pytest.mark.parametrize("q", QUIVERS)
def test_cluster_orthogonality_masks_match_pairwise_predicate(q):
    items = all_cc_indecs(q)
    for x in items:
        assert _orth_masks(q)[x] == sum(
            1 << j for j, y in enumerate(items) if cc_ext_orthogonal(q, x, y)), x


def mutate_pairwise(q, t, x):
    """The other complement of t - x, by testing every indecomposable
    against every remaining summand."""
    rest = t - {x}
    (other,) = [z for z in all_cc_indecs(q) if z not in rest and z != x
                and all(cc_ext_orthogonal(q, z, c) for c in rest)]
    return rest | {other}


@pytest.mark.parametrize("q", QUIVERS)
def test_mutate_matches_pairwise_search(q):
    for t in cluster_tilting_objects(q):
        for x in t:
            assert mutate(q, t, x) == mutate_pairwise(q, t, x), (t, x)


def is_c_sortable_by_products(q, w, c_word):
    """Reading's induction with one matrix product per descent and the
    whole inversion set at each parabolic test."""
    if not c_word:
        return w.is_identity()
    v = c_word[0]
    if left_descent(q, w, v):
        return is_c_sortable_by_products(q, simple_reflection(q, v) * w, c_word[1:] + (v,))
    rest = set(c_word[1:])
    if any(not support(alpha) <= rest for alpha in inversion_set(q, w)):
        return False
    return is_c_sortable_by_products(q, w, c_word[1:])


def reading_nc_by_products(q, w, c_word):
    """Reading's nc recursion on matrices: descents by two lengths, covers
    from the reflection matrices of `cover_reflections`."""
    if w.is_identity():
        return w
    v = c_word[0]
    s = simple_reflection(q, v)
    if length_S(q, s * w) > length_S(q, w):
        return reading_nc_by_products(q, w, c_word[1:])
    inner = reading_nc_by_products(q, s * w, c_word[1:] + (v,))
    if s in cover_reflections(q, w):
        return inner * s
    return s * inner * s


def reading_cl_by_products(q, w, c_word):
    if w.is_identity():
        return frozenset()
    v = c_word[0]
    s = simple_reflection(q, v)
    if length_S(q, s * w) > length_S(q, w):
        return reading_cl_by_products(q, w, c_word[1:])
    inner = reading_cl_by_products(q, s * w, c_word[1:] + (v,))
    out = {s.apply(root) for root in inner}
    assert all(x >= 0 for root in out for x in root)
    if not any(root[v - 1] != 0 for root in inner):
        out.add(simple_roots(q)[v - 1])
    return frozenset(out)


def cover_criterion_by_products(q, t, c_word):
    w = sortable_of_torsion(q, t)
    wide = a_of(q, t)
    covers = cover_reflections(q, w)
    applicable, skipped, failures = [], [], []
    for v in initial_letters(q, c_word):
        s = simple_reflection(q, v)
        if length_S(q, s * w) >= length_S(q, w):
            skipped.append(v)
            continue
        applicable.append(v)
        if (s in covers) != (simple_roots(q)[v - 1] in wide):
            failures.append(v)
    return CoverCriterionReport(
        torsion_class=tuple(sorted(t)),
        applicable=tuple(applicable),
        not_applicable=tuple(skipped),
        failures=tuple(failures),
        passed=not failures,
    )


def is_exceptional_by_hom_ext(q, seq):
    roots = positive_roots(q)
    if any(r not in roots for r in seq) or len(set(seq)) != len(seq):
        return False
    return all(
        hom_dim_roots(q, seq[j], seq[i]) == 0 == ext_dim_roots(q, seq[j], seq[i])
        for i in range(len(seq)) for j in range(i + 1, len(seq))
    )


def braid_act_by_matrices(q, i, seq, direction):
    """The braid generator with reflection matrices, and the product of the
    whole sequence compared before and after."""
    x, y = seq[i - 1], seq[i]
    if direction == "+":
        new_pair = (y, ncmap._positive(reflection(q, y).apply(x)))
    else:
        new_pair = (ncmap._positive(reflection(q, x).apply(y)), x)
    out = seq[: i - 1] + new_pair + seq[i + 1 :]
    assert is_exceptional_by_hom_ext(q, out)
    assert reflection_product(q, out) == reflection_product(q, seq)
    return out


def words_to_check(q, partial):
    """cox(Q)'s word; on the first orientation of each graph, every ordering
    of the vertices, or of every subset of them when `partial`. Sortability
    depends on the graph and the word, not on the orientation."""
    if q not in [p.values[0] for p in ONE_PER_GRAPH]:
        return [coxeter_element_word(q)]
    sizes = range(q.n + 1) if partial else [q.n]
    return [word for k in sizes for word in itertools.permutations(q.vertices, k)]


@pytest.mark.parametrize("q", QUIVERS)
def test_vector_sortability_matches_matrix_induction(q):
    for cword in words_to_check(q, partial=True):
        for w in weyl_group(q):
            assert is_c_sortable(q, w, cword) == is_c_sortable_by_products(q, w, cword), (
                cword, w.mat)


@pytest.mark.parametrize("q", QUIVERS)
def test_reading_recursions_match_matrix_products(q):
    for cword in words_to_check(q, partial=False):
        for w in weyl_group(q):
            if is_c_sortable(q, w, cword):
                assert reading_nc(q, w, cword) == reading_nc_by_products(q, w, cword), (
                    cword, w.mat)
                assert reading_cl(q, w, cword) == reading_cl_by_products(q, w, cword), (
                    cword, w.mat)


@pytest.mark.parametrize("q", QUIVERS)
def test_cover_criterion_matches_matrix_products(q):
    cword = coxeter_element_word(q)
    for t in enumerate_torsion_classes(q):
        report = cover_criterion_by_products(q, t, cword)
        assert cover_criterion_check(q, t, cword) == report
        given = cover_criterion_check(q, t, cword, sortable_of_torsion(q, t), a_of(q, t))
        assert given == report


@pytest.mark.parametrize("q", ONE_PER_GRAPH)
def test_pairing_minus_two_marks_the_cover_reflections(q):
    """(e_v, w(2 rho)) = -2 exactly when s_v is a cover reflection of w, on
    all of W: the rule the vector recursions use."""
    for w in weyl_group(q):
        y = w.apply(_two_rho(q))
        covers = cover_reflections(q, w)
        for v in q.vertices:
            assert (_simple_pairing(q, v, y) == -2) == (simple_reflection(q, v) in covers)


@pytest.mark.parametrize("q", QUIVERS)
def test_braid_act_matches_matrix_reference(q):
    for seq in complete_exceptional_sequences(q):
        for i in range(1, q.n):
            for d in ("+", "-"):
                assert braid_act(q, i, seq, d) == braid_act_by_matrices(q, i, seq, d)


@pytest.mark.parametrize("q", QUIVERS)
def test_exceptional_test_matches_hom_and_ext(q):
    """Every sequence of positive roots of length at most n, repeats
    included, and a few that are not positive roots."""
    roots = positive_roots(q)
    for k in range(q.n + 1):
        for seq in itertools.product(roots, repeat=k):
            assert is_exceptional_sequence(q, seq) == is_exceptional_by_hom_ext(q, seq), seq
    for seq in ((tuple(-x for x in roots[0]),), ((2,) * q.n, roots[0]), (roots[0], (0,) * q.n)):
        assert not is_exceptional_sequence(q, seq)


@pytest.mark.parametrize("q", [p for p in QUIVERS if p.id.startswith(("a3-12.23", "d4-12.23.24"))])
def test_vector_oracles_multiply_no_matrices(q, monkeypatch):
    """Sortability, Reading's recursions, the cover criterion and the braid
    orbit run with matrix products, S-lengths and cover-reflection sets
    refused."""
    cword = coxeter_element_word(q)
    elements, seqs = weyl_group(q), complete_exceptional_sequences(q)
    classes = enumerate_torsion_classes(q)

    def refuse(*args, **kwargs):
        raise AssertionError("a vector oracle multiplied matrices")

    monkeypatch.setattr(GroupElement, "__mul__", refuse)
    for module in (weyl, ncmap):
        for name in ("length_S", "cover_reflections"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    sortables = [w for w in elements if is_c_sortable(q, w, cword)]
    assert len(sortables) == len(classes)
    for w in sortables:
        reading_nc(q, w, cword)
        reading_cl(q, w, cword)
    assert all(cover_criterion_check(q, t, cword).passed for t in classes)
    assert braid_orbit(q, seqs[0]) == frozenset(seqs)
