"""The `verify` suites: how many checks each one runs, that `--cap` reaches
every GF(2) search, that a check's message is built only when it fails, and
that a planted fault in a rewired law makes its suite exit 1."""

import re
import sys

import pytest

import latt_reference
from quivernc import coxeter_element, latt, ncmap, parse_quiver, positive_roots, replab, tors, verify
from quivernc import GroupElement, weyl
from quivernc.cli import main

A2 = "vertices 2\narrow 2 1"
A3 = "vertices 3\narrow 2 1\narrow 2 3"
A4 = "vertices 4\narrow 1 2\narrow 2 3\narrow 3 4"
D4 = "vertices 4\narrow 2 1\narrow 2 3\narrow 2 4"

# Instances per suite, as the suites print them: a cheaper check must keep
# the same laws and the same number of checks.
INSTANCES = {
    "a3": (A3, {"bijections": 289, "lattice": 810, "stability": 70, "exceptional": 20,
                "reading": 72}),
    "a4": (A4, {"bijections": 799, "lattice": 58, "stability": 168, "exceptional": 129,
                "reading": 212}),
    "d4": (D4, {"bijections": 951, "lattice": 68, "stability": 200, "exceptional": 166,
                "reading": 252}),
}


@pytest.mark.parametrize("text,counts", INSTANCES.values(), ids=INSTANCES)
def test_every_suite_runs_the_same_number_of_checks(capsys, text, counts):
    code = main(["verify", "--suite=all", text])
    out = capsys.readouterr().out
    assert code == 0
    found = re.findall(r"^(\w+): pass \((\d+) instances, 0 failures", out, re.M)
    assert {name: int(n) for name, n in found} == counts


@pytest.mark.parametrize("suite", ["bijections", "lattice"])
def test_cap_bounds_every_gf2_search(capsys, suite):
    """A3's extension searches reach total dimension 6; the lattice suite
    runs them in its closure joins."""
    code = main(["verify", f"--suite={suite}", "--cap", "5", A3])
    assert code == 3
    assert "exceeds the cap 5" in capsys.readouterr().err


def test_check_builds_the_message_only_on_failure():
    rep = verify.VerifyReport("x", parse_quiver(A2), 0, 12)

    def never():
        raise AssertionError("message built for a passing check")

    rep.check(True, never)
    rep.check(False, lambda: "built")
    rep.check(False, "plain")
    assert rep.instances == 3 and rep.failures == ["built", "plain"]


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_swapped_nc_images_fail_reading(capsys, monkeypatch, text):
    first, second = tors.enumerate_torsion_classes(parse_quiver(text))[:2]
    swap = {first: second, second: first}
    nc_of_torsion = ncmap.nc_of_torsion
    monkeypatch.setattr(ncmap, "nc_of_torsion", lambda q, t: nc_of_torsion(q, swap.get(t, t)))
    code = main(["verify", "--suite=reading", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("reading: FAIL") and out.count("nc coincidence fails") == 2


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_a_cl_image_without_its_largest_root_fails_reading(capsys, monkeypatch, text):
    """The fault sits in the suite's one walk per sortable element, after
    both of Reading's maps are read from it."""
    reading_images = ncmap._reading_images

    def drop_one(q, w, c_word):
        nc, cl = reading_images(q, w, c_word)
        return nc, (cl - {max(cl)} if len(cl) > 1 else cl)

    monkeypatch.setattr(ncmap, "_reading_images", drop_one)
    code = main(["verify", "--suite=reading", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("reading: FAIL") and "cl coincidence fails" in out


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_an_identity_sortable_fails_the_round_trip(capsys, monkeypatch, text):
    nonzero = tors.enumerate_torsion_classes(parse_quiver(text))[1]
    assert nonzero
    sortable_of_torsion = ncmap.sortable_of_torsion
    monkeypatch.setattr(
        ncmap, "sortable_of_torsion",
        lambda q, t: GroupElement.identity(q.n) if t == nonzero else sortable_of_torsion(q, t),
    )
    code = main(["verify", "--suite=reading", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("reading: FAIL") and "sortable/torsion round trip fails" in out


def test_reading_walks_once_per_sortable_element(capsys, monkeypatch):
    """Sortability and both of Reading's maps come from one walk of his
    induction per sortable element: 50 on D4."""
    walk, starts = weyl._reading_descents, []

    def counted(q, y, c_word):
        starts.append(tuple(y))
        return walk(q, y, c_word)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quivernc" and getattr(module, "_reading_descents", None) is walk:
            monkeypatch.setattr(module, "_reading_descents", counted)
    code = main(["verify", "--suite=reading", D4])
    assert code == 0 and capsys.readouterr().out.startswith("reading: pass")
    assert len(starts) == len(set(starts)) == 50


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_reversed_reflection_product_fails_exceptional(capsys, monkeypatch, text):
    """The fault sits where the suite multiplies. Reversing every product at
    once, the Coxeter element's included, is the anti-automorphism
    w -> w^-1 of W, under which the law still holds."""
    product = verify.reflection_product
    monkeypatch.setattr(verify, "reflection_product", lambda q, roots: product(q, roots[::-1]))
    code = main(["verify", "--suite=exceptional", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("exceptional: FAIL") and "reflection product != cox" in out


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_no_suite_builds_the_weyl_group(capsys, monkeypatch, text):
    def refuse(*args, **kwargs):
        raise AssertionError("a verify suite built the Weyl group")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quivernc" and getattr(module, "weyl_group", None) is latt.weyl_group:
            monkeypatch.setattr(module, "weyl_group", refuse)
    code = main(["verify", "--suite=all", text])
    out = capsys.readouterr().out
    assert code == 0 and out.count(": pass (") == 5


@pytest.mark.parametrize("suite,message", [
    ("bijections", "counts disagree"),
    ("reading", "sortable elements vs"),
])
def test_a_dropped_sortable_fails(capsys, monkeypatch, suite, message):
    c_sortable_elements = latt.c_sortable_elements

    def all_but_the_last(q, c_word):
        return iter(list(c_sortable_elements(q, c_word))[:-1])

    monkeypatch.setattr(latt, "c_sortable_elements", all_but_the_last)
    code = main(["verify", f"--suite={suite}", D4])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(f"{suite}: FAIL") and message in out


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_a_cambrian_poset_without_its_top_fails_lattice(capsys, monkeypatch, text):
    """Dropping the class of every root leaves a poset with no join for its
    coatoms."""
    cambrian_poset = latt.cambrian_poset

    def without_top(q):
        everything = frozenset(positive_roots(q))
        kept = [t for t in cambrian_poset(q).payloads if t != everything]
        return latt_reference.from_elements(kept, lambda a, b: a <= b)

    monkeypatch.setattr(latt, "cambrian_poset", without_top)
    code = main(["verify", "--suite=lattice", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("lattice: FAIL") and "Cambrian poset is not a lattice" in out


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_a_cambrian_poset_without_a_middle_class_fails_n_regularity(capsys, monkeypatch, text):
    """Dropping a class that is neither the bottom nor the top changes the
    number of covers at its neighbours."""
    cambrian_poset = latt.cambrian_poset

    def without_a_middle_class(q):
        classes = cambrian_poset(q).payloads
        return latt.inclusion_poset(classes[:len(classes) // 2] + classes[len(classes) // 2 + 1:])

    monkeypatch.setattr(latt, "cambrian_poset", without_a_middle_class)
    code = main(["verify", "--suite=lattice", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("lattice: FAIL") and "n-regularity fails at T=" in out


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_a_cleared_nc_comparability_fails_reading(capsys, monkeypatch, text):
    """Clearing e <= cox(Q), the first and last elements of NC, breaks the
    isomorphism at the zero class against the class of every root."""
    noncrossing_partitions = verify.noncrossing_partitions

    def without_e_below_cox(q):
        nc = noncrossing_partitions(q)
        last = len(nc) - 1
        up = (nc.up[0] & ~(1 << last),) + nc.up[1:]
        down = nc.down[:last] + (nc.down[last] & ~1,)
        return latt.FinitePoset(nc.payloads, up, down)

    monkeypatch.setattr(verify, "noncrossing_partitions", without_e_below_cox)
    code = main(["verify", "--suite=reading", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("reading: FAIL") and out.count("order isomorphism fails") == 1


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_an_image_outside_nc_fails_reading(capsys, monkeypatch, text):
    """The zero class sent to cox(Q)^2, which lies outside [e, cox(Q)]: the
    order isomorphism reads absolute order from NC alone, so the image has
    no up-set there, while the up-set of the zero wide subcategory holds
    every class."""
    q = parse_quiver(text)
    zero = tors.enumerate_torsion_classes(q)[0]
    square = coxeter_element(q) * coxeter_element(q)
    assert square not in latt.noncrossing_partitions(q).payloads
    nc_of_torsion = ncmap.nc_of_torsion
    monkeypatch.setattr(
        ncmap, "nc_of_torsion", lambda q, t: square if t == zero else nc_of_torsion(q, t)
    )
    code = main(["verify", "--suite=reading", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("reading: FAIL") and "order isomorphism fails at {}\n" in out


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_a_gen_that_drops_a_root_fails_bijections(capsys, monkeypatch, text):
    """The GF(2) trace loses the largest root of every answer with more than
    one, so Gen of a(T) misses a root of T."""
    gen = replab.gen

    def drop_one(q, s):
        out = gen(q, s)
        return out - {max(out)} if len(out) > 1 else out

    monkeypatch.setattr(replab, "gen", drop_one)
    code = main(["verify", "--suite=bijections", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("bijections: FAIL") and "gen(a(T)) != T" in out


@pytest.mark.parametrize("text", [A3, D4], ids=["a3", "d4"])
def test_a_perp_space_without_its_last_root_fails_bijections(capsys, monkeypatch, text):
    """Upper summand roots are linearly independent, so leaving one out
    enlarges the intersection of their perpendiculars."""
    perp = ncmap._perp_intersection
    monkeypatch.setattr(ncmap, "_perp_intersection", lambda q, roots: perp(q, roots[:-1]))
    code = main(["verify", "--suite=bijections", text])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("bijections: FAIL") and "fixed-space description fails" in out
