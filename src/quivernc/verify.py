"""Verification suites: exhaustive desk-scale checks of the structural
theorems, reported with counterexample payloads on failure.

A check's counterexample text is built only when the check fails: pass it
as a callable, and `VerifyReport.check` calls it then.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from . import cluster as cl
from . import __version__, latt, ncmap, replab, stab, tors
from .latt import absolute_length, noncrossing_partitions
from .quiver import Quiver, coxeter_element_word, positive_roots, support
from .weyl import coxeter_element, reduced_word, reflection_product, word_to_element


@dataclass
class VerifyReport:
    suite: str
    quiver: Quiver
    seed: int
    cap: int
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, payload: str | Callable[[], str]) -> None:
        self.instances += 1
        if not ok:
            self.failures.append(payload() if callable(payload) else payload)

    def to_json(self) -> str:
        import hashlib  # loads OpenSSL, ~3.5 MB resident: only JSON reports pay for it

        return json.dumps(
            {
                "check": self.suite,
                "instances": self.instances,
                "failures": self.failures,
                "wall_time": self.wall_time,
                "seed": self.seed,
                "cap": self.cap,
                "quiver_sha256": hashlib.sha256(self.quiver.to_json().encode()).hexdigest(),
                "version": __version__,
            }
        )


def _roots_str(s) -> str:
    return "{" + ",".join(str(list(r)) for r in sorted(s)) + "}"


def min_deletions_to_identity(q: Quiver, word: tuple[int, ...]) -> int:
    """Dyer's characterization of absolute length: fewest letters to delete
    from a reduced word to leave a factorization of the identity."""
    for k in range(len(word) + 1):
        for gone in itertools.combinations(range(len(word)), k):
            remaining = tuple(v for i, v in enumerate(word) if i not in gone)
            if word_to_element(q, remaining).is_identity():
                return k
    raise RuntimeError("unreachable: deleting every letter yields the identity")


def suite_bijections(q: Quiver, seed: int = 0, cap: int = 12) -> VerifyReport:
    rep = VerifyReport("bijections", q, seed, cap)
    t0 = time.monotonic()
    classes = tors.enumerate_torsion_classes(q)
    tiltings = tors.enumerate_support_tilting(q)
    cts = cl.cluster_tilting_objects(q)
    nc_elems = {ncmap.nc_of_torsion(q, t) for t in classes}
    cword = coxeter_element_word(q)
    sortable_count = sum(1 for _ in latt.c_sortable_elements(q, cword))
    counts = {len(classes), len(tiltings), len(cts), len(nc_elems), sortable_count}
    rep.check(len(counts) == 1, f"counts disagree: {sorted(counts)}")

    # ext_projectives and a_of refuse a set that is not a torsion class, so an
    # oracle answer reaches them only once it is one of the classes
    class_set = set(classes)
    for c in tiltings:
        g = replab.gen(q, c)
        rep.check(
            g in class_set and tors.ext_projectives(q, g) == c,
            lambda: f"ext_projectives(gen(C)) != C for C={_roots_str(c)}",
        )
    for t in classes:
        rep.check(
            replab.gen(q, tors.ext_projectives(q, t)) == t,
            lambda: f"gen(ext_projectives(T)) != T for T={_roots_str(t)}",
        )
        wide = tors.a_of(q, t)
        g = replab.gen(q, wide)
        rep.check(g == t, lambda: f"gen(a(T)) != T for T={_roots_str(t)}")
        rep.check(
            g in class_set and tors.a_of(q, g) == wide,
            lambda: f"a(gen(A)) != A for A={_roots_str(wide)}",
        )
    for c in tiltings:
        ct = cl.complete_support_tilting(q, c)
        rep.check(
            cl.support_tilting_of(ct) == c and ct in cts,
            lambda: f"completion round trip failed for C={_roots_str(c)}",
        )

    split_cache: dict = {}

    def split_of(t):
        if t not in split_cache:
            split_cache[t] = tors.split_projectives(q, t)
        return split_cache[t]

    for ct in cts:
        rep.check(len(ct) == q.n, lambda: f"cluster tilting with {len(ct)} summands")
        gen_t = cl.gen_of(q, ct)
        for x in sorted(ct, key=cl.CCIndec.sort_key):
            v = cl.mutate(q, ct, x)
            y = next(z for z in v if z not in ct)
            rep.check(
                cl.mutate(q, v, y) == ct,
                lambda: f"mutation not involutive at {x!r}"
                f" of {_roots_str(cl.support_tilting_of(ct))}",
            )
            gen_v = cl.gen_of(q, v)
            x_split = (not x.is_shift) and x.root in split_of(gen_t)
            y_split = (not y.is_shift) and y.root in split_of(gen_v)
            rep.check(
                x_split != y_split,
                lambda: f"exactly-one-split-complement fails at {x!r}",
            )
            rep.check(
                (gen_v < gen_t) if x_split else (gen_v > gen_t),
                lambda: f"mutation order law fails at {x!r}",
            )
        rs = ncmap.rs_check(q, ct)
        rep.check(rs.passed, lambda: f"fixed-space description fails for {rs.cluster_tilting}")

    if q.n <= 3:  # exhaustive oracle cross-check
        for k in range(len(positive_roots(q)) + 1):
            for sub in itertools.combinations(positive_roots(q), k):
                s = frozenset(sub)
                rep.check(
                    replab.is_torsion_class(q, s, cap) == (s in class_set),
                    lambda: f"oracle disagrees on {_roots_str(s)}",
                )
    rep.wall_time = time.monotonic() - t0
    return rep


def suite_lattice(q: Quiver, seed: int = 0, cap: int = 12) -> VerifyReport:
    rep = VerifyReport("lattice", q, seed, cap)
    t0 = time.monotonic()
    rep.check(
        latt.lattice_analyze(noncrossing_partitions(q)).is_lattice, "NC poset is not a lattice"
    )

    cp = latt.cambrian_poset(q)
    analysis = latt.lattice_analyze(cp)
    nroots = len(positive_roots(q))
    rep.check(analysis.is_lattice, "Cambrian poset is not a lattice")
    rep.check(analysis.is_trim, "Cambrian lattice is not trim")
    degree = Counter(itertools.chain.from_iterable(cp.covers()))  # n-regular: n up and down
    for i, t in enumerate(cp.payloads):
        rep.check(degree[i] == q.n,
                  lambda: f"n-regularity fails at T={_roots_str(t)}: {degree[i]} covers")
    rep.check(
        len(analysis.join_irreducibles)
        == len(analysis.meet_irreducibles)
        == analysis.longest_chain
        == nroots,
        f"irreducible counts/chain {len(analysis.join_irreducibles)},"
        f"{len(analysis.meet_irreducibles)},{analysis.longest_chain} != {nroots}",
    )
    ji_payloads = {cp.payloads[i] for i in analysis.join_irreducibles}
    rep.check(
        ji_payloads == set(latt.principal_torsion_classes(q)),
        "join-irreducibles are not the principal torsion classes",
    )
    chain = latt.splitting_chain(q)
    classes = tors.enumerate_torsion_classes(q)
    class_set = set(classes)
    for s in chain:
        rep.check(
            s in class_set, lambda: f"splitting class {_roots_str(s)} is not a torsion class"
        )
    if q.n <= 3 and analysis.is_lattice:  # joins and meets exist
        idx = {p: i for i, p in enumerate(cp.payloads)}
        join, meet = latt.bounds(cp)
        # The closure-based join must agree with the poset-theoretic one.
        for i, t1 in enumerate(cp.payloads):
            for j, t2 in enumerate(cp.payloads):
                rep.check(
                    latt.torsion_join(q, t1, t2, cap) == cp.payloads[join(i, j)],
                    lambda: f"closure join disagrees with lattice join at"
                    f" {_roots_str(t1)}, {_roots_str(t2)}",
                )
                rep.check(
                    cp.payloads[meet(i, j)] == (t1 & t2),
                    "meet is not intersection",
                )
        # Splitting classes are left modular (the input to trimness).
        for s in chain:
            x = idx[s]
            for y, above in enumerate(cp.up):
                for z in latt._bits_of(above & ~(1 << y)):
                    rep.check(
                        meet(join(y, x), z) == join(y, meet(x, z)),
                        lambda: f"left-modularity fails at S={_roots_str(s)}",
                    )
    rep.wall_time = time.monotonic() - t0
    return rep


def suite_stability(q: Quiver, seed: int = 0, cap: int = 12) -> VerifyReport:
    rep = VerifyReport("stability", q, seed, cap)
    t0 = time.monotonic()
    rng = random.Random(seed)
    for c in tors.enumerate_support_tilting(q):
        r = stab.verify_semistable_theorem(q, c, cap=cap)
        rep.check(
            r.passed,
            lambda: f"default coefficients: semistable {r.semistable} != wide {r.wide}"
            f" for C={_roots_str(c)}",
        )
        split = tors.split_projectives(q, tors.torsion_closure(q, c))
        supp: set[int] = set()
        for root in c:
            supp |= support(root)
        for _ in range(3):
            a = {root: (0 if root in split else rng.choice([1, 2, 3])) for root in c}
            b = {v: rng.choice([-1, -2]) for v in q.vertices if v not in supp}
            r = stab.verify_semistable_theorem(q, c, a, b, cap=cap)
            rep.check(
                r.passed,
                lambda: f"coefficients a={a}, b={b}: semistable {r.semistable} != wide"
                f" {r.wide} for C={_roots_str(c)}",
            )
        if q.n <= 3:
            rep.check(
                replab.is_wide(q, frozenset(r.semistable), cap),
                lambda: f"semistables of C={_roots_str(c)} fail the wide oracle",
            )
    rep.wall_time = time.monotonic() - t0
    return rep


def suite_exceptional(q: Quiver, seed: int = 0, cap: int = 12) -> VerifyReport:
    rep = VerifyReport("exceptional", q, seed, cap)
    t0 = time.monotonic()
    cox = coxeter_element(q)
    seqs = ncmap.complete_exceptional_sequences(q)
    for s in seqs:
        rep.check(reflection_product(q, s) == cox, lambda: f"reflection product != cox for {s}")
    rep.check(
        ncmap.braid_orbit(q, seqs[0]) == frozenset(seqs),
        "braid action is not transitive on complete exceptional sequences",
    )
    if q.n >= 3:
        s0 = seqs[0]
        lhs = ncmap.braid_act(q, 1, ncmap.braid_act(q, 2, ncmap.braid_act(q, 1, s0)))
        rhs = ncmap.braid_act(q, 2, ncmap.braid_act(q, 1, ncmap.braid_act(q, 2, s0)))
        rep.check(lhs == rhs, "braid relation s1 s2 s1 = s2 s1 s2 fails")
    lt = absolute_length(q, cox)
    rep.check(lt == q.n, f"l_T(cox) = {lt} != n")
    rep.check(
        min_deletions_to_identity(q, reduced_word(q, cox)) == q.n,
        "Dyer deletion count for cox disagrees with n",
    )
    rep.wall_time = time.monotonic() - t0
    return rep


def suite_reading(q: Quiver, seed: int = 0, cap: int = 12) -> VerifyReport:
    rep = VerifyReport("reading", q, seed, cap)
    t0 = time.monotonic()
    cword = coxeter_element_word(q)
    sortables = list(latt.c_sortable_elements(q, cword))
    classes = tors.enumerate_torsion_classes(q)
    rep.check(
        len(sortables) == len(classes),
        f"{len(sortables)} sortable elements vs {len(classes)} torsion classes",
    )
    # per class: its Ext-projectives, a(T) and nc(T), each once
    projectives = {t: tors.ext_projectives(q, t) for t in classes}
    wide_of = {t: tors.a_of(q, t, projectives[t]) for t in classes}
    nc_of = {t: ncmap.nc_of_torsion(q, t) for t in classes}
    for w in sortables:
        t = ncmap.torsion_of_sortable(q, w)
        sortable = ncmap.sortable_of_torsion(q, t)
        rep.check(
            sortable == w,
            lambda: f"sortable/torsion round trip fails at {reduced_word(q, w)}",
        )
        reading_nc, reading_cl = ncmap._reading_images(q, w, cword)  # one walk
        rep.check(
            reading_nc == nc_of.get(t),
            lambda: f"nc coincidence fails at {reduced_word(q, w)}",
        )
        rep.check(
            reading_cl == projectives.get(t),
            lambda: f"cl coincidence fails at {reduced_word(q, w)}",
        )
        ccr = ncmap.cover_criterion_check(q, t, cword, sortable, wide_of.get(t))
        rep.check(
            ccr.passed,
            lambda: f"cover criterion fails at T={_roots_str(t)}: letters {ccr.failures}",
        )
    # The order isomorphism pairs wide subcategories under inclusion with
    # NC_Q under absolute order (inclusion of torsion classes is the
    # Cambrian order, a different poset). T -> nc(T) is onto NC, and the NC
    # up-set of each nc(T) is the image of the up-set of a(T). Absolute
    # order is read from NC alone: an image outside NC has the empty up-set,
    # so its class fails.
    nc = noncrossing_partitions(q)
    nc_index = {w: i for i, w in enumerate(nc.payloads)}
    rep.check(set(nc_of.values()) == set(nc_index), "nc_of_torsion is not onto NC")
    position = [nc_index.get(nc_of[t], len(nc)) for t in classes]
    nc_up = nc.up + (0,)
    wides = latt.inclusion_poset([wide_of[t] for t in classes])
    for i, above in enumerate(wides.up):
        image = 0
        for j in latt._bits_of(above):
            image |= 1 << position[j]
        rep.check(
            nc_up[position[i]] == image,
            lambda: f"order isomorphism fails at {_roots_str(wides.payloads[i])}",
        )
    rep.wall_time = time.monotonic() - t0
    return rep

