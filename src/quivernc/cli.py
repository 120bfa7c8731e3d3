"""Command-line surface.

Verbs: roots, ar, enumerate, map, table, verify.  The quiver argument is a
file path or inline DSL text.  All data output uses canonical orderings so
repeated runs are byte-identical.  `--format` takes tsv or json (`ar` also
dot); `map` reads and writes JSON only.

Six kinds of object correspond one to one with the torsion classes:
cluster tilting and support tilting objects, torsion classes, wide
subcategories, noncrossing partitions and sortable elements.  `_KINDS`
holds, per kind, a map to the torsion class and one back from it; each is
the library's own checked map.  `map` sends its object to its torsion class
and on to the target kind; `table` prints every kind of every torsion
class.  A `map` input must be the image of its own torsion class, or it is
a usage error.  `enumerate`, `map` and `table` print each kind one way,
with one helper per kind and format: root sets sorted, cluster summands in
`CCIndec.sort_key` order, group elements as reduced word and matrix.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap or
type error, 4 internal error (an invariant check failed, such as a
`FingerprintError` or the minimal-generator check: a bug, not bad input),
5 output closed early (a broken pipe, as in `quivernc ... | head -1`).

Every verb but `verify` runs on the integer fast path.  `cmd_verify`
imports the oracle module `verify` when it runs, so the other verbs never
load `replab`, `latt`, `stab` or `verify`; `SUITES` names the suites, and
suite `x` is `verify.suite_x`.  Each suite's report is printed when the
suite finishes, before the next one runs or refuses.

`main(argv)` may be called repeatedly in one process, as a query server
does.  The argument parser is built once per process, and each call parses
its argv once, with the verb's own subparser.  The quiver file is
read again on every call, so an edited file is picked up; `parse_quiver` is
memoised on the text, so the same text yields the same `Quiver` object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from functools import lru_cache

from . import cluster as clus
from . import ncmap, tors
from .errors import NotFiniteTypeError, OracleCapError, QuiverSyntaxError
from .quiver import Quiver, parse_quiver, positive_roots
from .weyl import (
    ar_dot,
    ar_linear_order,
    ar_quiver,
    inversion_set,
    reduced_word,
    reflection_root,
    word_to_element,
)

USAGE_ERROR, CAP_ERROR, INTERNAL_ERROR, OUTPUT_CLOSED = 2, 3, 4, 5

# The `verify` suites, in run order.
SUITES = ("bijections", "lattice", "stability", "exceptional", "reading")


def _load_quiver(arg: str) -> Quiver:
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                return parse_quiver(fh.read())
        except OSError as exc:
            raise QuiverSyntaxError(f"cannot read {arg!r}: {exc.strerror}") from exc
    if "vertices" in arg:
        return parse_quiver(arg)
    raise QuiverSyntaxError(f"no such file and not inline DSL: {arg!r}")


def _root_str(r) -> str:
    return "[" + ",".join(str(x) for x in r) + "]"


def _roots_text(s, root_str=_root_str) -> str:
    """A set of roots, sorted, each drawn by root_str; "0" when empty."""
    return "+".join(root_str(r) for r in sorted(s)) if s else "0"


def _roots_json(s) -> list:
    return [list(r) for r in sorted(s)]


def _summands(t) -> list[clus.CCIndec]:
    """The summands of a cluster tilting object in their canonical order."""
    return sorted(t, key=clus.CCIndec.sort_key)


def _summands_text(t, root_str=_root_str) -> str:
    return "+".join(f"P{x.shift}[1]" if x.is_shift else "M" + root_str(x.root)
                    for x in _summands(t))


def _word_str(word) -> str:
    return "e" if not word else ".".join(f"s{v}" for v in word)


def _nc_str(q: Quiver, w) -> str:
    """Reflections render as s[root coords], other elements as reduced words."""
    root = reflection_root(q, w)
    if root is not None:
        return "s" + _root_str(root)
    return _word_str(reduced_word(q, w))


def _element_json(q: Quiver, w) -> dict:
    return {"word": list(reduced_word(q, w)), "matrix": [list(r) for r in w.mat]}


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def cmd_roots(q: Quiver, args) -> int:
    roots = positive_roots(q)
    if args.format == "json":
        print(_json([list(r) for r in roots]))
    else:
        for r in roots:
            print(_root_str(r))
    return 0


def cmd_ar(q: Quiver, args) -> int:
    if args.format == "dot":
        print(ar_dot(q))
    elif args.format == "json":
        print(_json([[list(a), list(b)] for a, b in ar_quiver(q)]))
    else:
        for a, b in ar_quiver(q):
            print(f"{_root_str(a)}\t{_root_str(b)}")
    return 0


def _enumerate_rows(q: Quiver, what: str) -> Sequence:
    if what == "torsion":
        return tors.enumerate_torsion_classes(q)
    if what == "support-tilting":
        return tors.enumerate_support_tilting(q)
    if what == "clusters":
        return clus.cluster_tilting_objects(q)
    if what == "nc":
        return [
            ncmap.nc_of_torsion(q, t) for t in tors.enumerate_torsion_classes(q)
        ]
    if what == "sortables":
        words = [ncmap.sorting_word_of_torsion(q, t) for t in tors.enumerate_torsion_classes(q)]
        return sorted(words, key=lambda w: (len(w), w))
    if what == "exceptional":
        return ncmap.complete_exceptional_sequences(q)
    raise ValueError(f"unknown enumeration {what!r}")


def cmd_enumerate(q: Quiver, args) -> int:
    rows = _enumerate_rows(q, args.what)
    # row -> its JSON value, row -> its text line
    as_json, as_text = {
        "torsion": (_roots_json, _roots_text),
        "support-tilting": (_roots_json, _roots_text),
        "clusters": (lambda t: [x.to_obj() for x in _summands(t)], _summands_text),
        "nc": (lambda w: _element_json(q, w), lambda w: _nc_str(q, w)),
        "sortables": (list, _word_str),
        "exceptional": (lambda s: [list(r) for r in s], lambda s: "+".join(map(_root_str, s))),
    }[args.what]
    if args.format == "json":
        print(_json([as_json(row) for row in rows]))
    else:
        for row in rows:
            print(as_text(row))
    print(f"# {len(rows)} rows", file=sys.stderr)
    return 0


def _int_list(x) -> bool:
    return isinstance(x, list) and all(type(v) is int for v in x)


def _summand(x) -> clus.CCIndec:
    if isinstance(x, dict) and type(x.get("shift")) is int:
        return clus.cc_shift(x["shift"])
    if isinstance(x, dict) and _int_list(x.get("rep")):
        return clus.cc_rep(tuple(x["rep"]))
    raise ValueError(f'a cluster summand is {{"shift": v}} or {{"rep": root}}, not {x!r}')


def _parse_object(q: Quiver, kind: str, text: str):
    try:
        obj = json.loads(text)
    except RecursionError:  # a RuntimeError, but the fault is in the input
        raise ValueError("the JSON object is nested too deeply") from None
    if kind in ("support", "torsion", "wide"):
        if not (isinstance(obj, list) and all(_int_list(r) for r in obj)):
            raise ValueError(f"a {kind} object is a list of dimension vectors")
        return frozenset(tuple(r) for r in obj)
    if kind == "cluster":
        summands = obj.get("summands") if isinstance(obj, dict) else None
        if not isinstance(summands, list):
            raise ValueError('a cluster object is {"summands": [summand, ...]}')
        return frozenset(_summand(x) for x in summands)
    if kind in ("nc", "sortable"):
        word = obj.get("word") if isinstance(obj, dict) else None
        if not _int_list(word):
            raise ValueError('a group element is {"word": [vertex, ...]}')
        return word_to_element(q, tuple(word))
    raise ValueError(f"unknown object kind {kind!r}")


def _emit_object(q: Quiver, kind: str, obj) -> str:
    if kind in ("support", "torsion", "wide"):
        return _json(_roots_json(obj))
    if kind == "cluster":
        return _json({"summands": [x.to_obj() for x in _summands(obj)]})
    if kind in ("nc", "sortable"):
        return _json(_element_json(q, obj))
    raise ValueError(f"unknown object kind {kind!r}")


# kind: (name, object -> its torsion class, row -> object), in the column
# order of `table`.  A row holds the objects of one torsion class, and each
# map reads the ones it starts from out of the row, so a `table` row or a
# `map` query computes the Ext-projectives and a(T) once.  The lambdas look
# each map up at call time, so a patched or traced library function is the
# one that runs.
_KINDS = {
    "cluster": ("a cluster tilting object",
                lambda q, x: clus.gen_of(q, x),
                lambda q, row: clus.complete_support_tilting(q, row["support"])),
    "support": ("a support tilting object",
                lambda q, x: tors.torsion_closure(q, x),
                lambda q, row: tors.ext_projectives(q, row["torsion"])),
    "torsion": ("a torsion class",
                lambda q, x: tors.torsion_closure(q, x),
                lambda q, row: row["torsion"]),
    "wide": ("a wide subcategory",
             lambda q, x: tors.torsion_closure(q, x),
             lambda q, row: tors.a_of(q, row["torsion"], row["support"])),
    "nc": ("a noncrossing partition",
           lambda q, w: tors.torsion_closure(q, ncmap.wide_of_nc(q, w)),
           lambda q, row: ncmap.cox_of_wide(q, row["wide"])),
    "sortable": ("a sortable element",
                 lambda q, w: tors.torsion_closure(q, inversion_set(q, w)),
                 lambda q, row: ncmap.sortable_of_torsion(q, row["torsion"])),
}


class _Row(dict):
    """The objects of one torsion class by kind, each made by its `_KINDS`
    map the first time it is looked up."""

    def __init__(self, q: Quiver, t: frozenset):
        super().__init__(torsion=t)
        self.q = q

    def __missing__(self, kind: str):
        obj = self[kind] = _KINDS[kind][2](self.q, self)
        return obj


def _row_of(q: Quiver, kind: str, obj) -> _Row:
    """The row of obj's torsion class, checked by the round trip: each
    `_KINDS` map from a row is a bijection from the torsion classes onto its
    kind, inverted there by to_torsion, so obj is of its kind exactly when
    it is its class's image."""
    name, to_torsion, _ = _KINDS[kind]
    row = _Row(q, to_torsion(q, obj))
    if row[kind] != obj:
        raise ValueError(f"input is not {name} of this quiver")
    return row


def cmd_map(q: Quiver, args) -> int:
    row = _row_of(q, args.src, _parse_object(q, args.src, args.object))
    print(_emit_object(q, args.dst, row[args.dst]))
    return 0


def cmd_table(q: Quiver, args) -> int:
    """One row per torsion class: its object of every kind in `_KINDS`.

    Roots in the text table carry their AR-quiver position as [coords]#k.
    The sortable column is the c-sorting word, read off the torsion class.
    """
    ar_pos = {r: i + 1 for i, r in enumerate(ar_linear_order(q))}

    def root_at(r) -> str:
        return f"{_root_str(r)}#{ar_pos[r]}"

    rows = []
    for t in tors.enumerate_torsion_classes(q):
        row = _Row(q, t)
        rows.append((row["cluster"], row["support"], t, row["wide"], row["nc"],
                     ncmap.sorting_word_of_torsion(q, t)))
    if args.format == "json":
        print(
            _json(
                {
                    "ar_order": [list(r) for r in ar_linear_order(q)],
                    "rows": [
                        {
                            "cluster_tilting": [x.to_obj() for x in _summands(ct)],
                            "support_tilting": _roots_json(c),
                            "torsion_class": _roots_json(t),
                            "wide_subcategory": _roots_json(wide),
                            **{f"nc_{k}": v for k, v in _element_json(q, nc).items()},
                            "sortable_word": list(word),
                        }
                        for ct, c, t, wide, nc, word in rows
                    ],
                }
            )
        )
    else:
        print("cluster_tilting\tsupport_tilting\ttorsion_class\twide_subcategory\tnc\tsortable")
        for ct, c, t, wide, nc, word in rows:
            print(
                "\t".join(
                    [
                        _summands_text(ct, root_at),
                        _roots_text(c, root_at),
                        _roots_text(t, root_at),
                        _roots_text(wide, root_at),
                        _nc_str(q, nc),
                        _word_str(word),
                    ]
                )
            )
    return 0


def cmd_verify(q: Quiver, args) -> int:
    from . import verify  # the oracle path: only this verb loads it

    failed = False
    for name in SUITES if args.suite == "all" else (args.suite,):
        rep = getattr(verify, f"suite_{name}")(q, args.seed, args.cap)
        status = "pass" if rep.passed else "FAIL"
        print(
            f"{rep.suite}: {status} ({rep.instances} instances,"
            f" {len(rep.failures)} failures, {rep.wall_time:.2f}s)"
        )
        for payload in rep.failures:
            print(f"  counterexample: {payload}")
        if args.format == "json":
            print(rep.to_json())
        sys.stdout.flush()  # out before a later suite runs, or refuses on stderr
        failed = failed or not rep.passed
    return 1 if failed else 0


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every call: it depends only
    on module constants, and `parse_args` keeps no state between calls.
    Its `verbs` dict holds each verb's subparser, for `_parse_argv`.
    Callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="quivernc",
        description="Torsion classes, clusters, noncrossing partitions and "
        "their bijections for finite-type quivers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = {}

    def add(name: str, formats=("tsv", "json"), **kwargs):
        p = parser.verbs[name] = sub.add_parser(name, **kwargs)
        p.add_argument("quiver", help="path to a quiver file, or inline DSL")
        if formats:
            p.add_argument("--format", choices=formats, default="tsv")
        return p

    add("roots", help="positive roots in canonical order")
    add("ar", formats=("tsv", "json", "dot"), help="Auslander-Reiten quiver (tsv, json or dot)")
    p = add("enumerate", help="enumerate objects of one kind")
    p.add_argument(
        "--what",
        required=True,
        choices=("torsion", "support-tilting", "clusters", "nc", "sortables", "exceptional"),
    )
    p = add("map", formats=(), help="map an object to another kind (JSON in, JSON out)")
    p.add_argument("--from", dest="src", required=True, choices=tuple(_KINDS))
    p.add_argument("--to", dest="dst", required=True, choices=tuple(_KINDS))
    p.add_argument("--object", required=True, help="JSON encoding of the source object")
    add("table", help="the full correspondence table, one row per torsion class")
    p = add("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=SUITES + ("all",),
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random stability coefficients")
    p.add_argument("--cap", type=positive_int, default=12, help="oracle total-dimension cap")
    return parser


COMMANDS = {
    "roots": cmd_roots,
    "ar": cmd_ar,
    "enumerate": cmd_enumerate,
    "map": cmd_map,
    "table": cmd_table,
    "verify": cmd_verify,
}


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, with argv parsed once: the
    top-level parser would only hand argv[1:] to the verb's subparser.
    Anything else in argv[0] (`-h`, a typo, nothing) goes to the top-level
    parser, and leftover arguments get its error, as they would there."""
    parser = build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is None:
        return parser.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        q = _load_quiver(args.quiver)
        code = COMMANDS[args.verb](q, args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # As the Python docs advise for SIGPIPE: point stdout at devnull, so
        # that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return OUTPUT_CLOSED
    except (NotFiniteTypeError, OracleCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (QuiverSyntaxError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:  # FingerprintError and the internal invariant checks
        print(f"error: internal: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
