import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quivernc
from latt_reference import absolute_leq, weyl_group
from quivernc import (
    cluster_tilting_objects,
    coxeter_element,
    enumerate_support_tilting,
    is_c_sortable,
    ncmap,
    parse_quiver,
    positive_roots,
    replab,
    tors,
    weyl,
)
from quivernc import cli
from quivernc.cli import _KINDS, _emit_object, main
from quivernc.cluster import all_cc_indecs
from quivernc.quiver import coxeter_element_word
from quivernc.replab import is_torsion_class, is_wide

A2 = "vertices 2\narrow 2 1"
A3 = "vertices 3\narrow 2 1\narrow 2 3"
A5 = "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5"
D4 = "vertices 4\narrow 2 1\narrow 2 3\narrow 2 4"
WILD = "vertices 2\narrow 1 2\narrow 1 2\narrow 1 2"
A3_ORIENTATIONS = {
    f"a3-{a}{b}.{c}{d}": f"vertices 3\narrow {a} {b}\narrow {c} {d}"
    for (a, b), (c, d) in itertools.product(((1, 2), (2, 1)), ((2, 3), (3, 2)))
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRoots:
    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "roots", A2)
        assert code == 0
        assert out.splitlines() == ["[0,1]", "[1,0]", "[1,1]"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "roots", A2, "--format", "json")
        assert code == 0
        assert json.loads(out) == [[0, 1], [1, 0], [1, 1]]

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "a2.quiver"
        path.write_text(A2)
        code, out, _ = run(capsys, "roots", str(path))
        assert code == 0 and "[1,1]" in out


class TestAR:
    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "ar", A2)
        assert code == 0
        assert out.splitlines() == ["[1,0]\t[1,1]", "[1,1]\t[0,1]"]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "ar", A2, "--format", "dot")
        assert code == 0 and out.startswith("digraph")


class TestEnumerate:
    @pytest.mark.parametrize(
        "what,count",
        [
            ("torsion", 14),
            ("support-tilting", 14),
            ("clusters", 14),
            ("nc", 14),
            ("sortables", 14),
            ("exceptional", 16),
        ],
    )
    def test_counts_a3(self, capsys, what, count):
        code, out, err = run(capsys, "enumerate", "--what", what, A3)
        assert code == 0
        assert len(out.splitlines()) == count
        assert f"# {count} rows" in err

    def test_torsion_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--what", "torsion", A2, "--format", "json")
        rows = json.loads(out)
        assert [[0, 1], [1, 1]] in rows and len(rows) == 5


class TestMap:
    def test_round_trips_adjacent_pairs(self, capsys):
        torsion = json.dumps([[0, 1], [1, 1]])
        pairs = [
            ("torsion", "support"),
            ("torsion", "wide"),
            ("torsion", "nc"),
            ("torsion", "sortable"),
            ("torsion", "cluster"),
        ]
        for src, dst in pairs:
            code, fwd, _ = run(capsys, "map", A2, "--from", src, "--to", dst,
                               "--object", torsion)
            assert code == 0
            code, back, _ = run(capsys, "map", A2, "--from", dst, "--to", src,
                                "--object", fwd.strip())
            assert code == 0
            assert json.loads(back) == json.loads(torsion)

    def test_torsion_to_nc(self, capsys):
        code, out, _ = run(capsys, "map", A2, "--from", "torsion", "--to", "nc",
                           "--object", json.dumps([[0, 1], [1, 1]]))
        assert code == 0
        doc = json.loads(out)
        assert doc["word"] == [1, 2, 1]

    def test_wide_source_rejects_non_wide(self, capsys):
        # {S1, S2} is not wide: Ext(S2, S1) != 0 but [1,1] is missing
        for dst in ("torsion", "nc"):
            code, out, err = run(capsys, "map", A2, "--from", "wide", "--to", dst,
                                 "--object", json.dumps([[1, 0], [0, 1]]))
            assert code == 2 and out == ""
            assert "not a wide subcategory" in err

    def test_wide_source_accepts_wide(self, capsys):
        code, out, _ = run(capsys, "map", A2, "--from", "wide", "--to", "torsion",
                           "--object", json.dumps([[1, 1]]))
        assert code == 0 and json.loads(out) == [[0, 1], [1, 1]]
        code, out, _ = run(capsys, "map", A2, "--from", "wide", "--to", "nc",
                           "--object", json.dumps([[0, 1], [1, 0], [1, 1]]))
        assert code == 0 and json.loads(out)["word"] == [2, 1]

    @pytest.mark.parametrize("text", A3_ORIENTATIONS.values(), ids=A3_ORIENTATIONS)
    @pytest.mark.parametrize("kind", _KINDS)
    def test_check_accepts_exactly_its_kind(self, capsys, kind, text):
        """`map --from kind --to kind` echoes exactly the objects of the
        kind and rejects the rest of its universe: every set of roots, every
        element of W, every set of cluster-category indecomposables.  The
        objects of each kind come from searches that do not use the map."""
        q = parse_quiver(text)
        items = all_cc_indecs(q) if kind == "cluster" else positive_roots(q)
        universe = weyl_group(q) if kind in ("nc", "sortable") else [
            frozenset(s) for k in range(len(items) + 1) for s in itertools.combinations(items, k)]
        if kind == "cluster":
            members = set(cluster_tilting_objects(q))
        elif kind == "support":
            members = set(enumerate_support_tilting(q))
        else:
            is_member = {
                "torsion": lambda x: is_torsion_class(q, x),
                "wide": lambda x: is_wide(q, x),
                "nc": lambda w: absolute_leq(q, w, coxeter_element(q)),
                "sortable": lambda w: is_c_sortable(q, w, coxeter_element_word(q)),
            }[kind]
            members = {x for x in universe if is_member(x)}
        assert len(members) == 14
        for obj in universe:
            text_obj = _emit_object(q, kind, obj)
            got = run(capsys, "map", text, "--from", kind, "--to", kind, "--object", text_obj)
            assert got[:2] == ((0, text_obj + "\n") if obj in members else (2, "")), text_obj

    def test_bad_object(self, capsys):
        code, _, err = run(capsys, "map", A2, "--from", "torsion", "--to", "nc",
                           "--object", json.dumps([[9, 9]]))
        assert code == 2 and "error" in err


class TestTable:
    def test_a3_has_14_rows(self, capsys):
        code, out, _ = run(capsys, "table", A3)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 15  # header + 14 rows
        assert lines[0].startswith("cluster_tilting\t")

    def test_a1_two_rows(self, capsys):
        code, out, _ = run(capsys, "table", "vertices 1")
        assert code == 0 and len(out.splitlines()) == 3

    def test_json_cross_consistency(self, capsys):
        code, out, _ = run(capsys, "table", A2, "--format", "json")
        doc = json.loads(out)
        assert doc["ar_order"] == [[1, 0], [1, 1], [0, 1]]
        assert len(doc["rows"]) == 5
        for row in doc["rows"]:
            assert set(row) == {
                "cluster_tilting", "support_tilting", "torsion_class",
                "wide_subcategory", "nc_word", "nc_matrix", "sortable_word",
            }

    def test_tsv_cells_carry_ar_positions(self, capsys):
        _, out, _ = run(capsys, "table", A2)
        assert "[1,1]#2" in out  # middle of the AR order [1,0] < [1,1] < [0,1]
        assert "s[1,1]" in out   # the reflection rendering of one nc cell

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "table", A3)
        _, second, _ = run(capsys, "table", A3)
        assert first == second

    def test_a5_uncapped(self, capsys):
        code, out, _ = run(capsys, "table", A5)
        assert code == 0 and len(out.splitlines()) == 133  # header + 132 rows

    def test_each_row_computes_projectives_and_wide_once(self, capsys, monkeypatch):
        """The cluster, support and wide columns share the Ext-projectives,
        and the wide and nc columns share a(T)."""
        calls = {"ext_projectives": 0, "a_of": 0}
        for name in calls:
            def counted(*args, _fn=getattr(tors, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tors, name, counted)
        code, out, _ = run(capsys, "table", A3)
        assert code == 0 and calls == {"ext_projectives": 14, "a_of": 14}


class TestOracleFree:
    """Production verbs never enumerate GF(2) subrepresentations."""

    @pytest.fixture(autouse=True)
    def no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("production path reached the GF(2) oracle")

        monkeypatch.setattr(replab, "subrepresentation_subspaces", refuse)

    def test_table(self, capsys):
        code, out, _ = run(capsys, "table", D4)
        assert code == 0 and len(out.splitlines()) == 51

    def test_enumerate_nc(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--what", "nc", D4)
        assert code == 0 and len(out.splitlines()) == 50

    def test_map_nc_to_wide(self, capsys):
        obj = json.dumps({"word": [2, 1, 3, 4]})
        code, out, _ = run(capsys, "map", D4, "--from", "nc", "--to", "wide",
                           "--object", obj)
        assert code == 0 and len(json.loads(out)) == 12  # cox(Q): every root


class TestWeylFree:
    """Production verbs never invert a group element or enumerate W."""

    @pytest.fixture(autouse=True)
    def no_weyl_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("production path reached a Weyl-group oracle")

        monkeypatch.setattr(weyl.GroupElement, "inverse", refuse)
        # the walk over W is the tests' `latt_reference.weyl_group` alone
        assert not any(hasattr(module, "weyl_group") for name, module in sys.modules.items()
                       if name.split(".")[0] == "quivernc")

    def test_table(self, capsys):
        code, out, _ = run(capsys, "table", D4)
        assert code == 0 and len(out.splitlines()) == 51

    @pytest.mark.parametrize("what", ["nc", "sortables"])
    def test_enumerate(self, capsys, what):
        code, out, _ = run(capsys, "enumerate", "--what", what, D4)
        assert code == 0 and len(out.splitlines()) == 50

    def test_map_torsion_to_sortable(self, capsys):
        every_root = json.dumps([list(r) for r in positive_roots(quivernc.parse_quiver(D4))])
        code, out, _ = run(capsys, "map", D4, "--from", "torsion", "--to", "sortable",
                           "--object", every_root)
        assert code == 0 and len(json.loads(out)["word"]) == 12  # the longest element

    def test_map_sortable_to_torsion(self, capsys):
        code, out, _ = run(capsys, "map", D4, "--from", "sortable", "--to", "torsion",
                           "--object", json.dumps({"word": [2, 1, 3, 4]}))
        assert code == 0 and len(json.loads(out)) == 4  # l_S(cox) inversions

    def test_map_nc_to_wide(self, capsys):
        code, out, _ = run(capsys, "map", D4, "--from", "nc", "--to", "wide",
                           "--object", json.dumps({"word": [2, 1, 3, 4]}))
        assert code == 0 and len(json.loads(out)) == 12


class TestHomSolveFree:
    """No production verb solves for a Hom basis, the AR quiver included."""

    @pytest.fixture(autouse=True)
    def no_hom_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("production path solved for a Hom basis")

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "quivernc"]
        for module in modules:  # no torsion class cached by an earlier test
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        for module in modules:
            if getattr(module, "hom_basis", None) is replab.hom_basis:
                monkeypatch.setattr(module, "hom_basis", refuse)
            if getattr(module, "gen", None) is replab.gen:
                monkeypatch.setattr(module, "gen", refuse)

    def test_table(self, capsys):
        code, out, _ = run(capsys, "table", D4)
        assert code == 0 and len(out.splitlines()) == 51

    @pytest.mark.parametrize("what", ["torsion", "nc", "sortables"])
    def test_enumerate(self, capsys, what):
        code, out, _ = run(capsys, "enumerate", "--what", what, D4)
        assert code == 0 and len(out.splitlines()) == 50

    @pytest.mark.parametrize("fmt,lines", [("tsv", 15), ("json", 1), ("dot", 1 + 12 + 15 + 1)])
    def test_ar(self, capsys, fmt, lines):
        code, out, _ = run(capsys, "ar", D4, "--format", fmt)
        assert code == 0 and len(out.splitlines()) == lines

    def test_sortables_multiply_no_matrices(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate --what=sortables multiplied two matrices")

        monkeypatch.setattr(weyl.GroupElement, "__mul__", refuse)
        code, out, _ = run(capsys, "enumerate", "--what", "sortables", D4)
        assert code == 0 and len(out.splitlines()) == 50

    def test_table_builds_no_sortable_matrix(self, capsys, monkeypatch):
        """The sortable column prints the c-sorting word of the torsion class."""
        def refuse(*args, **kwargs):
            raise AssertionError("table built a sortable element from its word")

        monkeypatch.setattr(ncmap, "word_to_element", refuse)
        code, out, _ = run(capsys, "table", D4)
        assert code == 0 and len(out.splitlines()) == 51

    @pytest.mark.parametrize("src,dst,obj,size", [
        ("support", "torsion", [[0, 0, 1, 0], [0, 1, 1, 0], [0, 1, 1, 1]], 5),
        ("wide", "torsion", [[1, 1, 1, 1]], 9),
        ("cluster", "nc", {"summands": [{"rep": [0, 0, 0, 1]}, {"rep": [0, 0, 1, 0]},
                                        {"rep": [0, 1, 1, 1]}, {"rep": [1, 1, 1, 1]}]}, None),
        ("torsion", "wide", [[0, 1, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0], [1, 1, 0, 1]], 1),
    ])
    def test_map(self, capsys, src, dst, obj, size):
        code, out, _ = run(capsys, "map", D4, "--from", src, "--to", dst,
                           "--object", json.dumps(obj))
        assert code == 0
        if size is not None:
            assert len(json.loads(out)) == size


@pytest.mark.parametrize("src,dst,obj", [
    ("torsion", "wide", [[0, 1, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0], [1, 1, 0, 1]]),
    ("support", "nc", [[0, 0, 1, 0], [0, 1, 1, 0], [0, 1, 1, 1]]),
])
def test_map_checks_membership_without_enumerating(capsys, monkeypatch, src, dst, obj):
    """A map query tests its torsion class by closure, T = ⊥(T^⊥), and never
    lists every torsion class of the quiver."""
    def refuse(*args, **kwargs):
        raise AssertionError("a map query enumerated the torsion classes")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quivernc" and getattr(
                module, "enumerate_torsion_classes", None) is tors.enumerate_torsion_classes:
            monkeypatch.setattr(module, "enumerate_torsion_classes", refuse)
    code, out, _ = run(capsys, "map", D4, "--from", src, "--to", dst, "--object", json.dumps(obj))
    assert code == 0 and out


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "exceptional", A2)
        assert code == 0 and "exceptional: pass" in out

    def test_all_suites_a2(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", A2)
        assert code == 0
        assert out.count(": pass") == 5

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "exceptional", A2,
                           "--format", "json", "--seed", "5", "--cap", "7")
        assert code == 0
        doc = json.loads(out.splitlines()[-1])
        assert doc["check"] == "exceptional" and doc["failures"] == []
        assert doc["seed"] == 5 and doc["cap"] == 7
        assert doc["version"] == quivernc.__version__
        assert isinstance(doc["wall_time"], float) and doc["wall_time"] >= 0
        digest = hashlib.sha256(parse_quiver(A2).to_json().encode()).hexdigest()
        assert doc["quiver_sha256"] == digest

    def test_reports_before_a_later_suite_refuses(self):
        """Each suite's report is out before the next suite runs: the
        exceptional suite's rank cap does not discard the suites before it."""
        env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quivernc", "verify", "--suite=all", "vertices 5"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env, timeout=60)
        lines = proc.stdout.splitlines()
        assert proc.returncode == 3
        assert [line.split(" (")[0] for line in lines] == [
            "bijections: pass", "lattice: pass", "stability: pass",
            "error: exceptional-sequence enumeration capped at rank 4"]


class TestErrors:
    def test_deeply_nested_object_is_usage_error(self, capsys):
        code, out, err = run(capsys, "map", D4, "--from", "torsion", "--to", "wide",
                             "--object", "[" * 30000)
        assert code == 2 and out == ""
        assert "nested too deeply" in err and "internal" not in err

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "roots", "vertices 2\narrow 1 1")
        assert code == 2 and "loop" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "roots", "/nonexistent/q.quiver")
        assert code == 2

    def test_wild_type_exit_three(self, capsys):
        code, _, err = run(capsys, "roots", WILD)
        assert code == 3 and "wild" in err

    def test_cap_error_exit_three(self, capsys):
        code, _, err = run(capsys, "enumerate", "--what", "exceptional", A5)
        assert code == 3 and "capped at rank 4" in err

    @pytest.mark.parametrize("argv", [
        ["table", A2, "--format", "dot"],
        ["roots", A2, "--format", "dot"],
        ["map", A2, "--from", "torsion", "--to", "torsion", "--object", "[]", "--format", "json"],
    ])
    def test_format_only_where_honoured(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_import_leaves_hashlib_unloaded():
    """hashlib maps OpenSSL, about 3.5 MB resident: only `verify --format
    json` loads it, for the quiver digest."""
    env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
    code = "import sys, quivernc.cli; print('hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    (),
    ("roots", A3),
    ("ar", A3),
    ("enumerate", "--what=torsion", A3),
    ("map", A3, "--from", "torsion", "--to", "wide",
     "--object", "[[0,1,0],[0,1,1],[1,1,0],[1,1,1]]"),
    ("table", A3),
], ids=["import", "roots", "ar", "enumerate", "map", "table"])
def test_data_verbs_leave_dataclasses_unloaded(argv):
    assert not dataclasses_loaded(*argv)


def test_verify_leaves_dataclasses_unloaded():
    assert not dataclasses_loaded("verify", "--suite=all", A3)


def dataclasses_loaded(*argv: str) -> bool:
    """Whether `main(argv)` loads dataclasses. It pulls in inspect, ast, dis
    and tokenize, 12 modules and about 12 ms of every fresh process: the
    package's value types are slotted classes and NamedTuples."""
    env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
    code = (
        "import sys, quivernc.cli\n"
        "if sys.argv[1:]:\n"
        "    assert quivernc.cli.main(sys.argv[1:]) == 0\n"
        "print('dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_python_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "quivernc", "roots", A3],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "[0,0,1]", "[0,1,0]", "[0,1,1]", "[1,0,0]", "[1,1,0]", "[1,1,1]"]


E6 = "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6"


@pytest.mark.parametrize("argv,lines_read", [
    (["roots", A3], 0),
    (["verify", "--suite=exceptional", A3], 0),
    (["enumerate", "--what=torsion", E6], 1),  # 155 kB, more than a pipe holds
], ids=["closed-at-once", "verify", "head-1"])
def test_closed_output_exits_five_without_traceback(argv, lines_read):
    """`quivernc ... | head -1`: the reader goes away, and the CLI stops with
    exit code 5, not with a traceback or the counterexample code 1."""
    env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "quivernc", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.OUTPUT_CLOSED == 5
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv", [
    ["roots", str(Path(__file__).parent)],
    ["map", A3, "--from", "sortable", "--to", "torsion", "--object", '{"word": [0]}'],
    ["map", A3, "--from", "sortable", "--to", "torsion", "--object", '{"word": [-1]}'],
    ["map", A3, "--from", "sortable", "--to", "torsion", "--object", '{"word": [9]}'],
    ["map", A3, "--from", "sortable", "--to", "torsion", "--object", '{"word": "x"}'],
    ["map", A3, "--from", "nc", "--to", "wide", "--object", "[1]"],
    ["map", A3, "--from", "cluster", "--to", "support", "--object", "[1]"],
    ["map", A3, "--from", "cluster", "--to", "support", "--object", "{}"],
    ["map", A3, "--from", "torsion", "--to", "wide", "--object", "5"],
    ["map", A3, "--from", "support", "--to", "torsion", "--object", "[[1,0,0],[0,1,0]]"],
    ["map", A3, "--from", "support", "--to", "torsion", "--object", "[[9,9,9]]"],
    ["map", A3, "--from", "cluster", "--to", "torsion", "--object", '{"summands":[{"shift":7}]}'],
    ["map", A3, "--from", "cluster", "--to", "support", "--object", '{"summands":[{"rep":[5,5,5]}]}'],
    ["map", A3, "--from", "cluster", "--to", "torsion",
     "--object", '{"summands":[{"shift":1},{"shift":1},{"shift":2}]}'],
    ["map", A3, "--from", "cluster", "--to", "nc",
     "--object", '{"summands":[{"rep":[1,0,0]},{"rep":[0,1,0]},{"shift":3}]}'],
    ["map", A3, "--from", "torsion", "--to", "torsion", "--object", "[[0,0,1],[0,1,1],[1,1,1]]"],
    ["map", A3, "--from", "torsion", "--to", "torsion", "--object", "[[9,9,9]]"],
    ["map", A3, "--from", "torsion", "--to", "sortable", "--object", "[[0,0,1],[0,1,1],[1,1,1]]"],
    ["map", A3, "--from", "nc", "--to", "nc", "--object", '{"word":[1,2,3,1,2,3,1]}'],
    ["map", A3, "--from", "sortable", "--to", "sortable", "--object", '{"word":[3,2,1]}'],
    ["verify", A3, "--cap", "-5"],
    ["verify", A3, "--cap", "0"],
], ids=["directory", "letter-0", "letter-neg", "letter-9", "word-str", "nc-list",
        "cluster-list", "cluster-empty", "torsion-int", "support-not-rigid",
        "support-not-roots", "cluster-shift-7", "cluster-rep-555", "cluster-repeated",
        "cluster-not-orthogonal", "torsion-not-closed", "torsion-not-roots",
        "torsion-to-sortable-not-closed", "nc-not-below-cox", "sortable-not-sortable",
        "cap-neg", "cap-0"])
def test_bad_input_is_usage_error_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "quivernc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


A3_TORSION = "[[0,1,0],[0,1,1],[1,1,0],[1,1,1]]"


@pytest.mark.parametrize("patch,argv,message", [
    ("from quivernc.errors import FingerprintError\n"
     "def boom(*args):\n    raise FingerprintError('no module matches')\n"
     "tors.enumerate_torsion_classes = boom",
     ["enumerate", "--what", "torsion", A3], "no module matches"),
    # a generator check that fails for real: with no Ext-projectives the
    # minimal generator is empty and does not generate T
    ("tors.ext_projectives = lambda q, t: frozenset()",
     ["map", A3, "--from", "torsion", "--to", "wide", "--object", A3_TORSION],
     "minimal generator does not generate"),
], ids=["fingerprint", "split-projectives"])
def test_internal_error_exit_four_without_traceback(patch, argv, message):
    code = (
        "import sys\nfrom quivernc import cli, tors\n" + patch
        + f"\nsys.exit(cli.main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4 and proc.stdout == ""
    assert "error: internal:" in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr


class TestRepeatedCalls:
    """`main` may be called many times in one process, as a query server
    does: the parser is built once, and no call sees another's state."""

    GOOD = [
        ["table", A2],
        ["map", A3, "--from", "torsion", "--to", "nc", "--object", A3_TORSION],
        ["roots", A3, "--format", "json"],
        ["enumerate", "--what", "clusters", A2],
    ]

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in self.GOOD * 6:
            assert run(capsys, *argv)[0] == 0
        assert built.count("quivernc") <= 1  # none if an earlier test built it

    def test_no_call_leaks_into_the_next(self, capsys):
        fresh = {}
        env = dict(os.environ, PYTHONPATH=str(Path(quivernc.__file__).parents[1]))
        for argv in self.GOOD:
            proc = subprocess.run([sys.executable, "-m", "quivernc", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            fresh[tuple(argv)] = (proc.returncode, proc.stdout)
        odd_calls = [  # argv, exit code, whether it prints to stdout
            (["map", A2, "--from", "torsion", "--to", "torsion", "--object", "[]",
              "--format", "json"], 2, False),
            (["map", A3, "--from", "torsion", "--to", "wide", "--object", "[[9,9,9]]"], 2, False),
            (["table", A2, "--format", "json"], 0, True),
        ]
        for odd, want_code, prints in odd_calls:
            try:
                code, out, _ = run(capsys, *odd)
            except SystemExit as exc:  # argparse rejects the arguments
                code, out = exc.code, capsys.readouterr().out
            assert (code, out != "") == (want_code, prints), odd
            for argv in self.GOOD:
                assert run(capsys, *argv)[:2] == fresh[tuple(argv)], (odd, argv)
        assert run(capsys, "table", A2)[1].startswith("cluster_tilting\tsupport_tilting")

    def test_an_edited_quiver_file_is_read_again(self, capsys, tmp_path):
        path = tmp_path / "q.quiver"
        path.write_text(A2)
        assert run(capsys, "roots", str(path))[1].splitlines() == ["[0,1]", "[1,0]", "[1,1]"]
        assert cli._load_quiver(str(path)) is cli._load_quiver(str(path))
        path.write_text(A3)
        code, out, _ = run(capsys, "roots", str(path))
        assert code == 0 and len(out.splitlines()) == 6
        path.write_text("vertices 2\narrow 1 1")
        code, out, err = run(capsys, "roots", str(path))
        assert code == 2 and out == "" and "loop" in err


MAP_ARGS = ["--from", "torsion", "--to", "nc"]
PARSE_CASES = {  # id: (argv, whether it parses)
    "roots": (["roots", A2], True),
    "ar-dot": (["ar", A2, "--format", "dot"], True),
    "enumerate": (["enumerate", "--what", "nc", A3], True),
    "map": (["map", A3, *MAP_ARGS, "--object", A3_TORSION], True),
    "table": (["table", A2, "--format", "json"], True),
    "verify": (["verify", "--suite=reading", "--seed", "3", "--cap", "8", A3], True),
    "help": (["-h"], False),
    "map-help": (["map", "-h"], False),
    "no-args": ([], False),
    "unknown-verb": (["frobnicate", A2], False),
    "bogus-what": (["enumerate", "--what=bogus", A2], False),
    "missing-object": (["map", A3, *MAP_ARGS], False),
    "trailing-bogus": (["roots", A2, "--bogus"], False),
    "abbreviated": (["map", A3, *MAP_ARGS, "--obj", A3_TORSION], True),
    "format-equals": (["roots", A2, "--format=json"], True),
    "double-dash": (["roots", "--", A2], True),
    "double-dash-map": (["map", *MAP_ARGS, "--object", A3_TORSION, "--", A3], True),
    "option-first": (["--format=json", "roots", A2], False),
}


def parse_outcome(capsys, parse, argv):
    """What parsing argv gives: its Namespace or its exit code, with the
    text printed on stdout and stderr."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv, parses", PARSE_CASES.values(), ids=PARSE_CASES)
def test_main_parses_as_the_top_level_parser(capsys, argv, parses):
    """`main` parses argv once, with the verb's subparser, to the same
    Namespace, exit code, stdout and stderr as the top-level parser."""
    want = parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert isinstance(want[0], argparse.Namespace) == parses
    assert parse_outcome(capsys, cli._parse_argv, argv) == want
    if not parses:
        assert parse_outcome(capsys, main, argv) == want


def test_trailing_argument_gets_the_top_level_error(capsys):
    _, out, err = parse_outcome(capsys, main, ["roots", A2, "--bogus"])
    assert out == "" and err.endswith("quivernc: error: unrecognized arguments: --bogus\n")
    assert err.startswith("usage: quivernc [-h]")
