"""The import boundary between the integer fast path and the oracles.

Production modules serve every CLI verb but `verify`; oracle modules hold
the explicit representations, GF(2) subobject enumeration and the walk over
W that `verify` and the tests check the fast path against.  The package
`__init__` is production: it re-exports the fast path only.  No production
module imports an oracle module, except `cli`, whose `verify` verb imports
the suites when it runs.  The run-time tests check that: a data verb, or a
bare `import quivernc`, leaves every oracle module unloaded, and `fractions`
too.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quivernc
from quivernc import cli, verify

PRODUCTION = {"__init__", "__main__", "errors", "fields", "quiver", "weyl", "tors", "cluster",
              "ncmap", "cli"}
ORACLE = {"replab", "stab", "latt", "verify"}
ALLOWED = {("cli", "verify")}
PACKAGE = Path(quivernc.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """Every quivernc module the file imports, at any depth of the tree."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "quivernc" and len(parts) > 1:
                    out.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "quivernc":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                out.add(inner[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
    return out


def import_graph() -> dict[str, set[str]]:
    return {path.stem: imported_modules(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_is_on_exactly_one_side():
    assert not PRODUCTION & ORACLE
    assert set(import_graph()) == PRODUCTION | ORACLE


def test_no_production_module_imports_an_oracle():
    edges = {
        (mod, dep)
        for mod, deps in import_graph().items()
        if mod in PRODUCTION
        for dep in deps & ORACLE
    }
    assert edges == ALLOWED


def test_the_reader_sees_every_import_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .replab import gen\n"
        "from . import stab, tors\n"
        "import quivernc.latt\n"
        "from quivernc.verify import suite_lattice\n"
        "def f():\n"
        "    from . import weyl\n"
        "    import json\n"
    )
    assert imported_modules(path) == {"replab", "stab", "tors", "latt", "verify", "weyl"}


A3 = "vertices 3\narrow 2 1\narrow 2 3"


def loaded(modules, *argv: str) -> list[str]:
    """Which of the named modules a fresh interpreter has loaded after it
    runs `main(argv)`, or only imports the package when argv is empty."""
    code = (
        "import json, sys\n"
        "import quivernc\n"
        "if sys.argv[1:]:\n"
        "    from quivernc.cli import main\n"
        "    assert main(sys.argv[1:]) == 0\n"
        f"print(json.dumps(sorted(m for m in {sorted(modules)!r} if m in sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def oracles_loaded(*argv: str) -> list[str]:
    return [m.removeprefix("quivernc.") for m in loaded([f"quivernc.{m}" for m in ORACLE], *argv)]


DATA_VERBS = pytest.mark.parametrize("argv", [
    (),
    ("roots", A3),
    ("ar", A3),
    ("enumerate", "--what=torsion", A3),
    ("map", A3, "--from", "torsion", "--to", "wide",
     "--object", "[[0,1,0],[0,1,1],[1,1,0],[1,1,1]]"),
    ("table", A3),
], ids=["import", "roots", "ar", "enumerate", "map", "table"])


@DATA_VERBS
def test_data_verbs_leave_the_oracles_unloaded(argv):
    assert oracles_loaded(*argv) == []


@DATA_VERBS
def test_data_verbs_leave_fractions_unloaded(argv):
    """The package computes on ints alone: no module imports `fractions`
    (nor `decimal`, which it pulls in)."""
    assert loaded(["fractions", "decimal"], *argv) == []


def test_the_verify_verb_loads_the_oracles():
    assert oracles_loaded("verify", "--suite=exceptional", A3) == sorted(ORACLE)


def test_cli_suites_are_the_verify_suites():
    defined = [name.removeprefix("suite_") for name, fn in vars(verify).items()
               if name.startswith("suite_") and inspect.isfunction(fn)]
    assert cli.SUITES == tuple(defined)


def private_names_from_package(path: Path) -> set[str]:
    """Every `_`-prefixed name (dunders aside) the file takes from another
    quivernc module, as "module.name": imported by name, or read as an
    attribute of a module it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, taken = {}, set()  # local name -> module; names taken
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "quivernc":
                    continue
                module = module.removeprefix("quivernc").lstrip(".")
            if module:  # from .x import name
                taken.update(f"{module}.{a.name}" for a in node.names)
            else:  # from . import x [as y]
                modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name.split(".")[-1]) for a in node.names
                           if a.name.startswith("quivernc.") and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            taken.add(f"{modules[node.value.id]}.{node.attr}")
    return {name for name in taken
            if (attr := name.split(".")[1]).startswith("_") and not attr.endswith("__")}


def test_cli_takes_no_private_name_from_another_module():
    """The CLI goes through each module's public, checked entry points."""
    assert private_names_from_package(PACKAGE / "cli.py") == set()


def unused_imports(source: str) -> set[str]:
    """Every name the source binds by an import, `from __future__` aside,
    and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_unused_import_reader():
    source = ("from operator import mul, sub\nimport os.path\nimport json as j\n"
              "def f(x):\n    from . import weyl\n    return sub(x, weyl.n) + os.sep\n")
    assert unused_imports(source) == {"mul", "j"}


def absolute_imports(source: str) -> set[str]:
    """The top-level name of every module the source imports by an absolute
    name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses():
    """The package's values are `_Frozen` classes and NamedTuples: importing
    dataclasses would load inspect, ast, dis and tokenize, 12 modules in
    all, into every process."""
    source = "import os.path\nfrom dataclasses import field\ndef f():\n    from . import weyl\n"
    assert absolute_imports(source) == {"os", "dataclasses"}
    assert [path.stem for path in sorted(PACKAGE.glob("*.py"))
            if "dataclasses" in absolute_imports(path.read_text(encoding="utf-8"))] == []


def test_every_module_uses_what_it_imports():
    """The package root is exempt: it imports to re-export."""
    assert {path.stem: unused for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"
            and (unused := unused_imports(path.read_text(encoding="utf-8")))} == {}
