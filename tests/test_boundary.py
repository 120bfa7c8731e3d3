"""The import boundary between the integer fast path and the oracles.

Production modules serve every CLI verb but `verify`; oracle modules hold
the explicit representations, GF(2) subobject enumeration and the walk over
W that `verify` and the tests check the fast path against.  No production
module imports an oracle module, except `cli`, whose `verify` verb runs the
suites.  The package `__init__` re-exports both sides and sits on neither.
"""

import ast
from pathlib import Path

import quivernc

PRODUCTION = {"__main__", "errors", "fields", "quiver", "weyl", "tors", "cluster", "ncmap",
              "cli"}
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
    assert set(import_graph()) == PRODUCTION | ORACLE | {"__init__"}


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
        "from quivernc.verify import SUITES\n"
        "def f():\n"
        "    from . import weyl\n"
        "    import json\n"
    )
    assert imported_modules(path) == {"replab", "stab", "tors", "latt", "verify", "weyl"}
