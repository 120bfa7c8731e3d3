"""Data output against the references the benchmark checks it with.

`perfbench/refs.json` holds the sha256 of the stdout of each data command
and, for D4 and A5, every object of each torsion class. Both are read here
and never written: a change that moves one byte of output fails tier-1,
not only the benchmark gate.
"""

import hashlib
import json
from pathlib import Path

import pytest

from quivernc.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFS = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))
KINDS = ("cluster", "support", "torsion", "wide", "nc", "sortable")


def quiver_path(name: str) -> str:
    return str(PERFBENCH / "quivers" / f"{name}.quiver")


def stdout_of(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


@pytest.mark.parametrize("key", sorted(REFS["digests"]))
def test_data_output_matches_reference_digest(capsys, key):
    """A digest key is the verb and its options, then the quiver's name."""
    *argv, name = key.split()
    out = stdout_of(capsys, [*argv, quiver_path(name)])
    assert hashlib.sha256(out.encode()).hexdigest() == REFS["digests"][key]


def test_every_d4_map_matches_its_table_row(capsys):
    """Each ordered pair of kinds from each row of the D4 table. A group
    element's answer also carries its matrix; only the word is in the
    table."""
    path = quiver_path("D4")
    for row in REFS["tables"]["D4"]:
        for src in KINDS:
            obj = json.dumps(row[src], separators=(",", ":"), sort_keys=True)
            for dst in KINDS:
                argv = ["map", path, "--from", src, "--to", dst, "--object", obj]
                got = json.loads(stdout_of(capsys, argv))
                if dst in ("nc", "sortable"):
                    assert got["word"] == row[dst]["word"], argv
                else:
                    assert got == row[dst], argv
