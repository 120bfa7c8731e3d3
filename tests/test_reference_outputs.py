"""Data output against the references the benchmark checks it with.

`perfbench/refs.json` holds the sha256 of the stdout of each data command
and, for D4 and A5, every object of each torsion class. Both are read here
and never written: a change that moves one byte of output fails tier-1,
not only the benchmark gate.  `JSON_DIGESTS` pins the JSON output of the
same commands, which `refs.json` leaves out.
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


# sha256 of the JSON output of each data command: `refs.json` pins the tsv
# output alone.  A key is the verb and its options, then the quiver's name.
JSON_DIGESTS = {
    "enumerate --what=torsion D4":
        "e7c071cbdbff8bee066a7066237ff2e1a5971e119e1d69a6af48d29cf7122ba5",
    "enumerate --what=support-tilting D4":
        "25afdbdcb98de26c2efcff34f88fc47515cbe9551e4befe2a7acb051dfda354a",
    "enumerate --what=clusters D4":
        "7f95101d67f62bdd50b37f7f74b0182e6d763537a3b0d76783535a1d5c966041",
    "enumerate --what=nc D4":
        "03eefe5f58060ba5dbc02a485b23e47f1e3ec1a44ccbec97f2ab921ad0866291",
    "enumerate --what=sortables D4":
        "2d79daa06fed868927467f8eb547ab4436fece2a0a5d8bafeeb5356d69874ce6",
    "enumerate --what=exceptional D4":
        "f560e5dd123b0e9aabaffcb31242b6b14b02fad9d78c23b982b0a7391a056fc8",
    "table D4":
        "ba5d7b3c55c8e58cf2700fedc0347985cf705cb583e08f108202ca50bac9c32b",
    "enumerate --what=torsion A5":
        "0d2684236e75051f47c5b668aa9e1ba82891d7c3622ca8ed090b94bed1ce0d40",
    "enumerate --what=support-tilting A5":
        "71ad24e9fa15dd4483e049dad45e130b6eff9fae424d720360e7ba481f3b5910",
    "enumerate --what=clusters A5":
        "bb2f17cfd134741bf279a2390ae2e040ea993579e03430751d8aa46f7f100c28",
    "enumerate --what=nc A5":
        "f25da7ab240fa624890a1d4422c328da6b590db61d7af499610e66fbfc4c310b",
    "enumerate --what=sortables A5":
        "465fc96b37be87c36ed74751722135fc070073219dec73243c1996ef46c25bd1",
    "table A5":
        "6b15d6e4b5c69f9437231ab5b9fc741bb23adf41d96533186dc28c66500facac",
}


@pytest.mark.parametrize("key", sorted(JSON_DIGESTS))
def test_json_output_matches_pinned_digest(capsys, key):
    *argv, name = key.split()
    out = stdout_of(capsys, [*argv, "--format", "json", quiver_path(name)])
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[key]
