#!/usr/bin/env python3
"""Regenerate perfbench/refs.json from the program in `src/`.

    python3 perfbench/make_refs.py

refs.json holds the sha256 of the stdout of every data command the
benchmark runs, and for D4 and A5 the correspondence table that `map`
answers are checked against: one row per torsion class with its cluster
tilting object, support tilting object, torsion class, wide subcategory, and
the reduced words of its noncrossing partition and sortable element, each
in the JSON form `quivernc map` reads and prints. Run it only at a commit
whose output is known to be right; the benchmark treats it as the truth.
"""

import hashlib
import json
import random
import subprocess
import sys

import run


def table(name: str) -> list[dict]:
    from quivernc import cluster, ncmap, parse_quiver, tors
    from quivernc.weyl import reduced_word

    q = parse_quiver((run.QUIVERS / f"{name}.quiver").read_text())
    rows = []
    for t in tors.enumerate_torsion_classes(q):
        c = tors.ext_projectives(q, t)
        ct = cluster.complete_support_tilting(q, c)
        rows.append({
            "cluster": {"summands": [x.to_obj() for x in sorted(ct, key=cluster.CCIndec.sort_key)]},
            "support": [list(r) for r in sorted(c)],
            "torsion": [list(r) for r in sorted(t)],
            "wide": [list(r) for r in sorted(tors.a_of(q, t))],
            "nc": {"word": list(reduced_word(q, ncmap.nc_of_torsion(q, t)))},
            "sortable": {"word": list(reduced_word(q, ncmap.sortable_of_torsion(q, t)))},
        })
    return rows


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ops = run.cli_data_ops(random.Random(0))
    ops += [run.cli_op(["roots"], q) for q in sorted(set(run.WORKLOADS.values()))]
    digests = {}
    for op in sorted(ops, key=lambda op: op["key"]):
        proc = subprocess.run([sys.executable, str(run.CHILD), "cli", *op["argv"]],
                              cwd=run.ROOT, env=run.program_env(),
                              capture_output=True, text=True, check=True)
        digests[op["key"]] = hashlib.sha256(proc.stdout.encode()).hexdigest()
        print(op["key"], digests[op["key"]][:12], file=sys.stderr)
    # one table row per line keeps diffs of refs.json readable
    tables = ",\n".join(
        f'  "{q}": [\n   ' + ",\n   ".join(compact(row) for row in table(q)) + "\n  ]"
        for q in sorted(run.MAP_QUIVERS))
    text = ('{\n "digests": ' + json.dumps(digests, indent=1, sort_keys=True).replace("\n", "\n ")
            + ',\n "tables": {\n' + tables + "\n }\n}\n")
    (run.HERE / "refs.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
