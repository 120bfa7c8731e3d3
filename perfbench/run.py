#!/usr/bin/env python3
"""Benchmark of the quivernc CLI and library, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the package from `src/`
with no install step. The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The line before it,
`meta {...}`, holds what is needed to reproduce the run.

Workloads (each a closed loop: one client, one program process at a time):

  cli-data     one fresh process per `enumerate`/`ar`/`table` command, the
               bulk data path. Loads quiver, fields, weyl, replab, tors,
               cluster, ncmap, cli; never reaches latt, stab or verify.
               E6 `enumerate --what=torsion` is left out: it takes ~32 s,
               almost all in tors.gen, and would swamp every run.
  cli-verify   one fresh `verify --suite=all` process per quiver (A3, A4,
               D4), the oracle path. The only workload that runs latt, stab,
               cluster mutation and weyl.absolute_leq.
  map-session  one long-lived process answering seeded `map` queries on D4
               and A5 through `quivernc.cli.main`, with warm lru_caches.
               Start-up, latt, stab and verify play no part.

With `--trace 0` the run does whole passes over the workload's operations
until `--seconds` would be exceeded (at least one) and reports the
end-to-end metrics. With `--trace 1` it does one untraced and one traced
pass of the same operations and reports the per-layer metrics; the traced
pass wraps the package from outside (see tracer.py) and changes nothing in
`src/`.

Every operation's output is checked: data output against the sha256
digests and tables in refs.json, enumeration row counts against the
degree-product formulas, `verify` suites for `pass`, and each `map` answer
against the destination object of the same table row. A non-zero exit, a
timeout or a wrong output counts as failed; none is dropped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
QUIVERS = HERE / "quivers"

DEADLINE_S = 160.0  # the whole run must exit within 180 s
OP_TIMEOUT_S = 120.0
SETUP_RUNS = 9

ENUM_WHATS = ("torsion", "support-tilting", "clusters", "nc", "sortables")
SUITES = ("bijections", "lattice", "stability", "exceptional", "reading")
KINDS = ("cluster", "support", "torsion", "wide", "nc", "sortable")
PAIRS = [(a, b) for a in KINDS for b in KINDS if a != b]
MAP_QUIVERS = ("D4", "A5")
MAP_PER_QUIVER = 8 * len(PAIRS)  # each ordered pair 8 times per quiver and pass

WORKLOADS = {
    "cli-data": "E6",  # the largest quiver of each workload, for setup_s
    "cli-verify": "D4",
    "map-session": "A5",
}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "query_p50_ms": "ms", "query_p90_ms": "ms",
}

ENTRY_POINTS = {
    "weyl": ["GroupElement.inverse", "absolute_leq", "absolute_length", "fixed_space",
             "inversion_set", "weyl_group", "noncrossing_partitions", "is_c_sortable",
             "reduced_word", "c_sorting_word"],
    "fields": ["rref", "nullspace", "rank"],
    "replab": ["hom_basis", "indecomposable", "hom_dim_roots", "decompose",
               "subrepresentation_subspaces", "ar_quiver"],
    "tors": ["gen", "ext_projectives", "split_projectives", "a_of", "wide_simples",
             "enumerate_support_tilting", "enumerate_torsion_classes",
             "is_torsion_class", "extension_root_closure"],
    "cluster": ["cluster_tilting_objects", "complete_support_tilting", "mutate", "gen_of"],
    "stab": ["semistable_indecs"],
    "ncmap": ["nc_of_torsion", "cox_of_wide", "sortable_of_torsion", "reading_nc",
              "reading_cl", "cover_criterion_check", "complete_exceptional_sequences"],
    "latt": ["lattice_analyze", "cambrian_poset", "torsion_join"],
}
INCLUSIVE = [
    "weyl.GroupElement.inverse", "weyl.absolute_leq", "weyl.is_c_sortable",
    "replab.hom_basis", "tors.gen", "tors.split_projectives", "tors.wide_simples",
    "tors.enumerate_torsion_classes", "ncmap.nc_of_torsion", "ncmap.sortable_of_torsion",
] + [f"verify.suite_{s}" for s in SUITES]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{m}.self_s": "s" for m in tracer.LAYERS}
    out["unattributed.self_s"] = "s"
    out["traced.wall_s"] = "s"
    for mod, fns in ENTRY_POINTS.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = "count"
            out[f"{mod}.{fn}.self_s"] = "s"
    for name in INCLUSIVE:
        out[f"{name}.incl_s"] = "s"
    for name in tracer.CACHED:
        out[f"{name}.cache_hit_ratio"] = "ratio"
    out["replab.subrepresentation_subspaces.accept_ratio"] = "ratio"
    out["weyl.noncrossing_partitions.keep_ratio"] = "ratio"
    out["weyl.is_c_sortable.true_ratio"] = "ratio"
    out["oracle_cap_refusals"] = "count"
    out["tracing_overhead_ratio"] = "ratio"
    return out


# --- inputs ------------------------------------------------------------------

def quiver_path(name: str) -> str:
    return str((QUIVERS / f"{name}.quiver").relative_to(ROOT))


def cli_op(argv: list[str], quiver: str) -> dict:
    return {"kind": "cli", "quiver": quiver,
            "argv": [*argv, quiver_path(quiver)], "key": " ".join([*argv, quiver])}


def cli_data_ops(rng: random.Random) -> list[dict]:
    ops = [cli_op(["enumerate", f"--what={w}"], q) for q in ("A5", "D5") for w in ENUM_WHATS]
    ops += [cli_op(["enumerate", f"--what={w}"], "E6") for w in ("support-tilting", "clusters")]
    ops += [cli_op(["ar"], "E6"), cli_op(["table"], "D4"),
            cli_op(["enumerate", "--what=exceptional"], "D4")]
    rng.shuffle(ops)
    return ops


def cli_verify_ops(rng: random.Random) -> list[dict]:
    ops = []
    for q in ("A3", "A4", "D4"):
        op = cli_op(["verify", "--suite=all", "--seed", str(rng.randrange(1 << 30))], q)
        op["kind"] = "verify"
        ops.append(op)
    rng.shuffle(ops)
    return ops


def stratified_rows(rng: random.Random, nrows: int, k: int) -> list[int]:
    """k row indices in random order, one uniform draw from each of k equal
    slices of the table. Each draw is (near) uniform over the table, but the
    set of draws covers the table evenly. A query's cost depends on its row
    (from nc it grows with the row's position in the scan over torsion
    classes), so plain uniform draws would make the run swing with the seed."""
    picks = [rng.randrange(i * nrows // k, max((i + 1) * nrows // k, i * nrows // k + 1))
             for i in range(k)]
    rng.shuffle(picks)
    return picks


def map_ops(rng: random.Random, tables: dict) -> list[dict]:
    """D4 and A5 queries alternating; per quiver every ordered pair of
    distinct kinds equally often in seeded order, and the rows of each pair
    drawn by `stratified_rows`."""
    streams = []
    for q in MAP_QUIVERS:
        rows = tables[q]
        pairs = PAIRS * (MAP_PER_QUIVER // len(PAIRS))
        rng.shuffle(pairs)
        per_pair = MAP_PER_QUIVER // len(PAIRS)
        draws = {pair: stratified_rows(rng, len(rows), per_pair) for pair in PAIRS}
        stream = []
        for src, dst in pairs:
            row = rows[draws[src, dst].pop()]
            obj = json.dumps(row[src], separators=(",", ":"), sort_keys=True)
            stream.append({
                "kind": "map", "quiver": q, "expect": row[dst], "dst": dst,
                "argv": ["map", quiver_path(q), "--from", src, "--to", dst, "--object", obj],
            })
        streams.append(stream)
    return [op for pair in zip(*streams) for op in pair]


def make_ops(workload: str, rng: random.Random, refs: dict) -> list[dict]:
    if workload == "cli-data":
        return cli_data_ops(rng)
    if workload == "cli-verify":
        return cli_verify_ops(rng)
    return map_ops(rng, refs["tables"])


# --- correctness gate --------------------------------------------------------

def catalan(dynkin: str) -> int:
    degs = tracer.degrees(dynkin)
    h = max(degs)
    return math.prod(h + d for d in degs) // math.prod(degs)


def exceptional_count(dynkin: str) -> int:
    degs = tracer.degrees(dynkin)
    n = len(degs)
    return math.factorial(n) * max(degs) ** n // math.prod(degs)


def expected_rows(op: dict) -> int | None:
    argv = op["argv"]
    if argv[0] == "table":
        return catalan(op["quiver"])
    if argv[0] == "enumerate":
        what = argv[1].split("=", 1)[1]
        if what == "exceptional":
            return exceptional_count(op["quiver"])
        return catalan(op["quiver"])
    return None


SUITE_LINE = re.compile(r"^(\w+): pass \(\d+ instances, 0 failures, [0-9.]+s\)$")


def check(op: dict, rc, out: str, refs: dict) -> str | None:
    """None when the operation's output is right, else why it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if op["kind"] == "cli":
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != refs["digests"].get(op["key"]):
            return "stdout digest differs from the reference"
        want = expected_rows(op)
        lines = out.splitlines()
        got = len(lines) - (op["argv"][0] == "table")
        if want is not None and got != want:
            return f"{got} rows, expected {want}"
        return None
    if op["kind"] == "verify":
        lines = out.splitlines()
        passed = [m.group(1) for m in map(SUITE_LINE.match, lines) if m]
        if len(passed) != len(lines) or sorted(passed) != sorted(SUITES):
            return "not every suite line is a pass"
        return None
    try:
        got = json.loads(out)
    except json.JSONDecodeError:
        return "answer is not JSON"
    if op["dst"] in ("nc", "sortable"):
        ok = isinstance(got, dict) and got.get("word") == op["expect"]["word"]
    else:
        ok = got == op["expect"]
    return None if ok else "answer differs from the table row"


# --- running -----------------------------------------------------------------

def program_env() -> dict:
    """Environment of every program process: the package from src/, and no
    QUIVERNC_THREADS, so `verify` runs its suites one after another."""
    env = {k: v for k, v in os.environ.items() if k != "QUIVERNC_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Runs operations in program processes, one at a time, and records
    each one's latency and whether it passed the gate."""

    def __init__(self, refs: dict, deadline: float, span_dir: str | None = None):
        self.refs = refs
        self.deadline = deadline
        self.span_dir = span_dir
        self.env = program_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.next_op = 0
        self.span_files: list[str] = []
        self.peak_rss_kb = 0

    def _note_rss(self, stderr: str) -> None:
        last = stderr.rstrip("\n").rpartition("\n")[2]
        if last.startswith("peak_rss_kb "):
            self.peak_rss_kb = max(self.peak_rss_kb, int(last.split()[1]))

    def _timeout(self) -> float:
        return min(OP_TIMEOUT_S, self.deadline - time.perf_counter())

    def _spans(self) -> list[str]:
        if self.span_dir is None:
            return []
        path = os.path.join(self.span_dir, f"spans-{len(self.span_files)}.bin")
        self.span_files.append(path)
        return ["--spans", path]

    def _record(self, op: dict, rc, out: str, latency: float) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        why = check(op, rc, out, self.refs)
        if why is not None:
            self.failures.append(f"{' '.join(op['argv'][:2])} {op['quiver']}: {why}")

    def run_cli(self, op: dict) -> float:
        op_id, self.next_op = self.next_op, self.next_op + 1
        cmd = [sys.executable, str(CHILD), *self._spans()]
        if self.span_dir is not None:
            cmd += ["--op", str(op_id)]
        cmd += ["cli", *op["argv"]]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(self._timeout(), 0.01))
            rc, out = proc.returncode, proc.stdout
            self._note_rss(proc.stderr)
        except subprocess.TimeoutExpired:
            rc, out = "timeout", ""
        latency = time.perf_counter() - t0
        self._record(op, rc, out, latency)
        return latency

    def run_pass(self, ops: list[dict]) -> float:
        """Run every operation; returns the pass's wall time."""
        if ops[0]["kind"] == "map":
            return self._run_session(ops)
        t0 = time.perf_counter()
        for op in ops:
            self.run_cli(op)
        return time.perf_counter() - t0

    def _run_session(self, ops: list[dict]) -> float:
        cmd = [sys.executable, str(CHILD), *self._spans(), "session"]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        watchdog = threading.Timer(max(self._timeout(), 0.01), proc.kill)
        watchdog.start()
        ready = proc.stdout.readline().strip() == "ready"
        watchdog.cancel()
        answers = []
        t0 = time.perf_counter()
        for op in ops:
            op_id, self.next_op = self.next_op, self.next_op + 1
            t = time.perf_counter()
            reply = None
            if ready and proc.poll() is None:
                watchdog = threading.Timer(max(self._timeout(), 0.01), proc.kill)
                watchdog.start()
                try:
                    proc.stdin.write(json.dumps({"op": op_id, "argv": op["argv"]}) + "\n")
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                    reply = json.loads(line) if line else None
                except (BrokenPipeError, json.JSONDecodeError):
                    reply = None
                watchdog.cancel()
            answers.append((op, reply, time.perf_counter() - t))
        wall = time.perf_counter() - t0
        try:
            _out, err = proc.communicate(timeout=max(self._timeout(), 5.0))
            self._note_rss(err)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        for op, reply, client_s in answers:
            if reply is None:
                self._record(op, "no answer", "", client_s)
            else:  # the call's own time, without the pipe round trip
                self._record(op, reply["rc"], reply["out"], reply["seconds"])
        return wall


def run_passes(runner: Runner, ops_for_pass, seconds: float) -> list[float]:
    """Whole passes until the next one would end after `seconds` (at least one)."""
    walls = []
    t0 = time.perf_counter()
    while True:
        walls.append(runner.run_pass(ops_for_pass()))
        elapsed = time.perf_counter() - t0
        if (elapsed + statistics.median(walls) > seconds
                or time.perf_counter() + max(walls) > runner.deadline):
            return walls


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta function did not converge")


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution.

    A single order statistic jumps between neighbouring samples: between two
    commands on the 15 or 3 operations of a CLI pass, and across the sparse
    middle of the map latencies. The weighted mean moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def measure(workload: str, seed: int, seconds: float, refs: dict, t_start: float):
    rng = random.Random(seed)
    runner = Runner(refs, t_start + DEADLINE_S)
    setup_op = cli_op(["roots"], WORKLOADS[workload])
    setup = [runner.run_cli(setup_op) for _ in range(SETUP_RUNS)]
    runner.latencies.clear()
    walls = run_passes(runner, lambda: make_ops(workload, rng, refs), seconds)
    lat_ms = [x * 1000 for x in runner.latencies]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
        "query_p50_ms": quantile(lat_ms, 0.5),
        "query_p90_ms": quantile(lat_ms, 0.9),
    }
    print(f"# {workload}: {len(walls)} passes, {len(lat_ms)} operations timed,"
          f" pass walls {[round(w, 3) for w in walls]}")
    return runner, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def measure_traced(workload: str, seed: int, refs: dict, t_start: float):
    ops = make_ops(workload, random.Random(seed), refs)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as span_dir:
        plain = Runner(refs, t_start + DEADLINE_S)
        untraced_wall = plain.run_pass(ops)
        runner = Runner(refs, t_start + DEADLINE_S, span_dir)
        traced_wall = runner.run_pass(ops)
        runner.attempted += plain.attempted
        runner.failures += plain.failures
        totals = tracer.Totals(INCLUSIVE)
        for path in runner.span_files:
            if os.path.exists(path):
                totals.add(*tracer.load(path))
    return runner, layer_metrics(totals, traced_wall, untraced_wall)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the denominator is 0 (nothing was attempted)."""
    return num / den if den else 0.0


def layer_metrics(totals: tracer.Totals, traced_wall: float, untraced_wall: float) -> dict:
    units = per_layer_units()
    values: dict[str, float] = {}
    module_self = totals.module_self()
    for mod, v in module_self.items():
        values[f"{mod}.self_s"] = v
    values["unattributed.self_s"] = traced_wall - sum(module_self.values())
    values["traced.wall_s"] = traced_wall
    for mod, fns in ENTRY_POINTS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            values[f"{name}.calls"] = totals.calls.get(name, 0)
            values[f"{name}.self_s"] = totals.self_s.get(name, 0.0)
    for name in INCLUSIVE:
        values[f"{name}.incl_s"] = totals.incl_s[name]
    for name in tracer.CACHED:
        hits, misses = totals.cache.get(name, (0, 0))
        values[f"{name}.cache_hit_ratio"] = ratio(hits, hits + misses)
    c = totals.counters
    values["replab.subrepresentation_subspaces.accept_ratio"] = ratio(
        c.get("subrep_accepted", 0), c.get("subrep_candidates", 0))
    values["weyl.noncrossing_partitions.keep_ratio"] = ratio(
        c.get("nc_size", 0), c.get("weyl_size", 0))
    values["weyl.is_c_sortable.true_ratio"] = ratio(
        c.get("sortable_true", 0), c.get("sortable_calls", 0))
    values["oracle_cap_refusals"] = c.get("oracle_cap_refusals", 0)
    values["tracing_overhead_ratio"] = ratio(traced_wall, untraced_wall)
    return {k: (values[k], unit) for k, unit in units.items()}


# --- reproduction metadata ---------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def metadata(args, load_start) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:  # no git program
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quivernc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    init = (ROOT / "src" / "quivernc" / "__init__.py").read_text()
    version = re.search(r'^__version__ = "([^"]*)"', init, re.M)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha, "src_sha256": src.hexdigest(),
        "quivernc_version": version.group(1) if version else None,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start), "loadavg_end": list(os.getloadavg()),
        "quiver_sha256": {p.stem: sha256_file(p) for p in sorted(QUIVERS.glob("*.quiver"))},
        "program_env": "PYTHONPATH=src, QUIVERNC_THREADS unset",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    load_start = os.getloadavg()
    if not (ROOT / "src" / "quivernc" / "cli.py").is_file():
        print(f"error: no quivernc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    if args.trace:
        runner, metrics = measure_traced(args.workload, args.seed, refs, t_start)
    else:
        runner, metrics = measure(args.workload, args.seed, args.seconds, refs, t_start)
    for why in runner.failures:
        print(f"# FAILED {why}")
    print("meta " + json.dumps(metadata(args, load_start), sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
