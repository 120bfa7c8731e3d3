"""Tests of the benchmark itself: span arithmetic, seeded inputs, the
correctness gate and the metric catalogue.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def arrays(spans):
    """Tracer arrays from (name index, parent, start, end) tuples."""
    return (array("i", [s[0] for s in spans]), array("i", [s[1] for s in spans]),
            array("i", [0] * len(spans)), array("d", [s[2] for s in spans]),
            array("d", [s[3] for s in spans]))


def test_self_times_subtract_children_once():
    # root [0,10] -> a [1,4] -> a' [2,3]; root -> b [5,9] -> c [6,8], d [7,8.5]
    spans = [(0, -1, 0, 10), (1, 0, 1, 4), (1, 1, 2, 3), (2, 0, 5, 9),
             (3, 3, 6, 8), (3, 3, 7, 8.5)]
    name_of, parents, _ops, starts, ends = arrays(spans)
    own = tracer.self_times(starts, ends, parents)
    # c and d overlap on [7,8]; b's children cover [6,8.5] once
    assert list(own) == pytest.approx([3, 2, 1, 1.5, 2, 1.5])


def test_self_times_clip_children_to_parent():
    name_of, parents, _ops, starts, ends = arrays([(0, -1, 0, 2), (1, 0, 1, 3)])
    assert list(tracer.self_times(starts, ends, parents)) == pytest.approx([1, 2])


def test_totals_sum_self_time_and_skip_recursion_in_inclusive_time():
    names = ["cli.main", "tors.gen", "fields.rref"]
    # cli.main [0,10] -> tors.gen [1,8] -> tors.gen [2,6] -> fields.rref [3,5]
    spans = [(0, -1, 0, 10), (1, 0, 1, 8), (1, 1, 2, 6), (2, 2, 3, 5)]
    header = {"names": names, "count": len(spans),
              "counters": {"oracle_cap_refusals": 1},
              "cache": {"weyl.weyl_group": [3, 1]}}
    totals = tracer.Totals(["tors.gen", "fields.rref"])
    totals.add(header, arrays(spans))
    totals.add(header, arrays(spans))
    assert totals.calls == {"cli.main": 2, "tors.gen": 4, "fields.rref": 2}
    assert totals.self_s == pytest.approx({"cli.main": 6, "tors.gen": 10, "fields.rref": 4})
    assert totals.incl_s == pytest.approx({"tors.gen": 14, "fields.rref": 4})
    mods = totals.module_self()
    assert sum(mods.values()) == pytest.approx(20)  # the two root spans
    assert mods["tors"] == pytest.approx(10)
    assert totals.counters == {"oracle_cap_refusals": 2}
    assert totals.cache == {"weyl.weyl_group": [6, 2]}


def test_layer_metrics_add_up_to_the_traced_wall():
    totals = tracer.Totals(run.INCLUSIVE)
    header = {"names": ["cli.main", "fields.rref"], "count": 2,
              "counters": {}, "cache": {}}
    totals.add(header, arrays([(0, -1, 1, 4), (1, 0, 2, 3)]))
    metrics = run.layer_metrics(totals, traced_wall=5.0, untraced_wall=4.0)
    assert set(metrics) == set(run.per_layer_units())
    selfs = [v for k, (v, _u) in metrics.items()
             if k.endswith(".self_s") and k.count(".") == 1]
    assert sum(selfs) == pytest.approx(5.0)
    assert metrics["unattributed.self_s"][0] == pytest.approx(2.0)
    assert metrics["tracing_overhead_ratio"][0] == pytest.approx(1.25)
    assert metrics["latt.lattice_analyze.calls"][0] == 0


@pytest.fixture(scope="module")
def refs():
    return json.loads((HERE / "refs.json").read_text())


def test_same_seed_same_query_stream_and_other_seeds_differ(refs):
    def stream(seed):
        return run.make_ops("map-session", random.Random(seed), refs)

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)
    ops = stream(7)
    assert len(ops) == len(run.MAP_QUIVERS) * run.MAP_PER_QUIVER
    pairs = [(op["quiver"], op["argv"][3], op["argv"][5]) for op in ops]
    for q in run.MAP_QUIVERS:
        for src, dst in run.PAIRS:
            assert pairs.count((q, src, dst)) == run.MAP_PER_QUIVER // len(run.PAIRS)


def test_stratified_rows_cover_every_slice():
    rng = random.Random(3)
    picks = sorted(run.stratified_rows(rng, 132, 20))
    assert all(i * 132 // 20 <= p < (i + 1) * 132 // 20 for i, p in enumerate(picks))
    assert len(set(run.stratified_rows(rng, 5, 20))) <= 5  # more draws than rows


def test_cli_workloads_are_seeded_orders_of_a_fixed_command_set(refs):
    a = run.make_ops("cli-data", random.Random(1), refs)
    b = run.make_ops("cli-data", random.Random(2), refs)
    assert sorted(op["key"] for op in a) == sorted(op["key"] for op in b)
    assert all(op["key"] in refs["digests"] for op in a)
    v1 = run.make_ops("cli-verify", random.Random(1), refs)
    assert v1 == run.make_ops("cli-verify", random.Random(1), refs)
    assert v1 != run.make_ops("cli-verify", random.Random(2), refs)


def test_gate_catches_corrupted_output_and_nonzero_exit():
    out = "[0,0,1]\n[0,1,0]\n"
    op = run.cli_op(["roots"], "A3")
    refs = {"digests": {op["key"]: hashlib.sha256(out.encode()).hexdigest()}}
    assert run.check(op, 0, out, refs) is None
    assert run.check(op, 0, out.replace("1", "2"), refs) is not None
    assert run.check(op, 1, out, refs) == "exit code 1"
    assert run.check(op, "timeout", "", refs) is not None


def test_gate_counts_enumerate_rows():
    op = run.cli_op(["enumerate", "--what=torsion"], "A4")
    out = "0\n" * 41
    refs = {"digests": {op["key"]: hashlib.sha256(out.encode()).hexdigest()}}
    assert run.check(op, 0, out, refs) == "41 rows, expected 42"


def test_gate_on_verify_and_map_answers():
    op = {"kind": "verify", "argv": ["verify"], "quiver": "A3"}
    good = "".join(f"{s}: pass (3 instances, 0 failures, 0.01s)\n" for s in run.SUITES)
    assert run.check(op, 0, good, {}) is None
    bad = good.replace("lattice: pass (3 instances, 0 failures",
                       "lattice: FAIL (3 instances, 1 failures")
    assert run.check(op, 1, bad, {}) is not None
    assert run.check(op, 0, bad, {}) is not None
    m = {"kind": "map", "dst": "nc", "expect": {"word": [1, 2]}}
    assert run.check(m, 0, '{"word":[1,2],"matrix":[[0]]}', {}) is None
    assert run.check(m, 0, '{"word":[2,1],"matrix":[[0]]}', {}) is not None
    w = {"kind": "map", "dst": "wide", "expect": [[0, 1]]}
    assert run.check(w, 0, "[[0,1]]", {}) is None
    assert run.check(w, 0, "[[1,0]]", {}) is not None


def test_runner_counts_a_failing_process(refs):
    runner = run.Runner(refs, time.perf_counter() + 60)
    op = run.cli_op(["roots"], "A5")
    runner.run_cli(op)
    op = dict(op, argv=["roots", "perfbench/quivers/missing.quiver"])
    runner.run_cli(op)
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "exit code 2" in runner.failures[0]
    assert 5_000 < runner.peak_rss_kb < 200_000


def test_traced_child_wraps_every_namespace(tmp_path):
    spans = tmp_path / "spans.bin"
    env = run.program_env()
    subprocess.run([sys.executable, str(run.CHILD), "--spans", str(spans), "--op", "4",
                    "cli", "enumerate", "--what=torsion", run.quiver_path("A3")],
                   cwd=run.ROOT, env=env, capture_output=True, check=True)
    header, (name_of, parents, ops, starts, ends) = tracer.load(str(spans))
    called = {header["names"][i] for i in name_of}
    assert {"cli.main", "cli.cmd_enumerate", "tors.enumerate_torsion_classes",
            "tors.gen", "replab.hom_basis", "fields.rref"} <= called
    assert set(ops) == {4}
    assert parents[0] == -1 and header["names"][name_of[0]] == "cli.main"
    assert all(s <= e for s, e in zip(starts, ends))
    assert header["cache"]["tors.enumerate_torsion_classes"] == [0, 1]


def test_beta_cdf_matches_closed_forms():
    for x in (0.1, 0.3, 0.5, 0.8):
        assert run.beta_cdf(x, 1, 1) == pytest.approx(x)
        assert run.beta_cdf(x, 2, 2) == pytest.approx(3 * x**2 - 2 * x**3)
        assert run.beta_cdf(x, 3, 1) == pytest.approx(x**3)
    assert run.beta_cdf(0.9, 433.8, 48.2) == pytest.approx(0.5, abs=0.03)


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.quantile([5.0], 0.5) == 5.0
    assert run.quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    # weights 7/27, 13/27, 7/27 for the median of three
    assert run.quantile([0.0, 0.0, 27.0], 0.5) == pytest.approx(7.0)
    xs = [i / 999 for i in range(1000)]
    assert run.quantile(xs, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert run.quantile(xs, 0.9) == pytest.approx(0.9, abs=2e-3)


def test_dynkin_counts():
    assert [run.catalan(t) for t in ("A4", "D4", "A5", "D5", "E6")] == [42, 50, 132, 182, 833]
    assert run.exceptional_count("D4") == 162
    assert tracer.weyl_order(4, [(2, 1), (2, 3), (2, 4)]) == 192
    assert tracer.weyl_order(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]) == 51840
    assert tracer.weyl_order(3, [(1, 2)]) == 6 * 2
    assert [tracer.subspace_count(2, d) for d in range(4)] == [1, 2, 5, 16]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert len(spec["per_layer"]) <= 128
