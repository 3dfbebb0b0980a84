"""The benchmark's own tests: seeded generation, the checker, the result format.

    python3 -m pytest -q perfbench/tests
"""

import functools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gen
import run

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(gen.GENERATORS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    again = gen.GENERATORS[workload](7)
    assert gen.GENERATORS[workload](7) == again
    assert [s.text for s in gen.GENERATORS[workload](8)] != [s.text for s in again]


@functools.cache
def ran(workload):
    """Every operation of one pass, run once, with its result."""
    sc, pool = run.setup(workload, 3)
    return sc, [(op, op.run()) for op in pool]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_accepts_the_answers_of_this_commit(workload):
    verdicts = [(op.kind, op.expect, op.check(r)) for op, r in ran(workload)[1]]
    assert all(ok for _, _, (ok, _) in verdicts), verdicts


@pytest.mark.parametrize("workload", ["decide", "separate"])
def test_checker_rejects_a_flipped_verdict(workload):
    """An answer of the opposite kind, given to the same question, fails."""
    results = ran(workload)[1]
    flipped = 0
    for op, _ in results:
        for other, result in results:
            if other.kind == op.kind and other.expect != op.expect:
                assert not op.check(result)[0], (op.kind, op.expect, other.expect)
                flipped += 1
    assert flipped >= 4


def test_checker_rejects_a_negated_axiom():
    sc, results = ran("progress")
    for op, (b0, t, out, comp) in results:
        bad = sc.Theory((sc.Not(t.axioms[0]),) + tuple(t.axioms[1:]))
        assert not op.check((b0, bad, out, comp))[0], op.kind


def test_checker_rejects_a_countermodel_that_disagrees_with_the_world():
    sc, results = ran("decide")
    checked = 0
    for op, v in results:
        if op.kind == "gw_project" and op.expect == "Countermodel":
            assert op.check(v)[0]
            m = v.model
            # No block is on itself in any world, so On(e0, e0) contradicts it.
            toggled = tuple((k, t ^ {(0, 0)} if k == ("On", "now") else t) for k, t in m.relations)
            assert not op.check(replace(v, model=sc.FiniteModel(m.size, m.consts, toggled)))[0]
            checked += 1
    assert checked


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
           "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    p = _run(ROOT, workload, 1)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert (HERE / "out" / f"spans-{workload}-s2-t1.jsonl.gz").is_file()


def test_untraced_run_reports_every_end_to_end_metric():
    p = _run(ROOT, "decide", 0)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= run.MIN_OPS
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    records = (HERE / "out" / "ops-decide-s2-t0.jsonl").read_text().splitlines()
    assert len(records) == out["attempted"]
    assert {"kind", "verdict", "axioms", "nodes", "constants", "max_extra", "una", "duration_ms"} <= set(json.loads(records[0]))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(tmp_path, "progress", 0)
    assert p.returncode != 0
    assert p.stdout == ""
