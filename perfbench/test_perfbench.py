"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload at a tiny size, checks that traced counts repeat
across processes, feeds the checker a flipped verdict and a corrupted
witness, and runs the benchmark where the program is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_is_correct_and_reports_every_metric(workload):
    code, stdout = bench("--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", "0", "--size", "tiny")
    doc = result(stdout)
    assert code == 0 and doc["correct"]
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_across_processes(workload):
    runs = []
    for _ in range(2):
        code, stdout = bench("--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", "1", "--size", "tiny")
        assert code == 0
        runs.append(result(stdout)["metrics"])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in runs[0].items()} == expected
    counts = [name for name, unit in expected.items() if unit == "count"]
    assert [runs[0][n]["value"] for n in counts] == \
        [runs[1][n]["value"] for n in counts]


def _first(items, label):
    return next(q for item in items for q in item if q.label == label)


def test_checker_catches_flipped_verdict_and_corrupted_witness(tmp_path):
    program, items, _ = run.set_up("class-reps", 3, tmp_path / "lib", True)
    query = _first(items, "is_universal extremal")
    decision = query.call()
    query.check(decision)
    flipped = dataclasses.replace(decision, holds=True, witness=None)
    corrupted = dataclasses.replace(decision, witness=decision.witness[:-1])
    samples, outputs = [], {}
    for output in (decision, flipped, corrupted):
        key = (id(query), output)
        outputs[key] = (query, output, False)
        samples.append(run.Sample(query, 0.0, key, False))
    errors = run.check_samples(samples, outputs)
    assert len(errors) == 2
    assert [s.wrong for s in samples] == [False, True, True]

    _, items, _ = run.set_up("subset-search", 3, tmp_path / "cli", True)
    query = _first(items, "universal extremal")
    code, stdout = query.call()
    doc = json.loads(stdout)
    query.check((code, stdout))
    for bad in (dict(doc, result=True), dict(doc, witness=doc["witness"][1:])):
        with pytest.raises(workloads.Wrong):
            query.check((code, json.dumps(bad)))


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    code, stdout = bench("--workload", NAMES[0], "--seed", "1", "--seconds",
                         "1", "--trace", "0", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert stdout.strip() == ""
