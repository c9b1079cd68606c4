"""Fast self-test of the benchmark (toy sizes, two to three minutes).

Run from the repository root::

    python3 -m pytest -q hostbench/selftest.py

It runs every workload at toy size in both modes and checks the result
line against ``BENCHMARK.json``; checks that one corrupted served label
is counted as a failure; and checks that the benchmark refuses to run,
without printing a result, when there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--toy", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == RESULT_KEYS
    return record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    record = result_line(run_bench(workload, trace))
    assert record["correct"] is True
    assert record["failed"] == 0
    assert record["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = record["metrics"]
    assert set(printed) == {m["name"] for m in listed}
    for m in listed:
        assert printed[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(printed[m["name"]]["value"], float)


def test_one_corrupted_label_is_a_failure():
    record = result_line(run_bench("fit_lowdim", 1, "--corrupt-one-label"))
    assert record["correct"] is False
    assert record["failed"] == 1
    assert record["metrics"]["fail_frac"]["value"] == pytest.approx(1 / record["attempted"])


def test_refuses_without_a_program():
    bare = os.path.join(ROOT, "hostbench", "out", f"bare-{os.getpid()}")
    try:
        os.makedirs(os.path.join(bare, "hostbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(os.path.join(ROOT, "hostbench")):
            if name.endswith((".py", ".md")):
                shutil.copy(os.path.join(ROOT, "hostbench", name), os.path.join(bare, "hostbench"))
        proc = run_bench("fit_lowdim", 0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
