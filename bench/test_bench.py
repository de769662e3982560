"""Smoke test of the benchmark itself on tiny workloads.

    python3 -m pytest bench/test_bench.py

The benchmark, BENCHMARK.json and the package source are copied into a
temporary checkout whose workload files are shrunk to a few short runs.
Every workload then runs in both modes, and each metric BENCHMARK.json
declares must be printed with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "flagship.cfg": """
[prior]
kind = lrgmm
d = 8
r = 2
k = 3
seed = 101
[sensing]
m = 6
seed = 202
[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-3
horizon = 12
[schedule.infinite_geometric]
sigma_max = 0.5
a = 0.8
[run]
n_iters = 12
trials = 2
""",
    "sparse.cfg": """
[prior]
kind = sparse
d = 6
s = 2
[sensing]
m = 5
seed = 202
[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-3
horizon = 12
[run]
trials = 1
""",
    "box.cfg": """
[prior]
kind = box
lower = -1 -1 -1 0 0 0
upper = 1 1 1 0 0 0
[sensing]
m = 5
seed = 202
[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-3
horizon = 12
[run]
trials = 2
""",
    "constants.ini": """
[operator]
m = 6
seed = 202
[union.small]
d = 8
r = 2
k = 2
seed = 101
[union.wide]
d = 8
r = 2
k = 4
seed = 101
[estimate]
samples = 200
""",
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(ROOT / "bench", root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, text in TINY.items():
        (root / "bench" / "workloads" / name).write_text(text)
    bare = tmp_path_factory.mktemp("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(root / "bench", bare / "bench")
    shutil.copytree(ROOT / "src" / "projdiff", root / "src" / "projdiff",
                    ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, "bench/record_reference.py", "--seeds", "1"],
                   cwd=root, check=True, capture_output=True, timeout=300)
    return root, bare


def test_every_declared_metric_is_printed_for_every_workload(checkout):
    root, _ = checkout
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed", "0",
                           "--seconds", "1"], cwd=root, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    names = {workload["name"] for workload in spec["workloads"]}
    printed = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] in names:
            workload, name, value, unit = fields
            printed[workload, name] = (float(value), unit)
    for workload in spec["workloads"]:
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert printed[workload["name"], entry["name"]][1] == entry["unit"]
        for entry in spec["end_to_end"]:
            assert printed[workload["name"], entry["name"]][0] > 0.0, entry["name"]


def test_result_line_follows_the_contract(checkout):
    root, _ = checkout
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sparse", "--seed", "0",
                           "--seconds", "1", "--trace", "1"], cwd=root, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in spec["per_layer"]}


def test_a_checkout_without_the_program_exits_nonzero_and_prints_no_result(checkout):
    _, bare = checkout
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flagship", "--seed",
                           "0", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
