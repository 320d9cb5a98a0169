"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Learner work per update at the commit that defined the benchmark:
# forward / backward / adam_step calls per update, and the critic backward
# inside actor_update (one of three backward calls) keeps only dfeats.
EXPECTED = {
    "train_mini": (10, 6, 4),
    "train_default": (15, 9, 6),
}


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith((".calls", ".per_update", "_ratio"))
            and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_count_metrics_repeat_and_match(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    assert first == second
    forward, backward, adam = EXPECTED[workload]
    assert first["neural.forward.learn.per_update"] == forward
    assert first["neural.backward.per_update"] == backward
    assert first["neural.adam_step.per_update"] == adam
    assert first["neural.backward.param_grads_discarded_ratio"] == 1 / 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "train_mini", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
