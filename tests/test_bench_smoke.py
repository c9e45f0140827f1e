"""Smoke test of the benchmark command: one small round per workload.

It checks the result line's shape, correctness flags and metric names and
units against BENCHMARK.json, not the timings.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["cnn-combined", "vit-augment", "cli-sensitivity", "manifest-scale"])
def test_small_round_is_correct_and_names_the_contract_metrics(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--scale", "small",
            "--seconds", "0", "--seed", "0", "--trace", "0",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
