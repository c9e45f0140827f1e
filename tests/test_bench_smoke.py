"""Smoke test of the benchmark command: one small round per workload.

It checks the result line's shape, correctness flags and metric names and
units against BENCHMARK.json, not the timings. It also checks that every
name the benchmark's tracer and workloads look up in biaslens exists, so a
rename or deletion fails here and not only in the benchmark's self-test.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
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


def _tracer_targets() -> set[tuple[str, str]]:
    """(module, attribute or Class.method) of every ``TARGETS`` row of
    ``bench/tracing.py``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, attr) for module, attr, *_ in tracing.TARGETS}


def _workload_lookups() -> set[tuple[str, str]]:
    """(module, attribute) of every ``<alias>.<name>`` that ``bench/workloads.py``
    reads from a module it imports as ``import biaslens.<x> as <alias>``."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname: alias.name
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("biaslens.") and alias.asname
    }
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }


@pytest.mark.parametrize("module_name, attr", sorted(_tracer_targets() | _workload_lookups()))
def test_benchmark_lookup_resolves(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
