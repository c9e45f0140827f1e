"""Self-test of the benchmark at small size; runs in well under a minute.

    python3 bench/selftest.py

For every workload named in BENCHMARK.json it runs the benchmark with tracing
off and on, and checks that:

- the last line is a result with exactly the keys the contract names, with
  every correctness check of the workload run and passed, and none failed;
- the printed metric names and units are those of BENCHMARK.json
  (``end_to_end`` untraced, ``per_layer`` traced);
- the traced run's output files (``report.json`` and the rest) are
  byte-identical to the untraced run's for the same seed.

It also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = [*spec["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "small"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=300, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def line_after(lines: list[str], prefix: str) -> str:
    (line,) = [x for x in lines if x.startswith(prefix)]
    return line[len(prefix):]


def check_workload(name: str, spec: dict, required: set[str], errors: list[str]) -> None:
    outputs = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run(ROOT, name, trace)
        where = f"{name} --trace {trace}"
        if code != 0 or not lines:
            errors.append(f"{where}: exit code {code}")
            continue
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{where}: result keys {sorted(result)}")
            continue
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 2:
            errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                          f"failed={result['failed']}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        if got != want:
            errors.append(f"{where}: metrics differ from BENCHMARK.json {key}: "
                          f"{sorted(set(got) ^ set(want)) or 'units'}")
        for metric, v in result["metrics"].items():
            value = v["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
                errors.append(f"{where}: {metric} = {value!r}")
            elif key == "end_to_end" and value == 0:
                errors.append(f"{where}: {metric} reads 0")
        checks = dict(item.split("=") for item in line_after(lines, "checks: ").split())
        if set(checks) != required or set(checks.values()) != {"ok"}:
            errors.append(f"{where}: checks {checks}, want all of {sorted(required)} ok")
        outputs[trace] = json.loads(line_after(lines, "outputs: "))
    if len(outputs) == 2 and (outputs[0] != outputs[1] or not outputs[0]):
        errors.append(f"{name}: traced outputs differ from untraced: {outputs}")


def check_without_sources(errors: list[str]) -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(bare, "cnn-combined", 0)
    if code == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"without sources: exit code {code}, output {lines}")
    shutil.rmtree(bare)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    for w in spec["workloads"]:
        before = len(errors)
        required = set(workloads.WORKLOADS[w["name"]].CHECKS) | {"rounds_agree"}
        check_workload(w["name"], spec, required, errors)
        print(f"{w['name']}: {'ok' if len(errors) == before else 'FAILED'}", flush=True)
    check_without_sources(errors)
    for e in errors:
        print(f"error: {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
