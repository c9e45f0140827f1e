"""Regenerate the reference tables of bench/README.md.

    python3 bench/reference.py --seeds 1-10 [--workloads cnn-combined,...] [--seconds 24]

Runs the benchmark once per workload and seed, each in a fresh process, and
prints a Markdown table of each end-to-end metric's median, first and third
quartile (``statistics.quantiles(values, n=4)``) and spread, the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = p.parse_args(argv)

    print("| workload | metric | median | q1 | q3 | spread | runs |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"error: {workload} seed {seed}: {result}", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)  # the middle cut is the median
            print(f"| {workload} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} | {len(v)} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
