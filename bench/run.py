"""Audit-and-mitigation benchmark for biaslens.

Run from the root of a checkout:

    python3 bench/run.py --workload cnn-combined --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 24 --trace 0

One process runs one workload. It sets its inputs up three times (the median
counts), then repeats rounds of one audit call and one mitigation call until
the next round would overrun ``--seconds``, and reports the median of each
call. With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the calls are wrapped in spans and it
holds the per-module metrics instead. ``--workload all`` runs every workload,
each in a fresh process so that peak RSS belongs to one workload.
"""

import os

# BLAS and OpenMP must be pinned before numpy loads: the program is
# single-threaded otherwise, and the box has 2 CPUs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cnn-combined", "vit-augment", "cli-sensitivity", "manifest-scale")
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "audit_s": "s", "mitigate_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="small: tiny inputs for the self-test")
    return p.parse_args(argv)


def _openblas_threads() -> str:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def _rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


def run_workload(args) -> int:
    if not (ROOT / "src" / "biaslens" / "__init__.py").is_file():
        print(f"error: no biaslens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import biaslens

    if not Path(biaslens.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported biaslens from {biaslens.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    workdir = OUT_ROOT / f"{args.workload}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale == "small", workdir)
    print("env: " + json.dumps(environment(), sort_keys=True))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        setup_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl.install_probes()

    checker = workloads.Checker()
    attempted = failed = 0
    rounds: list[dict] = []
    first_outputs = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wl.begin_round()
        gc.collect()  # every round starts from the same heap, whatever the last one left
        first_span = len(tracer.spans) if tracer else 0
        times, usage, ok = {}, {}, True
        for call in ("audit", "mitigate"):
            attempted += 1
            if not ok:  # the mitigation call needs the audit's result
                failed += 1
                continue
            u0 = _rusage()
            t0 = time.perf_counter()
            try:
                getattr(wl, call)()
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                traceback.print_exc()
                failed += 1
                ok = False
                continue
            times[call] = time.perf_counter() - t0
            usage[call] = [after - before for after, before in zip(_rusage(), u0)]
        if ok:
            record = {"times": times, "usage": usage}
            if tracer is not None:
                record["modules"] = tracing.module_metrics(tracer.spans, first_span, len(tracer.spans))
            rounds.append(record)
            outputs = workloads.fingerprint(workdir, wl.outputs())
            if first_outputs is None:
                first_outputs = outputs
                try:
                    wl.check(checker)
                except Exception:  # noqa: BLE001 - a crashed check is a failed check
                    traceback.print_exc()
                    checker.expect("checks_completed", False, "a check raised")
            checker.expect("rounds_agree", outputs == first_outputs, "outputs differ between rounds")
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > args.seconds:
            break

    required = set(wl.CHECKS) | {"rounds_agree"}
    missing = sorted(required - set(checker.results)) if rounds else []
    for name in missing:
        checker.expect(name, False, "did not run")
    correct = bool(rounds) and all(checker.results.values())
    print("checks: " + " ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in sorted(checker.results.items())))
    for failure in checker.failures:
        print(f"check failed: {failure}")
    print("outputs: " + json.dumps(first_outputs, sort_keys=True))
    for i, r in enumerate(rounds):
        print(f"round {i}: " + " ".join(
            f"{call}_s {t:.4f} (cpu {r['usage'][call][0] + r['usage'][call][1]:.4f})" for call, t in r["times"].items()
        ))

    def median(values):
        return statistics.median(values) if values else float("nan")

    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "audit_s": median([r["times"]["audit"] for r in rounds]),
            "mitigate_s": median([r["times"]["mitigate"] for r in rounds]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics = {name: median([r["modules"][name] for r in rounds]) for name in tracing.METRIC_NAMES}
        for call in ("audit", "mitigate"):
            for i, field in enumerate(("user_s", "sys_s", "minor_faults")):
                metrics[f"process.{call}.{field}"] = median([r["usage"][call][i] for r in rounds])
        for call in ("audit", "mitigate"):
            metrics[f"traced.{call}_s"] = median([r["times"][call] for r in rounds])
        units = {name: tracing.unit_of(name) for name in metrics}
        tracer.write_spans(workdir / "spans.csv")
        table = tracing.layer_table(tracer.spans)
        (workdir / "layer_table.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        for row in sorted(table, key=lambda r: -r["total_s"])[:12]:
            print(f"layer {row['span']} batch {row['batch']}: {row['calls']} calls, "
                  f"{row['total_s']:.3f} s, median {row['median_us']:.1f} us")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
