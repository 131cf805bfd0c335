"""Benchmark of sobrecon: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  With `--trace 0` the run starts fresh
interpreters one after another until `--seconds` have passed; each times
its set-up, its cold pass and one warm pass.  End-to-end metrics are the
medians of those samples, which thus span the whole run.  With `--trace 1`
a single interpreter runs traced passes and reports per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

BLAS thread variables are recorded, never set: the cold cost of Gauss-rule
construction depends on them, and users pay it with their own settings.

    python3 perfbench/run.py --regenerate-reference

rewrites the reference outputs in perfbench/reference from the code in the
checkout.  Nothing else ever writes them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Every run, its set-up included, must end within this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SOBOLEV_RECON_THREADS")


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None when the
    library cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    """What the timings depend on, as this process inherited it."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def child(args, interpreter: int, deadline: float) -> dict:
    """Start one worker interpreter, wait for it and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--interpreter", str(interpreter),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB",
         "ok_ratio": "ratio"}


def end_to_end(runs: list[dict], attempted: int, failed: int) -> dict:
    """Medians over the interpreters, the largest peak memory.  ok_ratio is
    1 - fail_ratio, which is never 0."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "cold_s": statistics.median(r["cold_s"] for r in runs),
        "warm_s": statistics.median(r["warm_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "ok_ratio": 1.0 - failed / attempted,
    }


def regenerate() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sobrecon.cli import main

    run_dir = os.path.join(OUT_DIR, "reference-run")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    try:
        for workload in wl.WORKLOADS:
            write_reference(main, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def write_reference(main, workload: str, run_dir: str):
    results = wl.run_pass(main, wl.pass_argvs(workload, wl.REFERENCE_SEED, run_dir))
    got = wl.capture(workload, results)
    if workload == "verify":
        reference = {"seed": wl.REFERENCE_SEED, "trials": wl.VERIFY_TRIALS,
                     "checks": got["checks"]}
    else:
        reference = {"output": got}
    with open(os.path.join(wl.REFERENCE_DIR, f"{workload}.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote reference for {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sobrecon", "cli.py")):
        print(f"error: no sobrecon sources under {ROOT}", file=sys.stderr)
        return 2
    if args.regenerate_reference:
        return regenerate()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    runs, start = [], time.monotonic()
    while not runs or (not args.trace and time.monotonic() - start < args.seconds):
        runs.append(child(args, len(runs), deadline))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = runs[0]["metrics"] if args.trace else end_to_end(runs, attempted, failed)

    units = tracing.metric_units() if args.trace else UNITS
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} interpreters {len(runs)}")
    print("env " + json.dumps(env, sort_keys=True))
    for run in runs:
        for problem in run["problems"]:
            print("FAILED " + problem.rstrip())
    print(f"fail_ratio {failed / attempted!r} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(dict(result, env=env, runs=runs), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
