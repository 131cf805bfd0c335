"""One fresh benchmark process: set-up, the cold pass, then a warm pass.

`run.py` starts this script several times per run and reads the JSON
object it prints as its last line.  Set-up is timed from before
`import sobrecon` to the end of building the workload's inputs; the cold
pass is the first pass in the process, with every `lru_cache` empty; the
warm pass repeats it.

With `--trace 1` the cold pass is traced, then untraced warm passes run,
closed loop, for half of `--seconds` and traced ones for the other half,
and per-layer metrics replace the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class Passes:
    """Runs passes of one workload and tallies their checked operations."""

    def __init__(self, main, args, run_dir: str):
        self.main, self.args, self.run_dir = main, args, run_dir
        self.workload = args.workload
        self.reference = wl.load_reference(self.workload)
        self.count = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, seed=None) -> float:
        """Seconds one pass took; its output is checked afterwards.  Without
        `seed` the pass takes the next seed of this interpreter's stream."""
        if seed is None:
            seed = wl.pass_seed(self.args.seed, self.args.interpreter, self.count)
            self.count += 1
        argvs = wl.pass_argvs(self.workload, seed, self.run_dir)
        start = time.perf_counter()
        try:
            results = wl.run_pass(self.main, argvs)
        except Exception:  # noqa: BLE001 - a crashing pass is a failed operation
            elapsed = time.perf_counter() - start
            self._tally(1, 1, [traceback.format_exc()])
            return elapsed
        elapsed = time.perf_counter() - start
        got = wl.capture(self.workload, results)
        want = wl.expected(self.reference, self.workload, seed)
        self._tally(*wl.check(self.workload, results, got, want))
        return elapsed

    def _tally(self, attempted: int, failed: int, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: 10 - len(self.problems)])

    def loop(self, seconds: float) -> list[float]:
        """Closed loop of passes for `seconds` (at least one pass)."""
        times, start = [], time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.run())
        return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--interpreter", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    start = time.perf_counter()
    from sobrecon.cli import main as cli_main
    os.makedirs(run_dir, exist_ok=True)
    setup_s = time.perf_counter() - start

    passes = Passes(cli_main, args, run_dir)
    result = {"setup_s": setup_s}
    try:
        if args.trace:
            result["metrics"] = traced_run(passes, args)
        else:
            result["cold_s"] = passes.run()
            result["warm_s"] = passes.run()
        if args.interpreter == 0 and args.workload == "verify":
            passes.run(wl.REFERENCE_SEED)  # unmeasured; its numbers are compared
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=passes.attempted, failed=passes.failed, problems=passes.problems)
    print(json.dumps(result))
    return 0


def traced_run(passes: Passes, args) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes.run()
        cold = tracer.take_pass()
        tracer.uninstall()
        untraced = passes.loop(args.seconds / 2)
        tracer.install()
        traced, warm = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds / 2:
            traced.append(passes.run())
            warm.append(tracer.take_pass())
    finally:
        tracer.uninstall()
    write_spans(args, warm[-1][2])
    metrics = tracing.layer_metrics(cold, warm)
    metrics["trace.warm_s"] = statistics.median(traced)
    metrics["trace.untraced_warm_s"] = statistics.median(untraced)
    metrics["trace.overhead"] = metrics["trace.warm_s"] / metrics["trace.untraced_warm_s"]
    return metrics


def write_spans(args, spans):
    """The spans of the last traced warm pass, one JSON array per line:
    id, parent id (0 for none), name, start, end, in seconds."""
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for sid, parent, name, start, end, _, _ in spans:
            fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
