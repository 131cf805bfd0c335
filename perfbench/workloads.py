"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass calls the public entry points in-process, exactly as the command
line would: `sobrecon.cli.main(["reproduce", ...])` for the sweeps and
`sobrecon.cli.main(["verify", "all", ...])` for the property suites.  The
sweeps run the fixed figure presets, so their inputs do not depend on the
seed; the seed reaches only `verify`.

Outputs are compared with the reference in `reference/<workload>.json`:
every number must satisfy

    |got - ref| <= RTOL * |ref| + ATOL + one unit in the last printed digit

and every integer and every piece of text must match exactly.  ATOL is the
figures' own exact-recovery threshold (1e-12): errors below it sit at the
quadrature floor (1e-14 to 1e-16), where reordering a sum moves them
freely, while anything the paper calls exact still has to stay under it.
RTOL (1e-4) is twelve times the largest change that switching BLAS from
two threads to one makes (8.2e-6 relative, on the fig1 Sobolev errors at
degree 128 and 256, where fifth derivatives of the series amplify rounding;
every other number stays identical), yet far below any change that would
move a convergence curve, whose points differ by factors of 2 or more.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re

RTOL = 1e-4
ATOL = 1e-12

VERIFY_TRIALS = 10
# The seed whose verify lines the reference stores.  Passes at other seeds
# are compared by check name and status; every run also makes one
# unmeasured pass at this seed, whose numbers are compared too.
REFERENCE_SEED = 0

SWEEPS = {"sweep-1d": ("fig1", "fig2"), "sweep-2d": ("fig3", "fig4")}
WORKLOADS = tuple(SWEEPS) + ("verify",)

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def pass_seed(seed: int, interpreter: int, index: int) -> int:
    """Seed of pass `index` in interpreter `interpreter` of a run.

    The work of a verify pass depends on its seed (spread 17% across seeds at
    10 trials), so each pass draws its own; the median over a run's passes
    then varies little from one run seed to the next."""
    return seed * 1_000_000 + interpreter * 1_000 + index


def pass_argvs(workload: str, seed: int, out_dir: str) -> list[list[str]]:
    """Command lines of one pass of the workload."""
    if workload in SWEEPS:
        return [["reproduce", fig, "--out", out_dir] for fig in SWEEPS[workload]]
    if workload == "verify":
        return [["verify", "all", "--seed", str(seed), "--trials", str(VERIFY_TRIALS)]]
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def run_pass(main, argvs) -> list[tuple[int, str]]:
    """Exit code and captured standard output of each command line."""
    results = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        results.append((code, buf.getvalue()))
    return results


def capture(workload: str, results) -> dict:
    """The checked part of a pass's output: for sweeps the CSV error columns
    (runtime_s excluded) and the figure-criteria lines, for verify the
    check lines."""
    if workload == "verify":
        return {"checks": [ln for ln in results[0][1].splitlines()
                           if ln.startswith(("PASS ", "FAIL "))]}
    out = {"csv": {}, "criteria": []}
    for _, stdout in results:
        for line in stdout.splitlines():
            if line.startswith("wrote "):
                path = line[len("wrote "):]
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                out["csv"][os.path.basename(path)] = [row[:4] for row in rows[1:]]
            elif line.startswith("  PASS ") or line.startswith("  FAIL "):
                out["criteria"].append(line.strip())
    return out


def numbers_match(got: str, ref: str) -> bool:
    """Text identical and every number within the stated tolerance."""
    got_nums, ref_nums = _NUMBER.findall(got), _NUMBER.findall(ref)
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", ref) or len(got_nums) != len(ref_nums):
        return False
    for g, r in zip(got_nums, ref_nums):
        if not any(c in r for c in ".eE"):
            if g != r:
                return False
            continue
        gv, rv = float(g), float(r)
        mantissa = re.split("[eE]", r)[0]
        digits = len(mantissa.split(".")[1]) if "." in mantissa else 0
        exponent = int(re.split("[eE]", r)[1]) if re.search("[eE]", r) else 0
        last_digit = 10.0 ** (exponent - digits)
        if not abs(gv - rv) <= RTOL * abs(rv) + ATOL + last_digit:
            return False
    return True


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def expected(reference: dict, workload: str, seed: int) -> dict:
    """The reference output for this seed.  Verify lines are stored for
    REFERENCE_SEED only; for another seed only their name and status are
    known."""
    if workload == "verify":
        if seed == reference["seed"]:
            return {"checks": reference["checks"]}
        return {"names": [check_name(line) for line in reference["checks"]]}
    return reference["output"]


def check_name(line: str) -> str:
    """Status and name of a verify check line, without its measured detail."""
    return line.split(" (")[0]


def check(workload: str, results, got: dict, want) -> tuple[int, int, list[str]]:
    """Operations attempted and failed in one pass, with a line per failure.

    An operation is one command line (fails on a nonzero exit code), one
    sweep point (fails when its errors are not finite or differ from the
    reference) and one criterion or check line (fails when it reports FAIL
    or differs from the reference)."""
    attempted = failed = 0
    problems = []

    def op(ok: bool, what: str):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(what)

    for code, _ in results:
        op(code == 0, f"exit code {code}")
    if workload == "verify":
        lines = got["checks"]
        if "names" in want:
            op(len(lines) == len(want["names"]), f"{len(lines)} check lines")
            for line, name in zip(lines, want["names"]):
                op(check_name(line) == name, f"check {line!r}, want {name!r}")
        else:
            op(len(lines) == len(want["checks"]), f"{len(lines)} check lines")
            for line, ref in zip(lines, want["checks"]):
                op(line.startswith("PASS ") and numbers_match(line, ref),
                   f"check {line!r}, want {ref!r}")
        return attempted, failed, problems

    op(set(got["csv"]) == set(want["csv"]), f"CSV files {sorted(got['csv'])}")
    for name, ref_rows in want["csv"].items():
        rows = got["csv"].get(name, [])
        op(len(rows) == len(ref_rows), f"{name}: {len(rows)} rows")
        for row, ref in zip(rows, ref_rows):
            op(all(_finite(v) for v in row[1:])
               and numbers_match(",".join(row), ",".join(ref)),
               f"{name}: row {row}, want {ref}")
    op(len(got["criteria"]) == len(want["criteria"]),
       f"{len(got['criteria'])} criteria lines")
    for line, ref in zip(got["criteria"], want["criteria"]):
        op(line.startswith("PASS ") and numbers_match(line, ref),
           f"criterion {line!r}, want {ref!r}")
    return attempted, failed, problems


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False
