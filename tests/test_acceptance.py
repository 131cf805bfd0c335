"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a PASS/FAIL line (run pytest with -s or check the captured
output) and asserts the criterion at its stated tolerance.  The convergence
sweeps are shared across criteria through module-scoped fixtures.
"""

import time

import pytest

from sobrecon.bench import FIGURES, figure_criteria, fit_slope, run_sweep, sweep_point
from sobrecon.quadrature import integrate, rule_for
from sobrecon.targets import get_example
from sobrecon.verify import identity_suite, optimality_suite, roundtrip_suite


def report(number: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def fig1_sweeps():
    u = get_example("example1-1d")
    start = time.perf_counter()
    sweeps = run_sweep(u, "legendre", [(0,), (5,)], FIGURES["fig1"]["params"])
    return sweeps, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig2_sweeps():
    u = get_example("example1-1d")
    return run_sweep(u, "step", FIGURES["fig2"]["gammas"], FIGURES["fig2"]["params"])


@pytest.fixture(scope="module")
def fig3_sweeps():
    w = get_example("example2-2d")
    return run_sweep(w, "legendre", FIGURES["fig3"]["gammas"], FIGURES["fig3"]["params"])


def test_criterion_1_exact_recovery():
    w = get_example("example2-2d")
    start = time.perf_counter()
    l2, s, _, _ = sweep_point(w, "step", (3, 3), 4)
    elapsed = time.perf_counter() - start
    ok = l2 <= 1e-12 and s <= 1e-12 and elapsed < 10.0
    report(1, ok, f"4-cell order-(3,3) recovery: L2 {l2:.2e}, S {s:.2e} "
                  f"(<= 1e-12), {elapsed:.1f}s (< 10s)")


def test_criterion_2_fig1_l2_slopes(fig1_sweeps):
    sweeps, elapsed = fig1_sweeps
    s0 = fit_slope(sweeps[(0,)], "l2", (16, 256))
    s5 = fit_slope(sweeps[(5,)], "l2", (16, 256))
    ok = abs(s0 + 5.0) <= 0.5 and abs(s5 + 5.0) <= 0.5 and elapsed < 180.0
    report(2, ok, f"fig1 L2 slopes {s0:+.3f} (gamma 0), {s5:+.3f} (gamma 5), "
                  f"want -5 +- 0.5; sweeps took {elapsed:.1f}s (< 180s)")


def test_criterion_3_fig1_sobolev(fig1_sweeps):
    sweeps, _ = fig1_sweeps
    slope = fit_slope(sweeps[(5,)], "s", (16, 256))
    ratio = sweeps[(0,)].ratio("s")
    ok = abs(slope + 0.25) <= 0.15 and ratio >= 0.5
    report(3, ok, f"fig1 S slope gamma 5 {slope:+.3f} (want -0.25 +- 0.15); "
                  f"gamma 0 S last/first {ratio:.3g} (want >= 0.5)")


def test_criterion_4_fig2_step_slopes(fig2_sweeps):
    checks = figure_criteria("fig2", fig2_sweeps)
    detail = "; ".join(c.line() for c in checks)
    report(4, all(c.passed for c in checks), detail)


def test_criterion_5_fig3_qualitative(fig3_sweeps):
    checks = figure_criteria("fig3", fig3_sweeps)
    detail = "; ".join(c.line() for c in checks)
    report(5, all(c.passed for c in checks), detail)


def test_criterion_6_roundtrips():
    start = time.perf_counter()
    results = roundtrip_suite(seed=42, trials=100)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 30.0
    report(6, ok, f"{len(results)} roundtrip checks over N in 1..3, 100 cases "
                  f"each, tol 1e-10; {elapsed:.1f}s (< 30s)")


def test_criterion_7_integration_identities():
    results = identity_suite(seed=42)
    wanted = [r for r in results
              if r.name.startswith(("fund-int", "fundamental-theorem"))]
    assert len(wanted) == 2
    ok = all(r.passed for r in wanted)
    report(7, ok, "; ".join(r.line() for r in wanted))


def test_criterion_8_optimality():
    results = optimality_suite(seed=42, trials=50)
    ok = all(r.passed for r in results)
    report(8, ok, "; ".join(r.line() for r in results))


def test_criterion_9_quadrature_oracle():
    u = get_example("example1-1d")
    value = integrate(lambda s: u.derivatives[(5,)](s) ** 2, u.domain, rule_for(u))
    ok = abs(value - 1.0) <= 1e-8
    report(9, ok, f"integral of (d^5 u)^2 = {value:.12f}, want 1 +- 1e-8 "
                  f"with the default graded rule")
