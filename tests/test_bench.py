import math

import numpy as np
import pytest

from sobrecon.analytic import get_example
from sobrecon.bench import (
    SweepResult,
    fit_slope,
    monotone_ratio_ok,
    run_sweep,
    sweep_point,
)


def synthetic_result(params, errors):
    n = len(params)
    return SweepResult("syn", "legendre", (0,), list(params), list(errors),
                       list(errors), list(errors), [0.0] * n)


class TestFitSlope:
    def test_exact_power_law(self):
        params = [2, 4, 8, 16, 32]
        errors = [3.0 * p**-5.0 for p in params]
        r = synthetic_result(params, errors)
        assert fit_slope(r, "l2") == pytest.approx(-5.0, abs=1e-8)

    def test_window_selection(self):
        params = [2, 4, 8, 16, 32, 64]
        errors = [1.0, 1.0, 8.0**2 / 64, 16.0**2 / 256, 1.0 / 8, 1.0 / 32]
        r = synthetic_result(params, [p**-2.0 for p in params])
        assert fit_slope(r, "l2", (8, 64)) == pytest.approx(-2.0, abs=1e-8)

    def test_rejects_small_window(self):
        r = synthetic_result([2, 4, 8], [1, 1, 1])
        with pytest.raises(ValueError, match="need >= 3"):
            fit_slope(r, "l2", (4, 8))

    def test_rejects_zero_errors(self):
        r = synthetic_result([2, 4, 8], [1.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="zero/invalid"):
            fit_slope(r, "l2")

    def test_unknown_norm(self):
        r = synthetic_result([2, 4, 8], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="unknown norm"):
            fit_slope(r, "energy")


class TestMonotone:
    def test_accepts_decay_with_small_upticks(self):
        r = synthetic_result([2, 4, 8, 16], [1.0, 0.3, 0.31, 0.05])
        assert monotone_ratio_ok(r)

    def test_rejects_growth(self):
        r = synthetic_result([2, 4, 8, 16], [1.0, 0.3, 0.9, 0.05])
        assert not monotone_ratio_ok(r)


class TestSweep:
    def test_polynomial_reproduction_gives_zero_error(self):
        u = get_example("poly-random", seed=11, ndim=1, delta=(2,), degree_margin=1)
        l2, s, w, dt = sweep_point(u, "legendre", (0,), 8)
        assert l2 <= 1e-12
        assert dt >= 0.0

    def test_step_sweep_l2_halves_per_doubling(self):
        u = get_example("example1-1d")
        r = run_sweep(u, "step", (0,), [8, 16, 32, 64])
        for a, b in zip(r.l2[:-1], r.l2[1:]):
            assert b == pytest.approx(a / 2, rel=0.05)

    def test_1d_w_norm_equals_s_norm(self):
        u = get_example("example1-1d")
        r = run_sweep(u, "step", (1,), [4, 8, 16])
        assert np.allclose(r.s, r.w, rtol=1e-13)

    def test_monotone_l2_trend(self):
        u = get_example("example1-1d")
        r = run_sweep(u, "legendre", (5,), [2, 4, 8, 16, 32])
        assert monotone_ratio_ok(r, "l2")

    def test_rejects_unsorted_params(self):
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match="increase strictly"):
            run_sweep(u, "step", (0,), [8, 4])

    def test_failures_recorded_and_sweep_continues(self):
        u = get_example("example1-1d")
        # gamma exceeding delta fails inside every point
        r = run_sweep(u, "step", (0,), [2, 4, 8])
        assert not r.failures
        bad = run_sweep(u, "bogus-method", (0,), [2, 4])
        assert len(bad.failures) == 2
        assert all(math.isnan(v) for v in bad.l2)


def test_csv_roundtrip(tmp_path):
    r = synthetic_result([2, 4, 8], [1.0, 0.25, 0.0625])
    path = tmp_path / "sweep.csv"
    r.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,l2_error,s_error,w_error,runtime_s"
    assert len(lines) == 4
    assert lines[1].startswith("2,1.0,")
