import math

import numpy as np
import pytest

from sobrecon.core import HyperRect
from sobrecon.legseries import LegendreSeries, legendre_eval, legendre_values
from sobrecon.piecewise import PiecewisePoly


def series_1d(coeffs):
    return LegendreSeries(np.asarray(coeffs, float))


class TestBasis:
    def test_recurrence_matches_numpy(self):
        x = np.linspace(-1, 1, 31)
        vals = legendre_values(12, x, normalized=False)
        for k in range(13):
            ref = np.polynomial.legendre.Legendre.basis(k)(x)
            assert np.allclose(vals[k], ref, rtol=1e-13, atol=1e-13)

    def test_endpoint_value(self):
        assert legendre_values(2, np.array([1.0]), normalized=False)[2, 0] == \
            pytest.approx(1.0)

    def test_normalization_constant(self):
        assert legendre_eval((0,), (0.37,)) == pytest.approx(1 / math.sqrt(2))

    def test_high_degree_bounded(self):
        x = np.linspace(-1, 1, 400)
        vals = legendre_values(300, x, normalized=False)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)


class TestCalculusMaps:
    def test_antiderivative_vs_piecewise(self):
        rng = np.random.default_rng(3)
        f = series_1d(rng.standard_normal(6))
        F = f.antiderivative(0)
        fp = f.to_piecewise()
        Fp = fp.antiderivative(0)
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(F(xs), Fp(xs), rtol=1e-12, atol=1e-12)
        assert abs(F(-1.0)) < 1e-14  # vanishes at the lower boundary

    def test_derivative_vs_piecewise(self):
        rng = np.random.default_rng(4)
        f = series_1d(rng.standard_normal(8))
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(f.derivative(0)(xs), f.to_piecewise().derivative(0)(xs),
                           rtol=1e-11, atol=1e-11)

    def test_kernel_multiplication(self):
        rng = np.random.default_rng(5)
        f = series_1d(rng.standard_normal(5))
        g = f.multiply_kernel(0, 2)  # (x+1)^2/2 * f
        xs = np.linspace(-1, 1, 9)
        assert np.allclose(g(xs), (xs + 1.0) ** 2 / 2.0 * f(xs), rtol=1e-12, atol=1e-12)

    def test_derivative_inverts_antiderivative(self):
        rng = np.random.default_rng(6)
        f = series_1d(rng.standard_normal(7))
        g = f.antiderivative(0).derivative(0)
        xs = np.linspace(-1, 1, 13)
        assert np.allclose(f(xs), g(xs), rtol=1e-12, atol=1e-12)


class TestTensor:
    def test_eval_grid_matches_pointwise(self):
        rng = np.random.default_rng(7)
        f = LegendreSeries(rng.standard_normal((4, 3)))
        xs = np.linspace(-1, 1, 6)
        ys = np.linspace(-1, 1, 5)
        grid = f.eval_grid([xs, ys])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == pytest.approx(f(x, y), rel=1e-12, abs=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(8)
        f = LegendreSeries(rng.standard_normal((5, 4)))
        quad = f.to_piecewise().inner(f.to_piecewise())
        assert f.l2_norm() ** 2 == pytest.approx(quad, rel=1e-11)

    def test_constant_extension(self):
        g = series_1d([1.0, 0.5, -0.25])
        f = g.extend((1,), 2)  # varies along axis 1 only
        xs = np.array([-0.7, 0.1])
        ys = np.array([-0.3, 0.9, 0.4])
        grid = f.eval_grid([xs, ys])
        for i in range(len(xs)):
            assert np.allclose(grid[i], g(ys), rtol=1e-13)

    def test_constant_series(self):
        c = LegendreSeries.constant(3.5, 2)
        assert c(0.2, -0.8) == pytest.approx(3.5)
        assert c.l2_norm() == pytest.approx(3.5 * 2.0)  # 3.5 * sqrt(area of [-1,1]^2)

    def test_mixed_derivative_grid(self):
        rng = np.random.default_rng(9)
        f = LegendreSeries(rng.standard_normal((5, 5)))
        fp = f.to_piecewise()
        xs = np.linspace(-1, 1, 7)
        got = f.derivative_grid((2, 1), [xs, xs])
        ref = fp.derivative_grid((2, 1), [xs, xs])
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-10)


def test_to_piecewise_roundtrip_values():
    rng = np.random.default_rng(10)
    f = LegendreSeries(rng.standard_normal((9,)))
    fp = f.to_piecewise()
    xs = np.linspace(-1, 1, 33)
    # monomial conversion at degree 8 carries ~1e6 cancellation, hence atol
    assert np.allclose(f(xs), fp(xs), rtol=1e-12, atol=1e-9)
    assert fp.domain == HyperRect.cube(1)
    assert isinstance(fp, PiecewisePoly)


def test_to_piecewise_refuses_degree_above_12():
    rng = np.random.default_rng(12)
    for shape in [(14,), (14, 5), (2, 14)]:
        with pytest.raises(ValueError, match="above 12"):
            LegendreSeries(rng.standard_normal(shape)).to_piecewise()


def test_to_piecewise_converts_degree_12():
    f = LegendreSeries(np.random.default_rng(0).standard_normal(13))
    xs = np.linspace(-1, 1, 41)
    err = np.max(np.abs(f.to_piecewise()(xs) - f(xs))) / np.max(np.abs(f(xs)))
    assert err <= 1e-7  # 2.1e-8 measured, as the docstring states
