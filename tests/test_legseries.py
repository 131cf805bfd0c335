import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from sobrecon.core import HyperRect
from sobrecon.legseries import LegendreSeries, legendre_values
from sobrecon.piecewise import PiecewisePoly
from sobrecon.projection import project_legendre
from sobrecon.quadrature import QuadratureRule


def series_1d(coeffs):
    return LegendreSeries(np.asarray(coeffs, float))


def standard(coeffs):
    """Coefficients in numpy's (unnormalized) Legendre basis: each axis
    scaled by sqrt(k + 1/2)."""
    out = np.asarray(coeffs, float)
    for axis, n in enumerate(out.shape):
        shape = [1] * out.ndim
        shape[axis] = n
        out = out * np.sqrt(np.arange(n) + 0.5).reshape(shape)
    return out


def series_of_random_poly(rng, degree):
    """A random one-cell PiecewisePoly on [-1, 1] and its Legendre series,
    which a Gauss rule with degree + 1 nodes gives exactly."""
    p = PiecewisePoly(HyperRect.cube(1), (np.array([]),), rng.standard_normal((1, degree + 1)))
    return p, project_legendre(p, (degree,), QuadratureRule(nodes=degree + 1, panels=1))


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
        assert legendre_values(0, [0.37])[0, 0] == pytest.approx(1 / math.sqrt(2))

    def test_high_degree_bounded(self):
        x = np.linspace(-1, 1, 400)
        vals = legendre_values(300, x, normalized=False)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)


class TestCalculusMaps:
    def test_antiderivative_vs_piecewise(self):
        fp, f = series_of_random_poly(np.random.default_rng(3), 5)
        F = f.antiderivative(0)
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(F(xs), fp.antiderivative(0)(xs), rtol=1e-12, atol=1e-12)
        assert np.allclose(standard(F.coeffs), npleg.legint(standard(f.coeffs), lbnd=-1),
                           rtol=1e-12, atol=1e-12)
        assert abs(F(-1.0)) < 1e-14  # vanishes at the lower boundary

    def test_derivative_vs_piecewise(self):
        fp, f = series_of_random_poly(np.random.default_rng(4), 7)
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(f.derivative(0)(xs), fp.derivative(0)(xs), rtol=1e-11, atol=1e-11)
        assert np.allclose(standard(f.derivative(0).coeffs), npleg.legder(standard(f.coeffs)),
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
        x, w = npleg.leggauss(5)  # exact for the degree-(8, 6) square
        quad = np.sum(np.outer(w, w) * npleg.leggrid2d(x, x, standard(f.coeffs)) ** 2)
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
        xs = np.linspace(-1, 1, 7)
        got = f.derivative_grid((2, 1), [xs, xs])
        c = npleg.legder(npleg.legder(standard(f.coeffs), 2, axis=0), 1, axis=1)
        assert np.allclose(got, npleg.leggrid2d(xs, xs, c), rtol=1e-10, atol=1e-10)


def test_evaluation_refuses_bad_points():
    f = series_1d([1.0, 2.0])
    with pytest.raises(TypeError, match="expected 1 coordinates, got 2"):
        f(0.1, 0.5)
    for bad in (lambda: f(3.0), lambda: f(np.array([0.0, -1.5])),
                lambda: f.eval_grid([np.array([5.0])])):
        with pytest.raises(ValueError, match="outside domain on axis 0"):
            bad()
    # within 1e-12 of the width outside, points are evaluated, not clipped
    x = 1.0 + 1e-12
    assert f(x) == legendre_values(1, [x])[:, 0] @ f.coeffs
    assert f(-1.0) == pytest.approx(math.sqrt(0.5) - 2.0 * math.sqrt(1.5))
