import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from sobrecon.analytic import AnalyticFunction
from sobrecon.core import HyperRect, multiindex_range
from sobrecon.legseries import LegendreSeries, legendre_values
from sobrecon.piecewise import PiecewisePoly
from sobrecon.projection import sobolev_project_legendre
from sobrecon.quadrature import QuadratureRule


def series_1d(coeffs):
    return LegendreSeries(np.asarray(coeffs, float))


def at(f, *axes):
    """Values of a series on the tensor grid of the given node arrays."""
    return f.eval_grid([np.atleast_1d(np.asarray(x, float)) for x in axes])


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
    u = AnalyticFunction(p.domain, (0,), {(0,): p})
    return p, sobolev_project_legendre(u, (0,), (degree,),
                                       QuadratureRule(nodes=degree + 1, panels=1))


def textbook_values(max_degree, x):
    """The orthonormal basis table straight from the three-term recurrence
    ((2k+1) x P_k - k P_{k-1}) / (k+1), one expression per row."""
    out = np.empty((max_degree + 1, x.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for k in range(1, max_degree):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out * np.sqrt(np.arange(max_degree + 1) + 0.5)[:, None]


def kernel_legendre(k):
    """Classical Legendre coefficients of (x+1)^k/k!, exactly: k factors
    (x+1)/j, with x P_l = ((l+1) P_{l+1} + l P_{l-1}) / (2l+1)."""
    a = [Fraction(1)]
    for j in range(1, k + 1):
        b = a + [Fraction(0)]  # the factor 1
        for l, c in enumerate(a):
            b[l + 1] += c * Fraction(l + 1, 2 * l + 1)
            if l:
                b[l - 1] += c * Fraction(l, 2 * l + 1)
        a = [x / j for x in b]
    return a


def kernel_lift_ulps(c, k):
    """Largest coefficient error of LegendreSeries([c]).antiderivative(0, k),
    in ulps (2^-52) of the largest exact coefficient.  The series is c phi_0
    = c/sqrt(2), so the exact result is c/sqrt(2) (x+1)^k/k!, whose
    orthonormal coefficient l is c a_l / (sqrt(2) sqrt(l + 1/2))."""
    got = LegendreSeries(np.array([c])).antiderivative(0, k).coeffs
    with localcontext() as ctx:
        ctx.prec = 50
        exact = [Decimal(c) * Decimal(a.numerator) / Decimal(a.denominator)
                 / (Decimal(2) * (Decimal(l) + Decimal("0.5"))).sqrt()
                 for l, a in enumerate(kernel_legendre(k))]
        err = max(abs(Decimal(float(g)) - e) for g, e in zip(got, exact))
        return float(err / max(abs(e) for e in exact) * 2**52)


class TestBasis:
    @pytest.mark.parametrize("degree", [0, 1, 2, 40, 256])
    def test_recurrence_is_bitwise_textbook(self, degree):
        rng = np.random.default_rng(degree)
        x = np.concatenate([rng.uniform(-1.0, 1.0, 500), [-1.0, 0.0, 1.0]])
        assert np.array_equal(legendre_values(degree, x), textbook_values(degree, x))
        empty = legendre_values(degree, np.array([]))
        assert empty.shape == (degree + 1, 0)
        assert np.array_equal(empty, textbook_values(degree, np.array([])))

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            legendre_values(-1, [0.5])

    def test_recurrence_matches_numpy(self):
        x = np.linspace(-1, 1, 31)
        vals = legendre_values(12, x)
        for k in range(13):
            ref = np.sqrt(k + 0.5) * np.polynomial.legendre.Legendre.basis(k)(x)
            assert np.allclose(vals[k], ref, rtol=1e-13, atol=1e-13)

    def test_endpoint_value(self):
        assert legendre_values(2, np.array([1.0]))[2, 0] == \
            pytest.approx(math.sqrt(2.5))

    def test_normalization_constant(self):
        assert legendre_values(0, [0.37])[0, 0] == pytest.approx(1 / math.sqrt(2))

    def test_high_degree_bounded(self):
        x = np.linspace(-1, 1, 400)
        vals = legendre_values(300, x) / np.sqrt(np.arange(301) + 0.5)[:, None]  # P_k
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)


class TestCalculusMaps:
    def test_antiderivative_vs_piecewise(self):
        fp, f = series_of_random_poly(np.random.default_rng(3), 5)
        F = f.antiderivative(0)
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(at(F, xs), fp.antiderivative(0)(xs), rtol=1e-12, atol=1e-12)
        assert np.allclose(standard(F.coeffs), npleg.legint(standard(f.coeffs), lbnd=-1),
                           rtol=1e-12, atol=1e-12)
        assert abs(at(F, -1.0)[0]) < 1e-14  # vanishes at the lower boundary

    def test_derivative_vs_piecewise(self):
        fp, f = series_of_random_poly(np.random.default_rng(4), 7)
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(at(f.derivative(0), xs), fp.derivative(0)(xs),
                           rtol=1e-11, atol=1e-11)
        assert np.allclose(standard(f.derivative(0).coeffs), npleg.legder(standard(f.coeffs)),
                           rtol=1e-11, atol=1e-11)

    def test_kernel_multiplication(self):
        # along an axis where the series is constant, two folds from -1 are
        # the product with the kernel (x+1)^2/2 (Cauchy's formula)
        rng = np.random.default_rng(5)
        f = LegendreSeries(rng.standard_normal((1, 5)))
        g = f.antiderivative(0, 2)
        xs, ys = np.linspace(-1, 1, 9), np.linspace(-1, 1, 7)
        assert np.allclose(at(g, xs, ys), (xs[:, None] + 1.0) ** 2 / 2.0 * at(f, xs, ys),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_kernel_lift_of_a_constant_against_exact_coefficients(self, k):
        # k folds of a constant are its kernel lift.  The worst error over
        # these 201 constants was 0.61, 1.11, 3.46, 8.14, 16.4 and 31.3 ulps
        # for k = 1..6, about 2x per fold from k = 3; the bound is twice that
        # envelope, 32 ulps at k = 5, doubling per fold.
        cs = np.concatenate([[0.7371], np.random.default_rng(0).uniform(-2.0, 2.0, 200)])
        worst = max(kernel_lift_ulps(float(c), k) for c in cs)
        assert worst <= 32.0 * 2.0 ** (k - 5), worst

    def test_antiderivative_fold_count_is_non_negative(self):
        f = series_1d([1.0, 2.0, 3.0])
        assert f.antiderivative(0, 0) is f  # zero folds are the identity
        with pytest.raises(ValueError, match="non-negative"):
            f.antiderivative(0, -1)

    def test_derivative_inverts_antiderivative(self):
        rng = np.random.default_rng(6)
        f = series_1d(rng.standard_normal(7))
        g = f.antiderivative(0).derivative(0)
        xs = np.linspace(-1, 1, 13)
        assert np.allclose(at(f, xs), at(g, xs), rtol=1e-12, atol=1e-12)

    def test_negative_derivative_order_rejected(self):
        f = series_1d([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-negative"):
            f.derivative(0, -1)


class TestTensor:
    def test_eval_grid_matches_pointwise(self):
        rng = np.random.default_rng(7)
        f = LegendreSeries(rng.standard_normal((4, 3)))
        xs = np.linspace(-1, 1, 6)
        ys = np.linspace(-1, 1, 5)
        grid = f.eval_grid([xs, ys])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                ref = npleg.legval2d(x, y, standard(f.coeffs))
                assert grid[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(8)
        f = LegendreSeries(rng.standard_normal((5, 4)))
        x, w = npleg.leggauss(5)  # exact for the degree-(8, 6) square
        quad = np.sum(np.outer(w, w) * npleg.leggrid2d(x, x, standard(f.coeffs)) ** 2)
        assert np.linalg.norm(f.coeffs) ** 2 == pytest.approx(quad, rel=1e-11)

    def test_constant_extension(self):
        g = series_1d([1.0, 0.5, -0.25])
        f = g.extend((1,), 2)  # varies along axis 1 only
        xs = np.array([-0.7, 0.1])
        ys = np.array([-0.3, 0.9, 0.4])
        grid = f.eval_grid([xs, ys])
        for i in range(len(xs)):
            assert np.allclose(grid[i], at(g, ys), rtol=1e-13)

    def test_constant_series(self):
        # the constant 3.5 is 3.5 * sqrt(2)^2 times phi_0 phi_0 = 1/2
        c = LegendreSeries(np.full((1, 1), 3.5 * 2.0))
        assert at(c, 0.2, -0.8)[0, 0] == pytest.approx(3.5)
        assert np.linalg.norm(c.coeffs) == pytest.approx(3.5 * 2.0)  # 3.5 * sqrt(area)

    def test_derivative_grids_equal_single_reads(self):
        """One basis table per axis serves every alpha, bit for bit: its
        leading rows are the table of the lower-degree derivative."""
        rng = np.random.default_rng(10)
        f = LegendreSeries(rng.standard_normal((7, 5)))
        axes = [np.linspace(-1, 1, 9), rng.uniform(-1, 1, 6)]
        indices = multiindex_range((7, 5))
        grids = list(f.derivative_grids(indices, axes))
        assert len(grids) == len(indices)
        for alpha, got in zip(indices, grids):
            assert np.array_equal(got, f.mixed_derivative(alpha).eval_grid(axes)), alpha

    @pytest.mark.parametrize("shape", [(4,), (7, 3), (4, 3, 5)])
    def test_derivative_grids_in_any_order_equal_single_reads(self, shape):
        """Each derivative's coefficients are built from the stored ones of
        the next-lower order; in any order, with repeats and with indices
        above the degree, every yielded grid has the bits of a one-index
        read.  Each yielded grid is overwritten before the next one is read,
        so a grid that shared memory with an earlier one would fail."""
        rng = np.random.default_rng(14)
        f = LegendreSeries(rng.standard_normal(shape))
        axes = [rng.uniform(-1, 1, n) for n in (8, 6, 5)[:len(shape)]]
        lattice = multiindex_range(tuple(min(n, 4) for n in shape))
        indices = lattice[::-1] + lattice + lattice[2::5]
        grids = f.derivative_grids(indices, axes)
        for alpha in indices:
            got = next(grids)
            want = f.derivative_grid(alpha, axes)
            assert got.shape == want.shape, alpha
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), alpha
            got[...] = np.nan
        assert next(grids, None) is None

    def test_mixed_derivative_grid(self):
        rng = np.random.default_rng(9)
        f = LegendreSeries(rng.standard_normal((5, 5)))
        xs = np.linspace(-1, 1, 7)
        got = f.derivative_grid((2, 1), [xs, xs])
        c = npleg.legder(npleg.legder(standard(f.coeffs), 2, axis=0), 1, axis=1)
        assert np.allclose(got, npleg.leggrid2d(xs, xs, c), rtol=1e-10, atol=1e-10)


def test_evaluation_refuses_bad_points():
    f = series_1d([1.0, 2.0])
    with pytest.raises(ValueError, match="expected 1 axis arrays"):
        at(f, 0.1, 0.5)
    for bad in (3.0, [0.0, -1.5], 5.0):
        with pytest.raises(ValueError, match="outside domain on axis 0"):
            at(f, bad)
    # within 1e-12 of the width outside, points are evaluated, not clipped
    x = 1.0 + 1e-12
    assert at(f, x)[0] == legendre_values(1, [x])[:, 0] @ f.coeffs
    assert at(f, -1.0)[0] == pytest.approx(math.sqrt(0.5) - 2.0 * math.sqrt(1.5))


@pytest.mark.parametrize("shape, axis", [((0,), 0), ((3, 0), 1), ((0, 2, 2), 0)])
def test_empty_coefficient_axis_refused(shape, axis):
    # a zero-length axis has no degree, so no value could be read from it
    with pytest.raises(ValueError, match=f"coefficient axis {axis} has length zero"):
        LegendreSeries(np.zeros(shape))


def test_zero_dimensional_series_is_a_value():
    # vertex traces project to 0-d series, which extend to constants
    f = LegendreSeries(np.array(2.5)).extend((), 2)
    assert at(f, [0.3, -0.7], [0.1, 0.9]) == pytest.approx(np.full((2, 2), 2.5), rel=1e-14)


def test_addition_refuses_mismatched_dimensions():
    line, square = LegendreSeries(np.ones(3)), LegendreSeries(np.ones((2, 2)))
    for lhs, rhs in ((line, square), (square, line)):
        with pytest.raises(ValueError, match="operands live on different domains"):
            lhs + rhs
    with pytest.raises(ValueError, match="expected 2 degrees, got 1"):
        square.pad_to((3,))
