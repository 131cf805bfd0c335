import math

import numpy as np
import pytest

from sobrecon.core import HyperRect
from sobrecon.piecewise import PiecewisePoly, coeff_distance, sum_terms
from sobrecon.projection import project_legendre
from sobrecon.quadrature import QuadratureRule


def two_cell_step(lo=-1.0, hi=1.0, split=0.0, left=-1.0, right=1.0):
    dom = HyperRect((lo,), (hi,))
    return PiecewisePoly.from_cell_values(dom, (np.array([split]),), np.array([left, right]))


def random_poly(rng, ndim=2, degree=(3, 2), n_breaks=(1, 2), domain=None):
    domain = domain or HyperRect.cube(ndim)
    breaks = []
    for i in range(ndim):
        pts = np.sort(rng.uniform(domain.lo[i] + 0.1, domain.hi[i] - 0.1, size=n_breaks[i]))
        breaks.append(pts)
    cells = tuple(n + 1 for n in n_breaks)
    coeffs = rng.standard_normal(cells + tuple(d + 1 for d in degree))
    return PiecewisePoly(domain, tuple(breaks), coeffs)


def cell_gauss(edges, n):
    """Nodes and weights of numpy's n-point Gauss-Legendre rule on every
    cell between consecutive edges."""
    t, w = np.polynomial.legendre.leggauss(n)
    a, b = np.asarray(edges)[:-1, None], np.asarray(edges)[1:, None]
    return ((a + b) / 2 + (b - a) / 2 * t).ravel(), ((b - a) / 2 * w).ravel()


def gauss_grid(fs, nodes):
    """Per-axis Gauss nodes and weights on the common refinement of the
    break grids of the polynomials `fs`."""
    return zip(*(cell_gauss(np.unique(np.concatenate([f.edges(i) for f in fs])), nodes)
                 for i in range(fs[0].ndim)))


class TestEval:
    def test_kernel_values(self):
        dom = HyperRect((0.0,), (1.0,))
        p2 = PiecewisePoly.kernel(dom, 0, 2)
        assert p2(1.0) == pytest.approx(0.5, abs=0)

    def test_kernel_p3_off_unit(self):
        dom = HyperRect((0.0,), (2.0,))
        p3 = PiecewisePoly.kernel(dom, 0, 3)
        assert p3(2.0) == pytest.approx(8 / 6)

    def test_step_half_open_convention(self):
        f = two_cell_step()
        assert f(0.0) == 1.0
        assert f(-1e-9) == -1.0
        assert f(1.0) == 1.0  # last cell closed
        assert f(-1.0) == -1.0

    def test_eval_outside_rejected(self):
        f = two_cell_step()
        with pytest.raises(ValueError):
            f(1.5)

    def test_eval_grid_matches_pointwise(self):
        rng = np.random.default_rng(0)
        f = random_poly(rng)
        xs = np.linspace(-1, 1, 13)
        ys = np.linspace(-1, 1, 7)
        grid = f.eval_grid([xs, ys])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == pytest.approx(f(x, y), rel=1e-13, abs=1e-13)


class TestCalculus:
    def test_derivative_shifts_kernels(self):
        dom = HyperRect((0.0,), (1.0,))
        p3 = PiecewisePoly.kernel(dom, 0, 3)
        p2 = PiecewisePoly.kernel(dom, 0, 2)
        assert p3.derivative(0).allclose(p2, 1e-15)

    def test_derivative_of_step_is_zero(self):
        f = two_cell_step()
        df = f.derivative(0)
        assert np.all(df.coeffs == 0.0)

    def test_mixed_derivative_value(self):
        # f(x, y) = x^2 y on [0,1]^2; df/dx at (0.3, 0.7) = 2*0.3*0.7
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        f = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).multiply_kernel(1, 1)
        assert f.derivative(0)(0.3, 0.7) == pytest.approx(0.42, rel=1e-14)

    def test_antiderivative_of_one(self):
        dom = HyperRect((0.0,), (1.0,))
        one = PiecewisePoly.constant(dom, 1.0)
        s = one.antiderivative(0)
        assert s.allclose(PiecewisePoly.kernel(dom, 0, 1), 1e-15)

    def test_antiderivative_twice_of_constant(self):
        dom = HyperRect((0.0,), (1.0,))
        f = PiecewisePoly.constant(dom, 2.0).antiderivative(0).antiderivative(0)
        for x in (0.25, 0.5, 1.0):
            assert f(x) == pytest.approx(x**2, rel=1e-14)

    def test_antiderivative_of_step_is_continuous(self):
        F = two_cell_step().antiderivative(0)
        for x in (-1.0, -0.5, -1e-12):
            assert F(x) == pytest.approx(-(x + 1), rel=1e-12, abs=1e-12)
        for x in (1e-12, 0.5, 1.0):
            assert F(x) == pytest.approx(x - 1, rel=1e-12, abs=1e-12)
        assert F(0.0) == pytest.approx(-1.0)

    def test_derivative_inverts_antiderivative(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            f = random_poly(rng)
            for axis in range(2):
                g = f.antiderivative(axis).derivative(axis)
                assert coeff_distance(f, g) <= 1e-12


class TestIntegrals:
    def test_integral_x_squared(self):
        dom = HyperRect((-1.0,), (1.0,))
        # x^2 about anchor -1: (z - 1)^2 = z^2 - 2z + 1 with z = x + 1
        f = PiecewisePoly(dom, (np.array([]),), np.array([[1.0, -2.0, 2.0]]))
        assert f(0.5) == pytest.approx(0.25)
        assert f.integral() == pytest.approx(2 / 3, rel=1e-15)

    def test_step_squared_integral(self):
        f = two_cell_step()
        x, w = cell_gauss(f.edges(0), 1)
        assert np.sum(w * f(x) ** 2) == pytest.approx(2.0, rel=1e-15)
        assert f.inner(f) == pytest.approx(2.0, rel=1e-15)

    def test_inner_positive_definite(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            f = random_poly(rng, ndim=1, degree=(4,), n_breaks=(2,))
            assert f.inner(f) >= 0.0
        zero = PiecewisePoly.constant(HyperRect.cube(1), 0.0)
        assert zero.inner(zero) == 0.0

    def test_inner_matches_parseval_across_seeds(self):
        # a Gauss rule with degree + 1 nodes gives the Legendre coefficients
        # of a polynomial exactly (up to rounding)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            p = random_poly(rng, degree=(4, 3), n_breaks=(0, 0))
            f = project_legendre(p, p.degree, QuadratureRule(nodes=5, panels=1))
            assert p.inner(p) == pytest.approx(f.l2_norm() ** 2, rel=1e-11), seed

    def test_inner_on_common_refinement_matches_product_integral(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            f = random_poly(rng, degree=tuple(rng.integers(0, 3, 2)), n_breaks=(2, 1))
            g = random_poly(rng, degree=tuple(rng.integers(0, 3, 2)), n_breaks=(1, 3))
            (x, y), (wx, wy) = gauss_grid([f, g], nodes=3)
            X, Y = np.meshgrid(x, y, indexing="ij")
            expected = np.sum(np.outer(wx, wy) * f(X, Y) * g(X, Y))
            scale = np.sqrt(f.inner(f) * g.inner(g))
            assert abs(f.inner(g) - expected) <= 1e-12 * scale, trial

    def test_inner_over_face_axes(self):
        rng = np.random.default_rng(4)
        f = random_poly(rng, degree=(3, 0), n_breaks=(2, 0))
        g = random_poly(rng, degree=(2, 0), n_breaks=(1, 0))
        (x, _), (w, _) = gauss_grid([f, g], nodes=3)
        expected = np.sum(w * f(x, -1.0) * g(x, -1.0))
        assert f.inner(g, axes=(0,)) == pytest.approx(expected, rel=1e-13)
        with pytest.raises(ValueError, match="axis 0 must be constant"):
            f.inner(g, axes=(1,))

    def test_subset_integral_requires_constant_axes(self):
        dom = HyperRect.cube(2)
        f = PiecewisePoly.kernel(dom, 0, 1)
        # constant along axis 1, so integrating axis 0 alone is fine
        assert f.integral(axes=(0,)) == pytest.approx(2.0)  # int of (x+1) on [-1,1]
        with pytest.raises(ValueError):
            f.multiply_kernel(1, 1).integral(axes=(0,))


class TestAlgebra:
    def test_add_on_common_refinement(self):
        rng = np.random.default_rng(5)
        f = random_poly(rng, degree=(2, 2), n_breaks=(1, 0))
        g = random_poly(rng, degree=(1, 3), n_breaks=(0, 2))
        h = f + g
        pts = rng.uniform(-1, 1, size=(50, 2))
        for x, y in pts:
            assert h(x, y) == pytest.approx(f(x, y) + g(x, y), rel=1e-12, abs=1e-12)

    def test_scalar_scaling(self):
        f = two_cell_step()
        assert (2.5 * f)(0.5) == pytest.approx(2.5)
        with pytest.raises(TypeError):
            f * f  # only scalars and kernels (multiply_kernel) multiply

    def test_sum_terms_matches_pairwise_sum(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            terms = [random_poly(rng, degree=tuple(rng.integers(0, 4, 2)),
                                 n_breaks=tuple(rng.integers(0, 3, 2))) for _ in range(5)]
            pairwise = terms[0]
            for t in terms[1:]:
                pairwise = pairwise + t
            assert coeff_distance(sum_terms(iter(terms)), pairwise) <= 1e-14, trial

    def test_sum_terms_rejects_empty_and_mixed_domains(self):
        with pytest.raises(ValueError, match="no terms"):
            sum_terms([])
        f = two_cell_step()
        g = two_cell_step(lo=-2.0)
        with pytest.raises(ValueError, match="different domains"):
            sum_terms([f, g])

    def test_restrict_rejects_faces_other_than_lower(self):
        f = random_poly(np.random.default_rng(2))
        for face in [(1, 0), (0, -2)]:
            with pytest.raises(ValueError, match="0 or -1"):
                f.restrict(face)

    def test_restrict_pins_lower_corner(self):
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        f = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).multiply_kernel(1, 1)
        r = f.restrict((-1, 0))  # pin x = 0: result is identically 0
        assert np.all(r.coeffs == 0.0)
        r2 = f.restrict((0, -1))
        assert np.all(r2.coeffs == 0.0)

    def test_boundary_trace_of_abs(self):
        u = PiecewisePoly(
            HyperRect.cube(1),
            (np.array([0.0]),),
            np.array([[1.0, -1.0], [0.0, 1.0]]),  # |x|: 1 - z on [-1,0), z on [0,1]
        )
        assert u(-0.5) == pytest.approx(0.5)
        t0 = u.boundary_trace((0,), (1,))
        assert t0.is_scalar and t0.values == pytest.approx(1.0)
        t1 = u.boundary_trace((1,), (1,))
        assert t1(np.array([-0.5]))[0] == pytest.approx(-1.0)
        assert t1(np.array([0.5]))[0] == pytest.approx(1.0)


class TestKernelMultiply:
    @pytest.mark.parametrize("n_breaks", [(3,), (2, 0), (0, 3), (2, 0, 1)])
    def test_matches_general_product(self, n_breaks):
        # every axis is tried as the kernel axis, so breaks lie on it and off
        # it; the reference is the pointwise product z^k/k! * f at Gauss nodes
        nd = len(n_breaks)
        rng = np.random.default_rng(10 * nd + sum(n_breaks))
        for trial in range(3):
            lo = rng.uniform(-2.0, 0.0, nd)
            domain = HyperRect(tuple(lo), tuple(lo + rng.uniform(0.5, 3.0, nd)))
            f = random_poly(rng, nd, tuple(rng.integers(0, 4, nd)), n_breaks, domain)
            axes, _ = gauss_grid([f], nodes=4)
            grids = np.meshgrid(*axes, indexing="ij")
            for axis in range(nd):
                for k in range(5):
                    got = f.multiply_kernel(axis, k)
                    degree = tuple(d + (k if i == axis else 0) for i, d in enumerate(f.degree))
                    assert got.degree == degree and got.cell_counts == f.cell_counts
                    assert all(np.array_equal(a, b) for a, b in zip(got.breaks, f.breaks))
                    z = grids[axis] - lo[axis]
                    ref = z**k / math.factorial(k) * f(*grids)
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(got(*grids) - ref)) <= 1e-13 * scale, (axis, k)


class TestValidation:
    def test_public_constructor_rejects_malformed_input(self):
        dom = HyperRect.cube(2)
        good = (np.array([0.0]), np.array([]))
        coeffs = np.zeros((2, 1, 3, 2))
        PiecewisePoly(dom, good, coeffs)
        bad = [
            ((np.array([0.5, 0.0]), np.array([])), np.zeros((3, 1, 3, 2))),  # decreasing
            ((np.array([1.0]), np.array([])), coeffs),  # break on the boundary
            ((np.array([0.0]),), coeffs),  # one break array for two axes
            (good, np.zeros((2, 1, 3))),  # wrong number of coefficient dims
            (good, np.zeros((3, 1, 3, 2))),  # cell rows do not match breaks
        ]
        for breaks, c in bad:
            with pytest.raises(ValueError):
                PiecewisePoly(dom, breaks, c)
