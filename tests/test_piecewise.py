import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sobrecon.analytic import AnalyticFunction
from sobrecon.core import HyperRect, multiindex_range
from sobrecon.expansion import PolyTraceBundle, apply_tensor, reconstruct
from sobrecon.legseries import LegendreSeries
from sobrecon.piecewise import PiecewisePoly, coeff_distance
from sobrecon.projection import sobolev_project_legendre
from sobrecon.quadrature import QuadratureRule
from sobrecon.verify import random_trace_bundle


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


class TestConstruction:
    @pytest.mark.parametrize("breaks", [[np.nan], [-0.5, np.nan], [np.nan, 0.5]])
    def test_refuses_nan_breaks(self, breaks):
        # a NaN fails every comparison, so the check must hold for valid breaks
        # rather than look for invalid ones
        with pytest.raises(ValueError, match="increase strictly inside the domain"):
            PiecewisePoly(HyperRect.cube(1), (np.array(breaks),), np.ones((len(breaks) + 1, 2)))


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

    @pytest.mark.parametrize("degree,n_breaks", [((4,), (3,)), ((3, 2), (2, 1)),
                                                 ((2, 1, 2), (1, 2, 1))])
    def test_derivative_grid_matches_pointwise(self, degree, n_breaks):
        """Every D^alpha read on a grid whose nodes include every break and
        both domain ends equals the pointwise value of mixed_derivative, and
        at each cell's lower corner the stored coefficient of that cell."""
        rng = np.random.default_rng(11)
        nd = len(degree)
        f = random_poly(rng, nd, degree, n_breaks)
        axes = [np.sort(np.concatenate([f.edges(i), rng.uniform(-1, 1, 4)]))
                for i in range(nd)]
        corners = [np.searchsorted(axes[i], f.edges(i)[:-1]) for i in range(nd)]
        mesh = np.meshgrid(*axes, indexing="ij")
        for alpha in multiindex_range(tuple(d + 1 for d in degree)):
            got = f.derivative_grid(alpha, axes)
            want = f.mixed_derivative(alpha)(*mesh)
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, alpha
            at_corners = got[np.ix_(*corners)]
            if any(a > d for a, d in zip(alpha, degree)):
                assert np.all(at_corners == 0.0)
            else:
                stored = f.coeffs[(Ellipsis,) + alpha]
                assert np.max(np.abs(at_corners - stored)) <= 1e-13 * scale, alpha

    @pytest.mark.parametrize("degree,n_breaks", [((4,), (3,)), ((3, 2), (2, 1)),
                                                 ((2, 1, 2), (1, 2, 1))])
    def test_derivative_grids_equal_single_reads(self, degree, n_breaks):
        """A many-index read shares each partial contraction among the
        indices with the same prefix; every grid it yields has the bits of
        a one-index read, in any order, with repeats and with indices above
        the degree.  Each yielded grid is overwritten before the next one is
        read, so a grid that shared memory with an earlier one would fail."""
        rng = np.random.default_rng(13)
        nd = len(degree)
        f = random_poly(rng, nd, degree, n_breaks)
        axes = [rng.uniform(-1, 1, n) for n in (9, 6, 5)[:nd]]
        lattice = multiindex_range(tuple(d + 1 for d in degree))
        indices = lattice + lattice[::-1] + lattice[1::3]
        grids = f.derivative_grids(indices, axes)
        for alpha in indices:
            got = next(grids)
            want = f.derivative_grid(alpha, axes)
            assert got.shape == want.shape, alpha
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), alpha
            got[...] = np.nan
        assert next(grids, None) is None

    def test_eval_grid_forms_no_one_hot_block(self):
        """256 cells of degree 5 on 5344 nodes: a dense (nodes, cells,
        degree+1) block would take 66 MB."""
        rng = np.random.default_rng(12)
        f = random_poly(rng, 1, (5,), (255,), HyperRect((0.0,), (1.0,)))
        xs = np.linspace(0.0, 1.0, 5344)
        tracemalloc.start()
        try:
            f.eval_grid([xs])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCalculus:
    def test_derivative_shifts_kernels(self):
        dom = HyperRect((0.0,), (1.0,))
        p3 = PiecewisePoly.kernel(dom, 0, 3)
        p2 = PiecewisePoly.kernel(dom, 0, 2)
        assert coeff_distance(p3.derivative(0), p2) <= 1e-15

    def test_negative_derivative_order_rejected(self):
        f = random_poly(np.random.default_rng(13))
        for order in (-1, -2):
            with pytest.raises(ValueError, match="non-negative"):
                f.derivative(0, order)

    def test_derivative_of_step_is_zero(self):
        f = two_cell_step()
        df = f.derivative(0)
        assert np.all(df.coeffs == 0.0)

    def test_mixed_derivative_value(self):
        # f(x, y) = x^2 y on [0,1]^2; df/dx at (0.3, 0.7) = 2*0.3*0.7
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        f = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).antiderivative(1)
        assert f.derivative(0)(0.3, 0.7) == pytest.approx(0.42, rel=1e-14)

    def test_antiderivative_of_one(self):
        dom = HyperRect((0.0,), (1.0,))
        one = PiecewisePoly.constant(dom, 1.0)
        s = one.antiderivative(0)
        assert coeff_distance(s, PiecewisePoly.kernel(dom, 0, 1)) <= 1e-15

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

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("times", [1, 2, 3, 4])
    def test_multi_fold_antiderivative_equals_single_folds_bitwise(self, ndim, times):
        rng = np.random.default_rng(10 * ndim + times)
        f = random_poly(rng, ndim, degree=tuple(int(d) for d in rng.integers(0, 4, ndim)),
                        n_breaks=tuple(int(n) for n in rng.integers(1, 3, ndim)))
        for axis in range(ndim):
            folds = f
            for _ in range(times):
                folds = folds.antiderivative(axis)
            once = f.antiderivative(axis, times)
            assert np.array_equal(once.coeffs, folds.coeffs)
            assert once.coeffs.flags.c_contiguous
            assert once.degree == folds.degree and once.cell_counts == folds.cell_counts

    def test_antiderivative_fold_count_is_non_negative(self):
        f = two_cell_step()
        assert f.antiderivative(0, 0) is f  # zero folds are the identity
        for times in (-1, -2):
            with pytest.raises(ValueError, match="non-negative"):
                f.antiderivative(0, times)

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
        assert PolyTraceBundle((0,), {(0,): f}).norm() ** 2 == pytest.approx(2.0, rel=1e-15)

    def test_inner_positive_definite(self):
        # the squared norm of an order-zero bundle is the entry's own L2 inner product
        rng = np.random.default_rng(3)
        for trial in range(5):
            f = random_poly(rng, ndim=1, degree=(4,), n_breaks=(2,))
            assert PolyTraceBundle((0,), {(0,): f}).norm() ** 2 >= 0.0
        zero = PiecewisePoly.constant(HyperRect.cube(1), 0.0)
        assert PolyTraceBundle((0,), {(0,): zero}).norm() == 0.0

    def test_inner_matches_parseval_across_seeds(self):
        # a Gauss rule with degree + 1 nodes gives the Legendre coefficients
        # of a polynomial exactly (up to rounding)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            p = random_poly(rng, degree=(4, 3), n_breaks=(0, 0))
            u = AnalyticFunction(p.domain, (0, 0), {(0, 0): p})
            f = sobolev_project_legendre(u, (0, 0), p.degree, QuadratureRule(nodes=5, panels=1))
            norm = PolyTraceBundle((0, 0), {(0, 0): p}).norm()
            assert norm**2 == pytest.approx(np.linalg.norm(f.coeffs) ** 2, rel=1e-11), seed

    def test_inner_over_face_axes(self):
        # the order-(0, 1) bundle: entry (0, 0) lives on the face y = -1 and
        # is integrated over x alone, entry (0, 1) over the whole square
        rng = np.random.default_rng(4)
        f = random_poly(rng, degree=(3, 0), n_breaks=(2, 0))
        g = random_poly(rng, degree=(2, 1), n_breaks=(1, 3))
        (x, _), (w, _) = gauss_grid([f], nodes=4)
        (gx, gy), (gwx, gwy) = gauss_grid([g], nodes=3)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        expected = np.sum(w * f(x, -1.0) ** 2) + np.sum(np.outer(gwx, gwy) * g(X, Y) ** 2)
        norm = PolyTraceBundle((0, 1), {(0, 0): f, (0, 1): g}).norm()
        assert norm**2 == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("lo, hi, breaks, powers, axes", [
        ((-1.0,), (3.0,), ([-0.5, 0.25, 2.0],), (5,), None),
        ((-1.5, 0.25), (2.5, 1.75), ([0.0, 1.125], [0.5]), (3, 2), None),
        ((-1.0, 0.0, -2.0), (1.0, 2.0, 0.5), ([-0.25], [0.5, 1.0, 1.5], [-1.0]),
         (1, 4, 2), None),
        ((-1.0, 0.0, -2.0), (1.0, 2.0, 0.5), ([-0.5], [], [-1.0, 0.0]), (2, 0, 3), (0, 2)),
        ((-1.5, 0.25), (2.5, 1.75), ([], [0.5, 0.75]), (0, 4), (1,)),
    ])
    def test_integral_of_kernel_products_is_exact(self, lo, hi, breaks, powers, axes):
        # prod_i z_i^a_i / a_i! with z_i = s_i - lo_i, on a dyadic box with
        # breaks: its integral over axis i is (hi_i - lo_i)^(a_i+1) / (a_i+1)!,
        # and an axis left out of the integral has a_i = 0 and one cell.  The
        # product is built on one cell, each kernel as the a_i-fold
        # antiderivative along an axis where the partial product is still
        # constant, then put on the breaks.
        dom = HyperRect(lo, hi)
        f = PiecewisePoly.constant(dom, 1.0)
        for i, a in enumerate(powers):
            f = f.antiderivative(i, a)
        f = f.on_breaks(tuple(np.array(b) for b in breaks))
        assert f.cell_counts == tuple(len(b) + 1 for b in breaks)
        kept = range(dom.ndim) if axes is None else axes
        exact = math.prod(Fraction(hi[i] - lo[i]) ** (powers[i] + 1)
                          / math.factorial(powers[i] + 1) for i in kept)
        assert f.integral(axes) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_subset_integral_requires_constant_axes(self):
        dom = HyperRect.cube(2)
        f = PiecewisePoly.kernel(dom, 0, 1)
        # constant along axis 1, so integrating axis 0 alone is fine
        assert f.integral(axes=(0,)) == pytest.approx(2.0)  # int of (x+1) on [-1,1]
        with pytest.raises(ValueError):
            f.antiderivative(1).integral(axes=(0,))


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
            f * f  # only scalars multiply

    def test_reconstruct_matches_pairwise_sum(self):
        # the summed lifts of a bundle whose entries have different break grids
        rng = np.random.default_rng(8)
        for trial in range(5):
            delta = tuple(int(d) for d in rng.integers(0, 4, 2))
            b = random_trace_bundle(rng, delta, HyperRect.cube(2),
                                    degree=int(rng.integers(0, 4)), breaks_per_axis=2)
            terms = [apply_tensor(a, delta, b.entries[a]) for a in multiindex_range(delta)]
            pairwise = terms[0]
            for t in terms[1:]:
                pairwise = pairwise + t
            assert coeff_distance(reconstruct(b), pairwise) <= 1e-14, trial

    def test_reconstruct_rejects_empty_and_mixed_domains(self):
        with pytest.raises(ValueError, match="do not cover"):
            reconstruct(PolyTraceBundle((1,), {}))
        f = PiecewisePoly.constant(HyperRect((-1.0,), (1.0,)), 1.0)
        g = two_cell_step(lo=-2.0)
        with pytest.raises(ValueError, match="different domains"):
            reconstruct(PolyTraceBundle((1,), {(0,): f, (1,): g}))

    def test_restrict_rejects_faces_other_than_lower(self):
        f = random_poly(np.random.default_rng(2))
        for face in [(1, 0), (0, -2)]:
            with pytest.raises(ValueError, match="0 or -1"):
                f.restrict(face)

    def test_restrict_pins_lower_corner(self):
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        f = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).antiderivative(1)
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
        assert not t0.active and float(t0.eval_grid([])) == pytest.approx(1.0)
        t1 = u.boundary_trace((1,), (1,))
        assert t1.eval_grid([np.array([-0.5])])[0] == pytest.approx(-1.0)
        assert t1.eval_grid([np.array([0.5])])[0] == pytest.approx(1.0)


class TestKernelMultiply:
    @pytest.mark.parametrize("n_breaks", [(3,), (2, 0), (0, 3), (2, 0, 1)])
    def test_matches_general_product(self, n_breaks):
        # every axis is tried as the kernel axis of the polynomial pinned
        # there (constant along it), so breaks lie off it; the k-fold
        # antiderivative along it is checked against the pointwise product
        # z^k/k! * f at Gauss nodes (Cauchy's formula for repeated integration)
        nd = len(n_breaks)
        rng = np.random.default_rng(10 * nd + sum(n_breaks))
        for trial in range(3):
            lo = rng.uniform(-2.0, 0.0, nd)
            domain = HyperRect(tuple(lo), tuple(lo + rng.uniform(0.5, 3.0, nd)))
            poly = random_poly(rng, nd, tuple(rng.integers(0, 4, nd)), n_breaks, domain)
            for axis in range(nd):
                f = poly.restrict(tuple(-1 if i == axis else 0 for i in range(nd)))
                axes, _ = gauss_grid([f], nodes=4)
                grids = np.meshgrid(*axes, indexing="ij")
                for k in range(5):
                    got = f.antiderivative(axis, k)
                    degree = tuple(d + (k if i == axis else 0) for i, d in enumerate(f.degree))
                    assert got.degree == degree and got.cell_counts == f.cell_counts
                    assert all(np.array_equal(a, b) for a, b in zip(got.breaks, f.breaks))
                    z = grids[axis] - lo[axis]
                    ref = z**k / math.factorial(k) * f(*grids)
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(got(*grids) - ref)) <= 1e-13 * scale, (axis, k)

    @pytest.mark.parametrize("make", [
        lambda rng: random_poly(rng, 2, (0, 0), (1, 0)),
        lambda rng: random_poly(rng, 2, (2, 0), (0, 0)),
        lambda rng: LegendreSeries(rng.standard_normal((3, 1))),
    ], ids=["breaks", "degree", "legendre"])
    def test_refuses_a_varying_axis(self, make):
        # a kernel lifts only a trace constant along its axis (one cell,
        # degree 0): axis 0 here has a break or a positive degree
        f = make(np.random.default_rng(6))
        with pytest.raises(ValueError, match="varies along inactive axis 0"):
            apply_tensor((1, 0), (2, 0), f)
        assert apply_tensor((0, 0), (2, 0), f) is f  # order 0 is the identity on any input
        assert apply_tensor((2, 0), (2, 0), f).degree == (f.degree[0] + 2, 0)  # top order
        assert apply_tensor((0, 2), (0, 3), f).degree == (f.degree[0], 2)


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
