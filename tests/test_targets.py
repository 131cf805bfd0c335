import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from sobrecon.analytic import AnalyticFunction
from sobrecon.core import active_axes, as_multiindex, boundary_trace, face_spec, multiindex_range
from sobrecon.expansion import term_at_point
from sobrecon.projection import sobolev_project_legendre
from sobrecon.quadrature import QuadratureRule, rule_for
from sobrecon.targets import available_examples, example1, example2, get_example, v_derivative


def finite_difference_error(u: AnalyticFunction, alpha, axis: int, points,
                            h: float = 1e-4) -> float:
    """Max relative error of the central difference of D^alpha along `axis`
    against the stored next-order evaluator, over the given points."""
    alpha = as_multiindex(alpha, ndim=u.domain.ndim)
    up = tuple(a + (1 if i == axis else 0) for i, a in enumerate(alpha))
    lo_ev, hi_ev = u.derivatives[alpha], u.derivatives[up]
    worst = 0.0
    for p in points:
        p = tuple(float(x) for x in p)
        plus = tuple(x + h if i == axis else x for i, x in enumerate(p))
        minus = tuple(x - h if i == axis else x for i, x in enumerate(p))
        fd = (float(lo_ev(*plus)) - float(lo_ev(*minus))) / (2 * h)
        exact = float(hi_ev(*p))
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1.0))
    return worst


class TestExample1:
    def test_value_at_origin(self):
        u = example1()
        assert u(0.0) == pytest.approx(-413 / 1140, rel=1e-15)

    def test_fifth_derivative_formula(self):
        u = example1()
        for s in (0.5, -0.25, 0.9):
            assert u.derivatives[(5,)](s) == \
                pytest.approx(1.0 / (2.0 * abs(s) ** 0.25), rel=1e-13)

    def test_sixth_derivative_not_available(self):
        u = example1()
        assert u.delta == (5,)
        with pytest.raises(ValueError, match="unavailable"):
            u.derivative_grid((6,), [np.array([0.5])])

    def test_rejects_point_outside(self):
        u = example1()
        with pytest.raises(ValueError, match="outside domain on axis 0"):
            term_at_point(u.boundary_trace((0,)), (1.5,), rule_for(u))

    def test_finite_difference_consistency(self):
        u = example1()
        pts = [(s,) for s in (-0.8, -0.55, 0.35, 0.6, 0.9)]
        for k in range(4):
            assert finite_difference_error(u, (k,), 0, pts) < 1e-5

    def test_zero_order_is_function(self):
        u = example1()
        xs = np.linspace(-1, 1, 7)
        assert np.allclose(u(xs), u.derivatives[(0,)](xs))


class TestExample2:
    def test_branch_continuity_at_half(self):
        for k in range(3):  # v, v', v'' continuous at +-1/2
            for x in (-0.5, 0.5):
                left = v_derivative(k, x - 1e-13)
                right = v_derivative(k, x + 1e-13)
                assert abs(left - right) < 1e-12

    def test_third_derivative_step(self):
        assert v_derivative(3, 0.75) == pytest.approx(1.0)
        assert v_derivative(3, -0.75) == pytest.approx(1.0)
        assert v_derivative(3, 0.0) == pytest.approx(-1.0)
        assert v_derivative(3, 0.5) == pytest.approx(-1.0)  # boundary -> middle branch

    def test_endpoint_values(self):
        # left branch at -1 and right branch at +1 (frozen by hand substitution)
        assert v_derivative(0, -1.0) == pytest.approx(-2 / 3, rel=1e-14)
        assert v_derivative(0, 1.0) == pytest.approx(1 / 4, rel=1e-14)
        assert v_derivative(0, 0.0) == pytest.approx(-5 / 24, rel=1e-14)

    def test_tensor_structure(self):
        w = example2()
        x, y = 0.3, -0.7
        for alpha in multiindex_range((3, 3)):
            got = w.derivatives[alpha](x, y)
            expected = v_derivative(alpha[0], x) * v_derivative(alpha[1], y)
            assert got == pytest.approx(expected, rel=1e-14)

    def test_finite_difference_consistency(self):
        w = example2()
        pts = [(-0.8, 0.3), (0.2, 0.2), (0.7, -0.9)]
        for alpha in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]:
            for axis in range(2):
                up = list(alpha)
                up[axis] += 1
                if tuple(up) in w.derivatives or (up[0] <= 3 and up[1] <= 3):
                    assert finite_difference_error(w, alpha, axis, pts) < 1e-5


# Three-branch references: every Polynomial branch through its own
# __call__, then np.where with the middle branch closed at +-1/2.
_V_BRANCHES = (Polynomial([-1 / 6, 5 / 6, 1 / 2, 1 / 6]),
               Polynomial([-5 / 24, 7 / 12, 0.0, -1 / 6]),
               Polynomial([-1 / 4, 5 / 6, -1 / 2, 1 / 6]))
_P1 = Polynomial([-413 / 1140, 29 / 90, -3 / 55, 17 / 210, 1 / 36])


def v_reference(k, x):
    x = np.asarray(x, float)
    left, mid, right = ((b if k == 0 else b.deriv(k))(x) for b in _V_BRANCHES)
    return np.where(x < -0.5, left, np.where(np.abs(x) <= 0.5, mid, right))


def example1_reference(k, s):
    s = np.asarray(s, float)
    poly = _P1 if k == 0 else _P1.deriv(k)
    e = 19.0 / 4.0
    factor = 512.0 / 65835.0 * math.prod(e - j for j in range(k))
    mag = np.abs(s) ** (e - k)
    tail = factor * (np.sign(s) * mag if k % 2 == 0 else mag)
    return poly(s) + tail


def _edge_points():
    """The branch ends, their float neighbours, +-0.0 and random interior points."""
    half = [x for h in (-0.5, 0.5) for x in (np.nextafter(h, -2.0), h, np.nextafter(h, 2.0))]
    rng = np.random.default_rng(20)
    return np.array([-1.0, 1.0, 0.0, -0.0] + half + list(rng.uniform(-1, 1, 41)))


def _same_bits(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestEvaluatorsMatchPolynomialBranches:
    """The evaluators read one branch per node by Horner's rule in numpy
    polyval's order, so they match the three-branch Polynomial reference
    bit for bit, on every shape the error norms and traces pass."""

    @staticmethod
    def shapes(x):
        return [x[:, None], x[None, :]] + [np.asarray(p) for p in x]

    @pytest.mark.parametrize("k", range(4))
    def test_v_derivative(self, k):
        for x in self.shapes(_edge_points()):
            _same_bits(v_derivative(k, x), v_reference(k, x))

    @pytest.mark.parametrize("k", range(6))
    def test_example1_derivatives(self, k):
        ev = example1().derivatives[(k,)]
        with np.errstate(divide="ignore"):  # |s|^(-1/4) at s = 0
            for x in self.shapes(_edge_points()):
                _same_bits(ev(x), example1_reference(k, x))

    def test_closed_middle_branch(self):
        for x in (-0.5, 0.5):
            _same_bits(v_derivative(3, x), -1.0)
        _same_bits(v_derivative(3, np.nextafter(0.5, 1.0)), 1.0)
        _same_bits(v_derivative(3, np.nextafter(-0.5, -1.0)), 1.0)

    @pytest.mark.parametrize("k", [True, False, 1.5, 2.0, np.float64(1.0), -1, 4, "1"])
    def test_v_derivative_refuses_bad_orders(self, k):
        with pytest.raises(ValueError, match=r"v has derivatives of order 0\.\.3, got"):
            v_derivative(k, np.zeros(3))

    def test_v_derivative_accepts_numpy_integers(self):
        _same_bits(v_derivative(np.int64(2), 0.3), v_reference(2, 0.3))


class TestTraces:
    def test_trace_layout_for_monomial(self):
        # x^2 y on [0,1]^2 has the six-entry trace table (0,0,0,0,0,2)
        from sobrecon.analytic import AnalyticFunction
        from sobrecon.core import HyperRect

        derivs = {
            (0, 0): lambda x, y: x**2 * y,
            (1, 0): lambda x, y: 2 * x * y,
            (2, 0): lambda x, y: 2 * y + 0 * x,
            (0, 1): lambda x, y: x**2 + 0 * y,
            (1, 1): lambda x, y: 2 * x + 0 * y,
            (2, 1): lambda x, y: 2.0 + 0 * x + 0 * y,
        }
        u = AnalyticFunction(HyperRect((0, 0), (1, 1)), (2, 1), derivs)
        for alpha in ((0, 0), (1, 0)):
            t = u.boundary_trace(alpha, (2, 1))
            assert not t.active and float(t.eval_grid([])) == pytest.approx(0.0)
        t20 = u.boundary_trace((2, 0), (2, 1))
        assert t20.face == (0, -1)
        assert float(t20.eval_grid([np.array([0.7])])[0]) == pytest.approx(0.0)
        t21 = u.boundary_trace((2, 1), (2, 1))
        assert t21.face == (0, 0)
        assert float(t21.eval_grid([np.array([0.3]), np.array([0.9])])[0, 0]) == pytest.approx(2.0)

    def test_order_zero_bundle_is_function(self):
        u = example1()
        assert set(multiindex_range((0,))) == {(0,)}
        t = u.boundary_trace((0,), (0,))
        assert float(t.eval_grid([np.array([0.5])])[0]) == pytest.approx(u(0.5))

    def test_top_trace_is_full_derivative(self):
        w = example2()
        t = w.boundary_trace((3, 3))
        assert t.face == (0, 0)
        assert float(t.eval_grid([np.array([0.3]), np.array([0.1])])[0, 0]) == pytest.approx(
            w.derivatives[(3, 3)](0.3, 0.1))

    @pytest.mark.parametrize("ndim,delta", [(2, (2, 1)), (3, (1, 2, 1))])
    def test_three_function_kinds_give_one_trace(self, ndim, delta):
        # The trace of D^alpha is D^alpha u read at the lower endpoint of
        # each pinned axis.  The analytic target, its PiecewisePoly and the
        # LegendreSeries projected from it at its own degree (exact for a
        # polynomial) must all give it, vertex faces included.  The oracle is
        # the D^alpha evaluator at the pinned points; the bound is 1e-11 relative
        # to the largest |D^alpha u| on the face grid (measured 3.7e-13).
        u = get_example("poly-random", seed=3, ndim=ndim, delta=delta)
        pw = u.derivatives[(0,) * ndim]
        zero = (0,) * ndim
        direct = AnalyticFunction(u.domain, zero, {zero: pw})
        series = sobolev_project_legendre(direct, zero, pw.degree,
                                          QuadratureRule(nodes=8, panels=1))
        nodes = np.polynomial.legendre.leggauss(5)[0]
        for alpha in multiindex_range(delta):
            active = active_axes(face_spec(alpha, delta))
            grid = [nodes] * len(active)
            want = np.empty((nodes.size,) * len(active))
            for index in np.ndindex(want.shape):
                coords = dict(zip(active, nodes[list(index)]))
                point = [coords.get(i, u.domain.lo[i]) for i in range(ndim)]
                want[index] = u.derivatives[alpha](*point)
            scale = np.abs(want).max()
            for f in (u, pw, series):
                got = boundary_trace(f, alpha, delta).eval_grid(grid)
                assert got.shape == want.shape, (type(f).__name__, alpha)
                assert np.abs(got - want).max() <= 1e-11 * scale, (type(f).__name__, alpha)

    def test_derivative_table_validation(self):
        from sobrecon.analytic import AnalyticFunction
        from sobrecon.core import HyperRect

        with pytest.raises(ValueError, match="cover exactly"):
            AnalyticFunction(HyperRect.cube(1), (1,), {(0,): lambda x: x})


def test_registry():
    names = available_examples()
    assert {"example1-1d", "example2-2d", "poly-random"} <= set(names)
    u = get_example("poly-random", seed=3, ndim=2, delta=(1, 2))
    assert u.delta == (1, 2)
    with pytest.raises(KeyError):
        get_example("missing-example")
