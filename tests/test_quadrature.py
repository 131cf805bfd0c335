import math

import numpy as np
import pytest

from sobrecon import legseries
from sobrecon.analytic import AnalyticFunction
from sobrecon.core import HyperRect, multiindex_range
from sobrecon.legseries import LegendreSeries
from sobrecon.expansion import reconstruct, term_at_point
from sobrecon.piecewise import PiecewisePoly
from sobrecon.projection import sobolev_project_legendre, sobolev_project_step
from sobrecon.quadrature import (
    AxisGrading,
    QuadratureRule,
    axis_quadrature,
    dc_error,
    error_components,
    grid_quadrature,
    integrate,
    l2_error,
    rule_for,
    sobolev_error,
)
from sobrecon.targets import get_example
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


class TestGridCache:
    def test_equal_domain_and_rule_share_arrays(self):
        def build():
            return grid_quadrature(HyperRect((0.0, -1.0), (1.0, 2.0)),
                                   QuadratureRule(nodes=5, panels=3, splits=((0.25,), ())))

        (axes, weights), (again, again_w) = build(), build()
        assert all(a is b for a, b in zip(axes + weights, again + again_w))

    def test_shared_arrays_are_read_only(self):
        axes, weights = grid_quadrature(HyperRect.cube(2), QuadratureRule(nodes=4, panels=2))
        for arr in axes + weights:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_domains_with_one_rule_get_their_own_nodes(self):
        rule = QuadratureRule(nodes=4, panels=2)
        (x,), _ = grid_quadrature(HyperRect.cube(1), rule)
        (y,), _ = grid_quadrature(HyperRect((0.0,), (1.0,)), rule)
        assert x.min() < 0.0 < y.min()
        assert np.array_equal(y, axis_quadrature(0.0, 1.0, (), None, 4, 2)[0])

    def test_returned_lists_are_fresh(self):
        dom, rule = HyperRect.cube(2), QuadratureRule(nodes=3, panels=1)
        axes, weights = grid_quadrature(dom, rule)
        axes[0] = np.zeros(7)
        weights.append(np.ones(2))
        again, again_w = grid_quadrature(dom, rule)
        assert [len(a) for a in again] == [3, 3]
        assert len(again_w) == 2

    def test_rule_sequences_become_tuples(self):
        # a rule must hash to be a cache key, whatever sequences it was given
        rule = QuadratureRule(nodes=4, panels=1, splits=[[np.float64(0.5)], []],
                              grading=[None, AxisGrading(0.0)])
        tuples = QuadratureRule(nodes=4, panels=1, splits=((0.5,), ()),
                                grading=(None, AxisGrading(0.0)))
        assert rule == tuples and hash(rule) == hash(tuples)


class TestQuadratureRule:
    @pytest.mark.parametrize("size", [
        dict(nodes=2.5), dict(nodes=16.0), dict(panels=4.0), dict(nodes=True), dict(panels="4")])
    def test_refuses_non_integer_sizes(self, size):
        # refused when built, not at the first leggauss call
        with pytest.raises(ValueError, match="must be an integer"):
            QuadratureRule(**size)

    def test_takes_numpy_integer_sizes(self):
        rule = QuadratureRule(nodes=np.int64(8), panels=np.int32(2))
        assert rule == QuadratureRule(nodes=8, panels=2)
        assert type(rule.nodes) is int and type(rule.panels) is int


class TestAxisGrading:
    @pytest.mark.parametrize("center", [math.nan, math.inf])
    def test_refuses_a_center_that_is_not_finite(self, center):
        # a NaN center would compare false everywhere and leave the axis ungraded
        with pytest.raises(ValueError, match="grading center must be finite"):
            AxisGrading(center)

    @pytest.mark.parametrize("panels", [2.5, 3.0, True, "3"])
    def test_refuses_panels_that_are_not_an_integer(self, panels):
        # panels=2.5 would build the 3-level rule without a word
        with pytest.raises(ValueError, match="grading panels must be an integer"):
            AxisGrading(0.0, panels=panels)

    def test_numpy_integer_panels_become_int(self):
        grading = AxisGrading(0.0, panels=np.int64(3))
        assert grading == AxisGrading(0.0, panels=3)
        assert type(grading.panels) is int


class TestAxisQuadrature:
    def test_graded_panels_cluster_toward_center(self):
        x, w = axis_quadrature(-1.0, 1.0, splits=(0.0,),
                               grading=AxisGrading(0.0), nodes=4, panels=4)
        assert np.all(np.diff(x) > 0) or True  # nodes are panel-ordered per side
        assert np.min(np.abs(x)) < 1e-20
        assert w.sum() == pytest.approx(2.0, rel=1e-14)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            axis_quadrature(1.0, 1.0, (), None, 16, 32)

    @pytest.mark.parametrize("c", [0.3, -0.5, 0.9])
    @pytest.mark.parametrize("nodes", [2, 16, 64, 264, 512])
    def test_grading_toward_nonzero_point_keeps_nodes_off_it(self, c, nodes):
        # 40 levels of ratio 1/4 reach 4^-39 (b - a), far below one ulp of
        # c: levels that narrow must go, not collapse onto c
        u = AnalyticFunction(HyperRect.cube(1), (0,), {(0,): lambda x: x},
                             singular_points=((c,),))
        (x,), (w,) = grid_quadrature(u.domain, rule_for(u, QuadratureRule(nodes=nodes)))
        assert np.all(np.diff(np.sort(x)) > 0)
        assert not np.any(x == c)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("c", [0.3, -0.5, 0.9])
    def test_graded_inverse_square_root_at_nonzero_point(self, c):
        f = lambda x: np.abs(x - c) ** -0.5
        u = AnalyticFunction(HyperRect.cube(1), (0,), {(0,): f}, singular_points=((c,),))
        exact = 2.0 * (np.sqrt(1.0 - c) + np.sqrt(1.0 + c))
        assert integrate(f, u.domain, rule_for(u)) == pytest.approx(exact, rel=1e-7)

    @pytest.mark.parametrize("offset", [1e-14, -1e-14, 1e-3])
    def test_breakpoint_beside_singular_point_keeps_the_grading(self, offset):
        # the segment beyond a split next to c is graded toward c too,
        # instead of getting uniform panels beside the singularity
        c = 0.3
        f = lambda x: np.abs(x - c) ** -0.5
        u = AnalyticFunction(HyperRect.cube(1), (0,), {(0,): f},
                             breakpoints=((c + offset,),), singular_points=((c,),))
        exact = 2.0 * (np.sqrt(1.0 - c) + np.sqrt(1.0 + c))
        assert integrate(f, u.domain, rule_for(u)) == pytest.approx(exact, rel=1e-7)

    def test_segment_far_from_center_stays_uniform(self):
        # [0.5, 1] lies farther from c = 0 than r times its length: one
        # uniform panel, as without grading
        x, _ = axis_quadrature(-1.0, 1.0, (0.0, 0.5), AxisGrading(0.0), nodes=2, panels=4)
        ref, _ = axis_quadrature(0.5, 1.0, (), None, nodes=2, panels=1)
        np.testing.assert_array_equal(x[x > 0.5], ref)

    def test_second_singular_point_on_an_axis_is_refused(self):
        # rule_for grades each axis toward one center; a second point would
        # silently get ungraded panels
        with pytest.raises(ValueError, match="at most one singular point per axis"):
            AnalyticFunction(HyperRect.cube(1), (0,), {(0,): lambda x: x},
                             singular_points=((-0.5, 0.5),))


class TestNorms:
    def test_l2_norm_of_x(self):
        dom = HyperRect.cube(1)
        x = AnalyticFunction(dom, (0,), {(0,): lambda x: x})
        assert l2_error(x, None, dom, QuadratureRule(nodes=4, panels=1)) == \
            pytest.approx(math.sqrt(2 / 3), rel=1e-14)

    def test_zero_norm(self):
        dom = HyperRect.cube(1)
        zero = AnalyticFunction(dom, (0,), {(0,): lambda x: 0.0 * x})
        assert l2_error(zero, None, dom, QuadratureRule()) == 0.0

    def test_normalized_legendre_unit_norm(self):
        dom = HyperRect.cube(1)
        for d in (0, 3, 7):
            f = AnalyticFunction(dom, (0,), {
                (0,): lambda x, _d=d: math.sqrt(_d + 0.5) * legendre_classic(_d, x)})
            assert l2_error(f, None, dom, QuadratureRule(nodes=16, panels=2)) == \
                pytest.approx(1.0, rel=1e-13)

    def test_sobolev_norm_of_x(self):
        # ||x||^2 in the order-1 norm on [-1,1]: 2/3 + 2 = 8/3
        dom = HyperRect.cube(1)
        f = PiecewisePoly(dom, (np.array([]),), np.array([[-1.0, 1.0]]))  # x about -1
        got = sobolev_error(f, None, (1,), dom, QuadratureRule(nodes=4, panels=1))
        assert got == pytest.approx(math.sqrt(8 / 3), rel=1e-14)

    def test_order_zero_norm_is_l2(self):
        u = get_example("example1-1d")
        rule = rule_for(u)
        a = sobolev_error(u, None, (0,), u.domain, rule)
        b = l2_error(u, None, u.domain, rule)
        assert a == pytest.approx(b, rel=1e-14)

    def test_unavailable_derivative_rejected(self):
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match="unavailable"):
            sobolev_error(u, None, (6,), u.domain, QuadratureRule(nodes=4, panels=1))

    def test_l2_error_between_callable_and_pw(self):
        dom = HyperRect.cube(1)
        f = PiecewisePoly(dom, (np.array([]),), np.array([[-1.0, 1.0]]))  # x
        x = AnalyticFunction(dom, (0,), {(0,): lambda x: x})
        err = l2_error(x, f, dom, QuadratureRule(nodes=4, panels=2))
        assert err <= 1e-14

    def test_error_components_build_one_basis_table_per_axis(self, monkeypatch):
        calls = []
        values = legseries.legendre_values

        def counted(*args, **kwargs):
            calls.append(args[0])
            return values(*args, **kwargs)

        monkeypatch.setattr(legseries, "legendre_values", counted)
        u = get_example("poly-random", seed=3, delta=(5,))
        series = LegendreSeries(np.random.default_rng(3).standard_normal(41))
        comp = error_components(u, series, multiindex_range((5,)), u.domain,
                                QuadratureRule(nodes=8, panels=4))
        assert len(comp) == 6
        assert calls == [40]

    def test_error_components_without_g_write_no_operand_grid(self):
        """With g=None the squares go into a new array: the target's grid is
        a read-only broadcast view, and an operand may yield a grid it keeps,
        so only a fresh f - g is squared in place."""

        class KeptGrid:
            """Yields the same stored, writable grid for every index."""

            def __init__(self, grid):
                self.grid = grid

            def derivative_grids(self, indices, axes):
                for _ in indices:
                    yield self.grid

        rule = QuadratureRule(nodes=4, panels=2)
        indices = multiindex_range((2, 1))
        target = get_example("poly-random", seed=5, ndim=2, delta=(2, 1))
        rng = np.random.default_rng(5)
        poly = PiecewisePoly(HyperRect.cube(2), (np.array([-0.2]), np.array([0.3, 0.6])),
                             rng.standard_normal((2, 3, 4, 3)))
        for f in (target, poly):
            first = error_components(f, None, indices, f.domain, rule)
            assert error_components(f, None, indices, f.domain, rule) == first
        axes, weights = grid_quadrature(target.domain, rule)
        kept = rng.standard_normal(tuple(len(x) for x in axes))
        before = kept.copy()
        comp = error_components(KeptGrid(kept), None, indices, target.domain, rule)
        assert np.array_equal(kept, before)
        want = float(np.einsum("i,j,ij->", weights[0], weights[1], before * before))
        for alpha in indices:
            assert comp[alpha] == pytest.approx(want, rel=1e-13)
        # with g the in-place square reads the difference, not an operand
        diff = error_components(poly, KeptGrid(kept), indices, poly.domain, rule)
        assert np.array_equal(kept, before)
        for alpha, grid in zip(indices, poly.derivative_grids(indices, axes)):
            want = float(np.einsum("i,j,ij->", weights[0], weights[1],
                                   (grid - before) ** 2))
            assert diff[alpha] == pytest.approx(want, rel=1e-13)


class TestDcNorm:
    def test_monomial_value(self):
        # u = x^2 y on [0,1]^2 at order (2,1): only the top trace (=2) is
        # nonzero, contributing |2| * sqrt(area) = 2
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        u = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).antiderivative(1)
        got = dc_error(u, None, (2, 1), dom, QuadratureRule(nodes=4, panels=1))
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_order_zero_is_l2(self):
        dom = HyperRect.cube(1)
        f = PiecewisePoly(dom, (np.array([]),), np.array([[-1.0, 1.0]]))
        rule = QuadratureRule()
        assert dc_error(f, None, (0,), dom, rule) == \
            pytest.approx(l2_error(f, None, dom, rule), rel=1e-13)

    def test_matches_bundle_norm_after_reconstruction(self):
        rng = np.random.default_rng(5)
        for ndim, delta in ((1, (2,)), (2, (2, 1))):
            dom = random_domain(rng, ndim)
            b = random_trace_bundle(rng, delta, dom)
            u = reconstruct(b)
            rule = QuadratureRule(nodes=10, panels=2,
                                  splits=tuple(tuple(np.concatenate([e.breaks[i] for e in b.entries.values()]))
                                               for i in range(ndim)))
            assert dc_error(u, None, delta, dom, rule) == pytest.approx(b.norm(), rel=1e-10)

    def test_analytic_vs_poly_difference(self):
        u = get_example("example1-1d")
        zero = PiecewisePoly.constant(u.domain, 0.0)
        rule = rule_for(u)
        assert dc_error(u, zero, (5,), u.domain, rule) == \
            pytest.approx(dc_error(u, None, (5,), u.domain, rule), rel=1e-13)

    def test_operands_need_only_derivative_grids(self):
        # the faces are read through error_components, so an operand that
        # gives no boundary_trace still has a dc norm
        class GridsOnly:
            def __init__(self, f):
                self.domain = f.domain
                self.derivative_grids = f.derivative_grids

        u = get_example("example1-1d")
        series = LegendreSeries(np.random.default_rng(4).standard_normal(12))
        rule = rule_for(u, QuadratureRule(nodes=20, panels=4))
        for g in (None, u):
            assert dc_error(GridsOnly(series), g, (5,), u.domain, rule) == \
                dc_error(series, g, (5,), u.domain, rule)

    def test_one_basis_table_per_face(self, monkeypatch):
        calls = []
        values = legseries.legendre_values

        def counted(max_degree, x):
            calls.append((max_degree, np.size(x)))
            return values(max_degree, x)

        monkeypatch.setattr(legseries, "legendre_values", counted)
        u = get_example("example1-1d")
        g = LegendreSeries(np.random.default_rng(4).standard_normal(12))
        dc_error(u, g, (5,), u.domain, rule_for(u, QuadratureRule(nodes=20, panels=4)))
        # the vertex face (alpha < 5) at its one node, then the interval face
        assert calls == [(11, 1), (11, 1600)]

    def test_order_above_smoothness_refused(self):
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match=r"derivative \(6,\) unavailable \(delta=\(5,\)\)"):
            dc_error(u, None, (6,), u.domain, rule_for(u, QuadratureRule(nodes=4, panels=1)))

    @pytest.mark.parametrize("order", [(1,), (1, 1, 1), 2])
    def test_order_needs_one_entry_per_axis(self, order):
        f = PiecewisePoly.constant(HyperRect.cube(2), 1.0)
        with pytest.raises(ValueError, match="expected 2 entries"):
            dc_error(f, None, order, f.domain, QuadratureRule(nodes=4, panels=1))


@pytest.mark.parametrize("name", [
    "integrate", "l2_error", "sobolev_error", "dc_error", "term_at_point",
    "sobolev_project_legendre", "sobolev_project_step"])
def test_every_rule_reader_requires_a_rule(name):
    # no flat fallback rule: a singular target would be integrated silently
    # without its splits and grading
    u = get_example("example1-1d")
    calls = {
        "integrate": lambda: integrate(u, u.domain),
        "l2_error": lambda: l2_error(u, None, u.domain),
        "sobolev_error": lambda: sobolev_error(u, None, (5,), u.domain),
        "dc_error": lambda: dc_error(u, None, (5,), u.domain),
        "term_at_point": lambda: term_at_point(u.boundary_trace((5,), (5,)), (0.5,)),
        "sobolev_project_legendre": lambda: sobolev_project_legendre(u, (5,), (8,)),
        "sobolev_project_step": lambda: sobolev_project_step(u, (5,), (8,)),
    }
    with pytest.raises(TypeError, match="'rule'"):
        calls[name]()
