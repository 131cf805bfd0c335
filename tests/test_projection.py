import math

import numpy as np
import pytest

from sobrecon.analytic import get_example
from sobrecon.core import HyperRect, multiindex_range
from sobrecon.expansion import extract_traces_poly
from sobrecon.legseries import LegendreSeries
from sobrecon.piecewise import PiecewisePoly
from sobrecon.projection import (
    cell_edges,
    project_legendre,
    project_step,
    sobolev_project_legendre,
    sobolev_project_step,
)
from sobrecon.quadrature import l2_error, rule_for
from sobrecon.targets import v_derivative


class TestLegendreProjection:
    def test_reproduces_polynomials(self):
        f = lambda x: x**2
        series = project_legendre(f, (2,))
        xs = np.linspace(-1, 1, 21)
        assert np.allclose(series(xs), xs**2, atol=1e-14)

    def test_abs_at_degree_zero_is_mean(self):
        series = project_legendre(lambda x: np.abs(x), (0,))
        assert series(np.array([0.3]))[0] == pytest.approx(0.5, rel=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        f = LegendreSeries(rng.standard_normal((5,)))
        again = project_legendre(f, (4,))
        assert np.allclose(again.coeffs, f.coeffs, atol=1e-12)

    def test_2d_tensor_coefficients(self):
        # f(x,y) = x * y: single coefficient c_(1,1) = 2/3 in the
        # orthonormal basis (phi_1 normalized has norm 1, x = phi_1/sqrt(1.5))
        series = project_legendre(lambda x, y: x * y, (2, 2))
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0 / 1.5
        assert np.allclose(series.coeffs, expected, atol=1e-14)


class TestStepProjection:
    def test_linear_two_cells(self):
        step = project_step(lambda x: x, (2,))
        assert np.allclose(step.coeffs.reshape(-1), [-0.5, 0.5], atol=1e-14)

    def test_constant_passthrough(self):
        step = project_step(lambda x, y: 3.0 + 0 * x + 0 * y, (2, 3))
        assert np.allclose(step.coeffs.reshape(-1), 3.0, atol=1e-14)

    def test_step_derivative_of_example2_aligned_cells(self):
        step = project_step(lambda x: v_derivative(3, x), (4,))
        assert np.allclose(step.coeffs.reshape(-1), [1.0, -1.0, -1.0, 1.0], atol=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(8)
        step = PiecewisePoly.from_cell_values(HyperRect.cube(1), cell_edges((8,), 1), values)
        again = project_step(step, (8,))
        assert np.allclose(again.coeffs.reshape(-1), values, atol=1e-13)


class TestSobolevLegendre:
    def test_order_zero_reduces_to_plain_projection(self):
        u = get_example("example1-1d")
        rule = rule_for(u, nodes=16, panels=8)
        recon = sobolev_project_legendre(u, (0,), (8,), rule)
        direct = project_legendre(u, (8,), rule)
        assert np.allclose(recon.coeffs, direct.coeffs, rtol=1e-12)

    def test_reproduces_polynomials(self):
        u = get_example("poly-random", seed=5, ndim=2, delta=(2, 1), degree_margin=1)
        # u has degree (3, 2), so each trace is reproduced exactly by its
        # projection at degree (3, 2) on the face's active axes
        recon = sobolev_project_legendre(u, (2, 1), (3, 2))
        xs = np.linspace(-1, 1, 9)
        got = recon.eval_grid([xs, xs])
        want = u.derivative_grid((0, 0), [xs, xs])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_degree_bookkeeping(self):
        u = get_example("example2-2d")
        recon = sobolev_project_legendre(u, (2, 1), (3, 3))
        assert recon.degree == (5, 4)  # degree + gamma per axis
        pw = recon.to_piecewise()
        assert pw.degree == (5, 4)

    def test_commutation_with_trace_extraction(self):
        # traces of the reconstruction == individually projected traces
        u = get_example("example2-2d")
        gamma, degree = (2, 2), (3, 3)
        rule = rule_for(u, nodes=24, panels=4)  # same splits on both axes
        recon = sobolev_project_legendre(u, gamma, degree, rule)
        bundle = extract_traces_poly(recon.to_piecewise(), gamma)
        for alpha in multiindex_range(gamma):
            face = bundle.entries[alpha]
            t = u.boundary_trace(alpha, gamma)
            if t.is_scalar:
                assert float(np.squeeze(face.coeffs)) == pytest.approx(t.values, abs=1e-10)
                continue
            act = t.active
            projected = project_legendre(t, tuple(degree[i] for i in act), rule)
            axes = [np.linspace(-1, 1, 7)] * len(act)
            full = [axes[act.index(i)] if i in act else np.array([-1.0])
                    for i in range(2)]
            got = np.squeeze(face.eval_grid(full))
            want = projected.eval_grid(axes)
            assert np.allclose(got, np.squeeze(want), rtol=1e-9, atol=1e-9)

    def test_derivative_series_matches_piecewise(self):
        u = get_example("example2-2d")
        recon = sobolev_project_legendre(u, (2, 2), (3, 3))
        pw = recon.to_piecewise()
        xs = np.linspace(-1, 1, 8)
        for alpha in [(0, 0), (1, 0), (2, 2), (3, 3)]:
            got = recon.derivative_grid(alpha, [xs, xs])
            want = pw.derivative_grid(alpha, [xs, xs])
            assert np.allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_rejects_excessive_order(self):
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match="exceeds smoothness"):
            sobolev_project_legendre(u, (6,), (4,))


class TestSobolevStep:
    def test_order_zero_is_cell_average(self):
        u = get_example("example1-1d")
        qk = sobolev_project_step(u, (0,), (8,))
        direct = project_step(u, (8,), rule_for(u))
        got = extract_traces_poly(qk, (0,)).entries[(0,)]
        assert got.allclose(direct, 1e-12)

    def test_exact_recovery_of_example2(self):
        w = get_example("example2-2d")
        qk = sobolev_project_step(w, (3, 3), (4, 4))
        rule = rule_for(w, extra_splits=cell_edges((4, 4), 2))
        assert l2_error(w, qk, w.domain, rule) <= 1e-12

    def test_degree_cap_is_gamma(self):
        u = get_example("example1-1d")
        qk = sobolev_project_step(u, (3,), (8,))
        assert qk.degree == (3,)

    def test_commutation_with_trace_extraction(self):
        u = get_example("example1-1d")
        gamma, cells = (3,), (8,)
        qk = sobolev_project_step(u, gamma, cells)
        bundle = extract_traces_poly(qk, gamma)
        rule = rule_for(u, extra_splits=cell_edges(cells, 1))
        top = project_step(u.boundary_trace((3,), gamma), cells, rule)
        assert bundle.entries[(3,)].allclose(top, 1e-10)

    def test_single_cell_reconstruction_formula(self):
        # K=1, gamma=delta: Taylor-like sum of exact corner derivatives plus
        # the mean of the top derivative lifted through the Volterra kernel.
        # For the quintic target the top-derivative mean is exactly 2/3.
        u = get_example("example1-1d")
        q1 = sobolev_project_step(u, (5,), (1,))
        mean_top = 2.0 / 3.0
        xs = np.linspace(-1, 1, 11)

        def oracle(x):
            total = mean_top * (x + 1.0) ** 5 / math.factorial(5)
            for k in range(5):
                total += u.eval_derivative((k,), (-1.0,)) * (x + 1.0) ** k / math.factorial(k)
            return total

        for x in xs:
            assert q1(x) == pytest.approx(oracle(x), rel=1e-10, abs=1e-10)
