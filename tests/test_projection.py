import math
import tracemalloc

import numpy as np
import pytest

from sobrecon.analytic import AnalyticFunction
from sobrecon.core import HyperRect, boundary_trace, contract_axes, multiindex_range
from sobrecon.expansion import extract_traces_poly
from sobrecon.legseries import LegendreSeries, _derivative, legendre_values
from sobrecon.piecewise import PiecewisePoly, coeff_distance
from sobrecon.projection import (
    cell_edges,
    legendre_trace_bundles,
    sobolev_project_legendre,
    sobolev_project_step,
    step_trace_bundles,
)
from sobrecon.quadrature import (
    QuadratureRule,
    dc_error,
    grid_quadrature,
    integrate,
    l2_error,
    rule_for,
)
from sobrecon.targets import get_example, v_derivative
from sobrecon.verify import random_legendre_poly


def plain(f, ndim=1, **kwargs):
    """A callable on the standard cube as an order-zero target: its order-zero
    trace projection is the direct L2 projection of f."""
    zero = (0,) * ndim
    return AnalyticFunction(HyperRect.cube(ndim), zero, {zero: f}, **kwargs)


def legendre_rule(degree) -> QuadratureRule:
    """The rule these tests take Legendre projections with: 8 panels of
    max(16, degree + 8) nodes."""
    return QuadratureRule(nodes=max(16, max(degree) + 8), panels=8)


#: The rule these tests take step projections with.
STEP_RULE = QuadratureRule(nodes=16, panels=8)


def legendre_direct(f, degree):
    n = len(degree)
    return sobolev_project_legendre(plain(f, n), (0,) * n, degree, legendre_rule(degree))


def step_direct(f, counts):
    n = len(counts)
    return sobolev_project_step(plain(f, n), (0,) * n, counts, STEP_RULE)


class TestLegendreProjection:
    """The direct projection: the order-zero Legendre trace projection."""

    def test_reproduces_polynomials(self):
        f = lambda x: x**2
        series = legendre_direct(f, (2,))
        xs = np.linspace(-1, 1, 21)
        assert np.allclose(series.eval_grid([xs]), xs**2, atol=1e-14)

    def test_abs_at_degree_zero_is_mean(self):
        series = legendre_direct(lambda x: np.abs(x), (0,))
        assert series.eval_grid([np.array([0.3])])[0] == pytest.approx(0.5, rel=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        f = LegendreSeries(rng.standard_normal((5,)))
        again = legendre_direct(lambda x: f.eval_grid([x]), (4,))
        assert np.allclose(again.coeffs, f.coeffs, atol=1e-12)

    def test_2d_tensor_coefficients(self):
        # f(x,y) = x * y: single coefficient c_(1,1) = 2/3 in the
        # orthonormal basis (phi_1 normalized has norm 1, x = phi_1/sqrt(1.5))
        series = legendre_direct(lambda x, y: x * y, (2, 2))
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0 / 1.5
        assert np.allclose(series.coeffs, expected, atol=1e-14)


class TestStepProjection:
    """The direct projection: the order-zero step trace projection."""

    def test_linear_two_cells(self):
        step = step_direct(lambda x: x, (2,))
        assert isinstance(step, PiecewisePoly) and step.degree == (0,)
        assert np.allclose(step.coeffs.reshape(-1), [-0.5, 0.5], atol=1e-14)

    def test_constant_passthrough(self):
        step = step_direct(lambda x, y: 3.0 + 0 * x + 0 * y, (2, 3))
        assert step.cell_counts == (2, 3)
        assert np.allclose(step.coeffs.reshape(-1), 3.0, atol=1e-14)

    def test_step_derivative_of_example2_aligned_cells(self):
        step = step_direct(lambda x: v_derivative(3, x), (4,))
        assert np.allclose(step.coeffs.reshape(-1), [1.0, -1.0, -1.0, 1.0], atol=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(8)
        step = PiecewisePoly.from_cell_values(HyperRect.cube(1), cell_edges((8,), 1), values)
        again = step_direct(step, (8,))
        assert np.allclose(again.coeffs.reshape(-1), values, atol=1e-13)

    @pytest.mark.parametrize("cells", [2, 16, 256])
    def test_graded_nodes_left_of_zero_stay_in_their_cell(self, cells):
        # grading toward 0 puts nodes within 1e-16 of it, where x + 1 rounds
        # to 1.0; the cell right of 0 must not see them
        f = plain(lambda x: (x < 0.0).astype(float), singular_points=((0.0,),))
        step = sobolev_project_step(f, (0,), (cells,), STEP_RULE)
        values = step.coeffs.reshape(-1)
        assert np.all(values[cells // 2:] == 0.0)
        assert np.allclose(values[:cells // 2], 1.0, rtol=1e-14)


class TestSobolevLegendre:
    def test_order_zero_reduces_to_plain_projection(self):
        # coefficient k of the direct projection is the integral of
        # u * sqrt(k + 1/2) P_k, here by the same rule through `integrate`
        u = get_example("example1-1d")
        rule = rule_for(u, QuadratureRule(nodes=16, panels=8))
        recon = sobolev_project_legendre(u, (0,), (8,), rule)
        basis = np.polynomial.legendre.Legendre.basis
        direct = [integrate(lambda x, k=k: u(x) * np.sqrt(k + 0.5) * basis(k)(x),
                            u.domain, rule) for k in range(9)]
        assert np.allclose(recon.coeffs, direct, rtol=1e-12, atol=1e-15)

    def test_reproduces_polynomials(self):
        u = get_example("poly-random", seed=5, ndim=2, delta=(2, 1), degree_margin=1)
        # u has degree (3, 2), so each trace is reproduced exactly by its
        # projection at degree (3, 2) on the face's active axes
        recon = sobolev_project_legendre(u, (2, 1), (3, 2), legendre_rule((3, 2)))
        xs = np.linspace(-1, 1, 9)
        got = recon.eval_grid([xs, xs])
        want = u.derivative_grid((0, 0), [xs, xs])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_degree_bookkeeping(self):
        u = get_example("example2-2d")
        recon = sobolev_project_legendre(u, (2, 1), (3, 3), legendre_rule((3, 3)))
        assert recon.degree == (5, 4)  # degree + gamma per axis

    def test_commutation_with_trace_extraction(self):
        # traces of the reconstruction == individually projected traces
        u = get_example("example2-2d")
        gamma, degree = (2, 2), (3, 3)
        rule = rule_for(u, QuadratureRule(nodes=24, panels=4))  # same splits on both axes
        recon = sobolev_project_legendre(u, gamma, degree, rule)
        for alpha in multiindex_range(gamma):
            face = boundary_trace(recon, alpha, gamma)
            t = u.boundary_trace(alpha, gamma)
            assert face.face == t.face
            if not t.active:
                assert float(face.eval_grid([])) == pytest.approx(
                    float(t.eval_grid([])), abs=1e-10)
                continue
            act = t.active
            on_face = plain(lambda *g, t=t: t.eval_grid([x.reshape(-1) for x in g]), len(act))
            projected = sobolev_project_legendre(on_face, (0,) * len(act),
                                                 tuple(degree[i] for i in act), rule)
            axes = [np.linspace(-1, 1, 7)] * len(act)
            assert np.allclose(face.eval_grid(axes), projected.eval_grid(axes),
                               rtol=1e-9, atol=1e-9)

    def test_derivative_series_matches_piecewise(self):
        # a polynomial target of degree (3, 3) is reproduced exactly, so the
        # series and the PiecewisePoly it came from share every derivative
        u = get_example("poly-random", seed=3, ndim=2, delta=(2, 2), degree_margin=1)
        recon = sobolev_project_legendre(u, (2, 2), (3, 3), legendre_rule((3, 3)))
        pw = u.derivatives[(0, 0)]
        xs = np.linspace(-1, 1, 8)
        indices = [(0, 0), (1, 0), (2, 2), (3, 3)]
        for alpha, got in zip(indices, recon.derivative_grids(indices, [xs, xs])):
            want = pw.derivative_grid(alpha, [xs, xs])
            assert np.allclose(got, want, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("name,gamma,degree", [
        ("example1-1d", (5,), 256),
        ("example2-2d", (3, 3), 32),
    ])
    def test_top_derivative_returns_projected_top_trace(self, name, gamma, degree):
        """D^gamma of the approximant is the projected top trace T, at the
        degrees where fig1 and fig3 run, to within a first-order rounding
        bound derived from the operations that produce it.

        Exactly: every lifted term below the top has degree < gamma_i on some
        axis i, so D^gamma drops it, and D A = I for the antiderivative and
        derivative maps A, D, so D^gamma A^gamma T = T.  The coefficients of
        the approximant at indices >= gamma are those of the top term alone
        (the others add exact zeros there), and output index j of D^gamma
        reads only input indices >= j + gamma (each suffix sum runs down
        from the top index), so the computed result is fl(D^gamma
        fl(A^gamma T)).  Per axis, the operations run as all A steps (axis 0
        first), then all D steps (axis 0 first).

        Both maps compute y = M x row by row as y_j = g_j sum_k h_k x_k over
        the m nonzeros of row j, with r_k = sqrt(2k + 1): A has g_j = 1/r_j,
        h_k = +-1/r_k and m = 2; D has g_j = r_j, h_k = r_k and m <=
        ceil(n/2) on n input coefficients (one reversed cumsum per parity).
        Each factor is a rounded square root, applied by one rounded product
        or quotient, so the two factors of a term cost 2 + 2 roundings, and
        the sum of m terms m - 1 in any order: a step errs by at most
        (m + 3) u |M| |x| to first order (u the unit roundoff).  An error
        made at one step passes exactly through the later steps; on axis i
        they amount to D^p with p = (later D steps) - (later A steps) on
        that axis, because D A = I.  D has nonnegative entries, so |D^p| =
        D^p.  Summing over the steps, with x the computed input of each step,

            |computed - T| <= sum_steps (m + 3) u D^p (|M| |x|)

        entry by entry, to first order in u.
        """
        u = get_example(name)
        rule = rule_for(u, QuadratureRule(nodes=degree + 8, panels=4))  # the sweeps' rule
        degrees = (degree,) * len(gamma)
        recon = sobolev_project_legendre(u, gamma, degrees, rule)
        zero = (0,) * len(gamma)
        top_trace = AnalyticFunction(u.domain, zero, {zero: u.derivatives[gamma]},
                                     u.breakpoints, u.singular_points)
        top = sobolev_project_legendre(top_trace, zero, degrees, rule).coeffs
        got = recon.coeffs
        for axis, g in enumerate(gamma):
            for _ in range(g):
                got = _derivative(got, axis)
        assert got.shape == top.shape

        def along(matrix, x, axis):
            return np.moveaxis(np.tensordot(matrix, x, axes=([1], [axis])), 0, axis)

        def matrix(kind, n):  # the map, read off the unit vectors
            if kind == "A":
                return LegendreSeries(np.eye(n)).antiderivative(0).coeffs
            return _derivative(np.eye(n), 0)

        steps = [(kind, i) for kind in "AD" for i, g in enumerate(gamma) for _ in range(g)]
        x, bound = top, np.zeros(top.shape)
        for s, (kind, axis) in enumerate(steps):
            n = x.shape[axis]
            m = matrix(kind, n)
            err = ((2 if kind == "A" else -(-n // 2)) + 3) * np.finfo(float).eps / 2
            err = err * along(np.abs(m), np.abs(x), axis)
            for i in range(len(gamma)):
                later = [k for k, a in steps[s + 1:] if a == i]
                for _ in range(later.count("D") - later.count("A")):
                    err = along(matrix("D", err.shape[i]), err, i)
            bound += err
            x = along(m, x, axis)
        assert np.all(np.abs(got - top) <= bound)

    def test_dc_norm_optimality_against_unit_directions(self):
        # The order-gamma trace projection minimizes the dc error over the
        # polynomials of degree d + gamma, so no unit-dc-norm direction q may
        # lower it: with r = u - p_d, |r - eps q| = sqrt(|r|^2 + eps^2) at the
        # optimum, an "improvement" of -eps^2 / (2 |r|) (-2.2e-12 at eps=1e-6).
        # A copy nudged by 1e-4 along one direction has a first-order gap
        # that the same directions must see.
        u = get_example("example1-1d")
        gamma, d = (5,), (6,)
        rule = rule_for(u, QuadratureRule(nodes=d[0] + 14, panels=4))
        pd = sobolev_project_legendre(u, gamma, d, rule)
        rng = np.random.default_rng(0)
        directions = []
        for _ in range(21):
            q = random_legendre_poly(rng, (d[0] + gamma[0],))
            directions.append((1.0 / dc_error(q, None, gamma, u.domain, rule)) * q)

        def worst_improvement(p):
            base = dc_error(u, p, gamma, u.domain, rule)
            return max(base - dc_error(u, p + eps * q, gamma, u.domain, rule)
                       for q in directions[1:] for eps in (-1e-3, -1e-6, 1e-6, 1e-3))

        assert worst_improvement(pd) <= 1e-12
        assert worst_improvement(pd + 1e-4 * directions[0]) > 1e-10

    def test_rejects_excessive_order(self):
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match="exceeds smoothness"):
            sobolev_project_legendre(u, (6,), (4,), legendre_rule((4,)))

    def test_completes_a_bare_rule_for_the_target(self):
        """A bare rule gets the target's splits and grading, as the step
        projection's does."""
        u = get_example("example1-1d")
        bare = sobolev_project_legendre(u, (5,), (16,), QuadratureRule(nodes=24, panels=4))
        full = sobolev_project_legendre(u, (5,), (16,),
                                        rule_for(u, QuadratureRule(nodes=24, panels=4)))
        assert np.array_equal(bare.coeffs, full.coeffs)


def test_degree_256_projection_holds_one_basis_table():
    # fig1's rule at its top degree: the weighted basis table is built in
    # place, so the peak is one (257, nodes) table and not two
    u = get_example("example1-1d")
    rule = QuadratureRule(nodes=264, panels=4)
    (x,), _ = grid_quadrature(u.domain, rule_for(u, rule))
    table_bytes = 257 * x.size * 8
    tracemalloc.start()
    try:
        sobolev_project_legendre(u, (5,), (256,), rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * table_bytes


#: fig1's Legendre rule at its top degree, before `rule_for` completes it.
FIG1_TOP_RULE = QuadratureRule(nodes=264, panels=4)
FIG1_ORDERS = [(0,), (1,), (3,), (5,)]


@pytest.mark.parametrize("gamma", FIG1_ORDERS)
def test_blocked_top_trace_matches_the_whole_table(gamma):
    # the 21,120 nodes are read in six blocks of at most 4,080; the sum over
    # blocks may round differently from one contraction with the whole
    # table, by a few ulps of the sum of magnitudes
    u = get_example("example1-1d")
    (x,), (w,) = grid_quadrature(u.domain, rule_for(u, FIG1_TOP_RULE))
    table = legendre_values(256, x) * w
    g = u.boundary_trace(gamma, gamma).eval_grid([x])
    whole = contract_axes(g, [table.T])
    bound = 4 * np.finfo(float).eps * (np.abs(table) @ np.abs(g))
    bundle = legendre_trace_bundles(u, [gamma], (256,), FIG1_TOP_RULE)[gamma]
    assert np.all(np.abs(bundle.entries[gamma].coeffs - whole) <= bound)


@pytest.mark.parametrize("project, size, rule", [
    (legendre_trace_bundles, (256,), FIG1_TOP_RULE),
    (step_trace_bundles, (256,), STEP_RULE),
])
def test_one_pass_matches_each_order_alone(project, size, rule):
    # every trace is contracted by itself, so projecting the orders together
    # changes no bit of any order's traces
    u = get_example("example1-1d")
    together = project(u, FIG1_ORDERS, size, rule)
    assert list(together) == FIG1_ORDERS
    for gamma in FIG1_ORDERS:
        (alone,) = project(u, [gamma], size, rule).values()
        for alpha, entry in alone.entries.items():
            assert np.array_equal(together[gamma].entries[alpha].coeffs, entry.coeffs)


def test_fig1s_top_projection_holds_one_table_block():
    # one 2**20-entry block (8 MB) of the 257 x 21,120 table (43 MB) for
    # all four orders
    u = get_example("example1-1d")
    tracemalloc.start()
    try:
        legendre_trace_bundles(u, FIG1_ORDERS, (256,), FIG1_TOP_RULE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


class TestSobolevStep:
    def test_step_projection_refuses_an_empty_cell_grid(self):
        # zero cells is not one cell: cell_edges refuses it, so the public
        # step projection does too, before any node is read
        with pytest.raises(ValueError, match=r"cell counts must be >= 1, got \(0,\)"):
            cell_edges((0,), 1)
        with pytest.raises(ValueError, match=r"cell counts must be >= 1, got \(4, 0\)"):
            cell_edges((4, 0), 2)
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match="cell counts must be >= 1"):
            sobolev_project_step(u, (0,), (0,), QuadratureRule(nodes=4, panels=1))

    def test_order_zero_is_cell_average(self):
        # the mean of u over each cell, by quadrature on that cell alone
        u = get_example("example1-1d")
        qk = sobolev_project_step(u, (0,), (8,), STEP_RULE)
        got = extract_traces_poly(qk, (0,)).entries[(0,)]
        edges = np.linspace(-1.0, 1.0, 9)
        means = [integrate(u, HyperRect((a,), (b,)), rule_for(u)) / (b - a)
                 for a, b in zip(edges[:-1], edges[1:])]
        assert got.degree == (0,)
        assert np.allclose(got.coeffs.reshape(-1), means, rtol=1e-12, atol=1e-15)

    def test_exact_recovery_of_example2(self):
        w = get_example("example2-2d")
        qk = sobolev_project_step(w, (3, 3), (4, 4), STEP_RULE)
        rule = rule_for(w, extra_splits=cell_edges((4, 4), 2))
        assert l2_error(w, qk, w.domain, rule) <= 1e-12

    def test_degree_cap_is_gamma(self):
        u = get_example("example1-1d")
        qk = sobolev_project_step(u, (3,), (8,), STEP_RULE)
        assert qk.degree == (3,)

    def test_commutation_with_trace_extraction(self):
        u = get_example("example1-1d")
        gamma, cells = (3,), (8,)
        qk = sobolev_project_step(u, gamma, cells, STEP_RULE)
        bundle = extract_traces_poly(qk, gamma)
        rule = rule_for(u, extra_splits=cell_edges(cells, 1))
        top_trace = AnalyticFunction(u.domain, (0,), {(0,): u.derivatives[(3,)]},
                                     u.breakpoints, u.singular_points)
        top = sobolev_project_step(top_trace, (0,), cells, rule)
        assert coeff_distance(bundle.entries[(3,)], top) <= 1e-10

    def test_single_cell_reconstruction_formula(self):
        # K=1, gamma=delta: Taylor-like sum of exact corner derivatives plus
        # the mean of the top derivative lifted through the Volterra kernel.
        # For the quintic target the top-derivative mean is exactly 2/3.
        u = get_example("example1-1d")
        q1 = sobolev_project_step(u, (5,), (1,), STEP_RULE)
        mean_top = 2.0 / 3.0
        xs = np.linspace(-1, 1, 11)

        def oracle(x):
            total = mean_top * (x + 1.0) ** 5 / math.factorial(5)
            for k in range(5):
                total += u.derivatives[(k,)](-1.0) * (x + 1.0) ** k / math.factorial(k)
            return total

        for x in xs:
            assert q1(x) == pytest.approx(oracle(x), rel=1e-10, abs=1e-10)
