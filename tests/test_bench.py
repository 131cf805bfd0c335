import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from sobrecon import bench, projection
from sobrecon.analytic import AnalyticFunction
from sobrecon.bench import (
    FIGURES,
    SweepResult,
    approximant,
    check_figure_params,
    error_norms,
    figure_criteria,
    fit_slope,
    norm_rule,
    run_sweep,
    sweep_point,
)
from sobrecon.core import HyperRect, multiindex_range
from sobrecon.piecewise import PiecewisePoly, coeff_distance
from sobrecon.projection import cell_edges, sobolev_project_step
from sobrecon.quadrature import QuadratureRule, error_components, grid_quadrature, rule_for
from sobrecon.targets import get_example


def synthetic_result(params, errors):
    n = len(params)
    return SweepResult(list(params), list(errors), list(errors), list(errors),
                       [0.0] * n)


class TestFitSlope:
    def test_exact_power_law(self):
        params = [2, 4, 8, 16, 32]
        errors = [3.0 * p**-5.0 for p in params]
        r = synthetic_result(params, errors)
        assert fit_slope(r, "l2") == pytest.approx(-5.0, abs=1e-8)

    def test_window_selection(self):
        params = [2, 4, 8, 16, 32, 64]
        errors = [1.0, 1.0, 8.0**2 / 64, 16.0**2 / 256, 1.0 / 8, 1.0 / 32]
        r = synthetic_result(params, [p**-2.0 for p in params])
        assert fit_slope(r, "l2", (8, 64)) == pytest.approx(-2.0, abs=1e-8)

    def test_rejects_small_window(self):
        r = synthetic_result([2, 4, 8], [1, 1, 1])
        with pytest.raises(ValueError, match="need >= 3"):
            fit_slope(r, "l2", (4, 8))

    def test_rejects_zero_errors(self):
        r = synthetic_result([2, 4, 8], [1.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="zero/invalid"):
            fit_slope(r, "l2")

    def test_unknown_norm(self):
        r = synthetic_result([2, 4, 8], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="unknown norm"):
            fit_slope(r, "energy")


class TestSweep:
    def test_polynomial_reproduction_gives_zero_error(self):
        u = get_example("poly-random", seed=11, ndim=1, delta=(2,), degree_margin=1)
        l2, s, w, dt = sweep_point(u, "legendre", (0,), 8)
        assert l2 <= 1e-12
        assert dt >= 0.0

    def test_step_sweep_l2_halves_per_doubling(self):
        u = get_example("example1-1d")
        r = run_sweep(u, "step", [(0,)], [8, 16, 32, 64])[(0,)]
        for a, b in zip(r.l2[:-1], r.l2[1:]):
            assert b == pytest.approx(a / 2, rel=0.05)

    def test_1d_w_norm_equals_s_norm(self):
        u = get_example("example1-1d")
        r = run_sweep(u, "step", [(1,)], [4, 8, 16])[(1,)]
        assert np.allclose(r.s, r.w, rtol=1e-13)

    def test_monotone_l2_trend(self):
        u = get_example("example1-1d")
        r = run_sweep(u, "legendre", [(5,)], [2, 4, 8, 16, 32])[(5,)]
        # no uptick beyond 5% and an overall drop below a tenth
        assert all(b <= a * 1.05 for a, b in zip(r.l2[:-1], r.l2[1:]))
        assert r.l2[-1] < 0.1 * r.l2[0]

    def test_rejects_unsorted_params(self):
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match="increase strictly"):
            run_sweep(u, "step", [(0,)], [8, 4])

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError, match="at least one"):
            run_sweep(get_example("example1-1d"), "step", [(0,)], [])

    def test_failures_recorded_and_sweep_continues(self):
        u = get_example("example1-1d")
        r = run_sweep(u, "step", [(0,)], [2, 4, 8])[(0,)]
        assert not r.failures
        # a target whose evaluator raises fails inside every point
        def broken(x):
            raise ValueError("evaluator failed")
        bad = run_sweep(dataclasses.replace(u, derivatives={(k,): broken for k in range(6)}),
                        "step", [(0,)], [2, 4])[(0,)]
        assert len(bad.failures) == 2
        assert all(math.isnan(v) for v in bad.l2)
        assert all(msg.startswith("ValueError: ") for _, msg in bad.failures)

    def test_order_above_smoothness_refused_before_any_point(self):
        # no point could run, so the sweep refuses instead of recording
        # one failure per point
        with pytest.raises(ValueError, match=r"projection order \(6,\) exceeds smoothness"):
            run_sweep(get_example("example1-1d"), "step", [(6,)], [2, 4])

    def test_piecewise_constant_target_gets_a_two_node_rule(self):
        # deg u = deg approx = 0 would ask for a 1-node rule, which no
        # QuadratureRule takes; 2 nodes integrate the constants exactly
        pw = PiecewisePoly.from_cell_values(HyperRect.cube(1), [[0.0]], [1.0, -2.0])
        u = AnalyticFunction(HyperRect.cube(1), (0,), {(0,): pw},
                             breakpoints=((0.0,),), piece_degree=(0,))
        r = run_sweep(u, "step", [(0,)], [1, 2, 4])[(0,)]
        assert not r.failures
        assert r.l2[0] == pytest.approx(math.sqrt(4.5))
        assert r.l2[1] <= 1e-15 and r.l2[2] <= 1e-15

    @pytest.mark.parametrize("method, params, match", [
        ("bogus-method", [2, 4], "unknown method"),
        ("step", [0, 2, 4], r"step sweep needs parameters >= 1, got \[0\]"),
        ("legendre", [-1, 2, 4], r"legendre sweep needs parameters >= 0, got \[-1\]"),
    ])
    def test_refuses_points_no_approximant_takes(self, method, params, match):
        # refused before any point runs, not recorded as failed points
        u = get_example("example1-1d")
        with pytest.raises(ValueError, match=match):
            run_sweep(u, method, [(0,)], params)
        with pytest.raises(ValueError, match=match):
            approximant(u, method, (0,), params[0])

    @pytest.mark.parametrize("method, param", [("legendre", 0), ("step", 1)])
    def test_least_parameter_runs(self, method, param):
        r = run_sweep(get_example("example1-1d"), method, [(0,)], [param, 2])[(0,)]
        assert not r.failures


def rows(result: SweepResult):
    """Everything a sweep records but its runtimes."""
    return result.params, result.l2, result.s, result.w, result.failures


class Interrupt(BaseException):
    """Escapes run_sweep, which records only Exception as a point failure."""


class TestSweepByParameter:
    """run_sweep runs every order at one parameter before the next, and the
    orders share each weighted projection table for that parameter only."""

    @pytest.mark.parametrize("method", ["legendre", "step"])
    @pytest.mark.parametrize("name, orders", [
        ("example1-1d", [(0,), (1,), (3,), (5,)]),
        ("example2-2d", [(0, 0), (1, 1), (2, 2), (3, 3)]),
    ])
    def test_each_order_matches_its_own_sweep(self, name, orders, method):
        u = get_example(name)
        params = [2, 4, 8]
        together = run_sweep(u, method, orders, params)
        assert list(together) == orders
        for g in orders:
            assert rows(together[g]) == rows(run_sweep(u, method, [g], params)[g])
            assert not together[g].failures

    @pytest.mark.parametrize("figure, basis, built", [
        ("fig1", "legendre_values", [8, 16]),
        ("fig2", "step_values", [8, 16]),
        # both axes of the 2-D cube: every trace with an active axis reads it
        ("fig3", "legendre_values", [8, 8, 16, 16]),
        ("fig4", "step_values", [8, 8, 16, 16]),
    ])
    def test_one_table_per_axis_and_parameter(self, figure, basis, built, monkeypatch):
        preset = FIGURES[figure]
        sizes, real = [], getattr(projection, basis)

        def counted(size, x):
            sizes.append(size)
            return real(size, x)

        monkeypatch.setattr(projection, basis, counted)
        sweeps = run_sweep(get_example(preset["example"]), preset["method"],
                           preset["gammas"], [8, 16])
        assert not any(r.failures for r in sweeps.values())
        assert sizes == built

    @pytest.mark.parametrize("method, basis", [
        ("legendre", "legendre_values"), ("step", "step_values")])
    @pytest.mark.parametrize("fail", [None, RuntimeError, Interrupt])
    def test_no_table_outlives_its_parameter(self, method, basis, fail, monkeypatch):
        refs, alive_at_build, real = [], [], getattr(projection, basis)

        def tracked(size, x):
            alive_at_build.append(sum(r() is not None for r in refs))
            table = real(size, x)
            refs.append(weakref.ref(table))
            return table

        monkeypatch.setattr(projection, basis, tracked)
        if fail is not None:
            def fail_after_projecting(*args):
                raise fail("norms failed")
            monkeypatch.setattr(bench, "error_norms", fail_after_projecting)
        u = get_example("example1-1d")
        if fail is Interrupt:
            with pytest.raises(Interrupt):
                run_sweep(u, method, [(0,), (3,)], [4, 8, 16])
            assert len(refs) == 1
        else:
            sweeps = run_sweep(u, method, [(0,), (3,)], [4, 8, 16])
            failed = 0 if fail is None else 3
            assert [len(r.failures) for r in sweeps.values()] == [failed, failed]
            assert alive_at_build == [0, 0, 0]
        assert all(r() is None for r in refs)

    def test_projection_outside_a_sweep_keeps_no_table(self, monkeypatch):
        refs, real = [], projection.legendre_values

        def tracked(size, x):
            table = real(size, x)
            refs.append(weakref.ref(table))
            return table

        monkeypatch.setattr(projection, "legendre_values", tracked)
        approximant(get_example("example2-2d"), "legendre", (2, 2), 8)
        assert len(refs) == 2  # one per axis, shared by the traces
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("orders, match", [
        ((0,), r"must be a sequence such as \(0,\), got \[0\]"),
        ([(0,), 1], r"must be a sequence such as \(0,\), got \[1\]"),
        ([], "at least one projection order"),
        ([(0,), (6,)], r"projection order \(6,\) exceeds smoothness"),
        ([(0, 0)], "expected 1 entries"),
    ])
    def test_refuses_orders_before_any_point(self, orders, match, monkeypatch):
        def no_point(*args):
            raise AssertionError("a point ran")
        monkeypatch.setattr(bench, "sweep_point", no_point)
        with pytest.raises(ValueError, match=match):
            run_sweep(get_example("example1-1d"), "step", orders, [2, 4])


class TestDegreeSizedNormRule:
    """Targets that declare `piece_degree` get error norms from one Gauss
    panel per cell with max(deg u, deg approx) + 1 nodes: exact up to
    rounding, so refining the rule must not move them."""

    def test_declarations(self):
        assert get_example("example1-1d").piece_degree is None  # D^5 is singular
        assert get_example("example2-2d").piece_degree == (3, 3)
        with pytest.raises(ValueError, match="expected 1 entries"):
            AnalyticFunction(HyperRect.cube(1), (0,), {(0,): lambda x: x},
                             piece_degree=(1, 1))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_random_polynomial_declares_its_degree(self, seed, ndim):
        u = get_example("poly-random", seed=seed, ndim=ndim, delta=(2,) * ndim)
        p = u.derivatives[(0,) * ndim]
        assert np.any(p.mixed_derivative(u.piece_degree).coeffs)
        for axis in range(ndim):
            over = tuple(d + 1 if i == axis else 0 for i, d in enumerate(u.piece_degree))
            assert not np.any(p.mixed_derivative(over).coeffs)

    @pytest.mark.parametrize("method, gamma, param", [
        ("legendre", (3, 3), 32), ("legendre", (0, 0), 32), ("step", (2, 2), 64)])
    def test_matches_finer_and_flat_rules(self, method, gamma, param):
        u = get_example("example2-2d")
        approx = approximant(u, method, gamma, param)
        rule = norm_rule(u, approx)
        edges = cell_edges((param,) * 2, 2) if method == "step" else None
        flat = rule_for(u, QuadratureRule(panels=16), extra_splits=edges)
        axis_nodes = [len(grid_quadrature(u.domain, r)[0][0]) for r in (rule, flat)]
        assert axis_nodes[0] < axis_nodes[1]
        got = error_norms(u, approx, rule)
        finer = dataclasses.replace(rule, nodes=rule.nodes + 8)
        np.testing.assert_allclose(got, error_norms(u, approx, finer),
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(got, error_norms(u, approx, flat),
                                   rtol=1e-10, atol=0)

    def test_isotropic_norm_reads_the_simplex(self):
        # S sums the 16 components alpha <= (3, 3); W only the 10 with
        # |alpha|_1 <= 3
        u = get_example("example2-2d")
        approx = approximant(u, "step", (1, 1), 8)
        rule = norm_rule(u, approx)
        comp = error_components(u, approx, multiindex_range((3, 3)), u.domain, rule)
        simplex = [a for a in comp if sum(a) <= 3]
        assert len(comp) == 16 and len(simplex) == 10
        l2, s, w = error_norms(u, approx, rule)
        assert s == pytest.approx(math.sqrt(sum(comp.values())), rel=1e-14)
        assert w == pytest.approx(math.sqrt(sum(comp[a] for a in simplex)), rel=1e-14)
        assert w < s

    @pytest.mark.parametrize("name, gamma, param", [
        ("example1-1d", (5,), 64), ("example2-2d", (3, 3), 64), ("example2-2d", (1, 1), 8)])
    def test_rule_splits_at_the_approximant_cells(self, name, gamma, param):
        """The norm rule reads its splits from the approximant: the step
        approximant's breaks are its cell edges, a Legendre series has none."""
        u = get_example(name)
        nd = u.domain.ndim
        for method, edges in (("step", cell_edges((param,) * nd, nd)), ("legendre", None)):
            approx = approximant(u, method, gamma, param)
            if u.piece_degree is None:
                want = rule_for(u, QuadratureRule(panels=32 if nd == 1 else 16),
                                extra_splits=edges)
            else:
                nodes = max(max(u.piece_degree), max(approx.degree)) + 1
                want = rule_for(u, QuadratureRule(nodes=nodes, panels=1),
                                extra_splits=edges)
            assert norm_rule(u, approx) == want


class TestDegreeSizedStepRule:
    """The step projection of a target that declares `piece_degree` reads
    one Gauss panel per cell with the fewest nodes exact to that degree:
    its cell averages match the flat 16-node rule's up to rounding."""

    FLAT = QuadratureRule(nodes=16, panels=4)

    def test_exact_nodes(self):
        assert [bench._exact_nodes(q) for q in range(8)] == [2, 2, 2, 2, 3, 3, 4, 4]

    @pytest.mark.parametrize("gamma", [(0, 0), (2, 2), (3, 3)])
    @pytest.mark.parametrize("param", [1, 3, 5, 64])  # odd K: +-0.5 fall inside cells
    def test_matches_the_flat_rule_on_example2(self, gamma, param):
        u = get_example("example2-2d")
        want = sobolev_project_step(u, gamma, (param, param), self.FLAT)
        assert coeff_distance(approximant(u, "step", gamma, param), want) <= 1e-13

    def test_matches_the_flat_rule_on_a_random_quartic(self):
        u = get_example("poly-random", seed=0, ndim=1, delta=(2,))
        assert u.piece_degree == (4,)
        want = sobolev_project_step(u, (0,), (8,), self.FLAT)
        assert coeff_distance(approximant(u, "step", (0,), 8), want) <= 1e-13
        # one node fewer than exact to degree 4 misses the quartic term
        short = sobolev_project_step(u, (0,), (8,), QuadratureRule(nodes=2, panels=1))
        assert coeff_distance(short, want) > 1e-8

    @pytest.mark.parametrize("figure, read", [
        ("fig2", [(8, 1376), (16, 1504)]),  # example1-1d declares no piece_degree
        ("fig4", [(8, 16), (8, 16), (16, 32), (16, 32)]),
    ])
    def test_grid_per_axis(self, figure, read, monkeypatch):
        preset, sizes, real = FIGURES[figure], [], projection.step_values

        def counted(size, x):
            sizes.append((size, len(x)))
            return real(size, x)

        monkeypatch.setattr(projection, "step_values", counted)
        run_sweep(get_example(preset["example"]), "step", preset["gammas"], [8, 16])
        assert sizes == read

    def test_peak_memory_at_fig4s_finest_grid(self):
        u = get_example("example2-2d")
        tracemalloc.start()
        try:
            approximant(u, "step", (3, 3), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6  # 10 MB on a 16-node rule: a 1024 x 1024 top trace


def test_csv_roundtrip(tmp_path):
    r = synthetic_result([2, 4, 8], [1.0, 0.25, 0.0625])
    path = tmp_path / "sweep.csv"
    r.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,l2_error,s_error,w_error,runtime_s"
    assert len(lines) == 4
    assert lines[1].startswith("2,1.0,")


#: Per figure and gamma, the (L2, S) rates of geometric synthetic errors p**rate.
RATES = {
    "fig1": {(0,): (-5.0, 1.5), (1,): (-5.0, -1.0), (3,): (-5.0, -1.0), (5,): (-4.0, -0.25)},
    "fig2": {(0,): (-1.0, 0.0), (1,): (-2.0, -0.1), (3,): (-2.0, -0.5), (5,): (-2.5, -0.5)},
    "fig3": {(0, 0): (-3.5, 1.0), (1, 1): (-3.0, 0.0), (2, 2): (-2.0, -0.5),
             (3, 3): (-3.0, 0.5)},
    "fig4": {(0, 0): (-1.0, 0.0), (1, 1): (-2.0, -1.0), (2, 2): (-3.0, -2.0),
             (3, 3): (-20.0, -10.0)},
}


def geometric_sweeps(figure):
    params = FIGURES[figure]["params"]
    return {g: SweepResult(list(params), [p**a for p in params], [p**b for p in params],
                           [p**b for p in params], [0.0] * len(params))
            for g, (a, b) in RATES[figure].items()}


class TestFigureCriteria:
    """Each figure's criteria lines, read from synthetic sweeps without
    running any point."""

    @pytest.mark.parametrize("figure, lines", [
        ("fig1", [
            "PASS fig1 L2 slope gamma=0 (slope -5.000, want -5 +- 0.5)",
            "FAIL fig1 L2 slope gamma=5 (slope -4.000, want -5 +- 0.5)",
            "PASS fig1 S slope gamma=5 (slope -0.250, want -0.25 +- 0.15)",
            "PASS fig1 S non-decreasing gamma=0 (last/first 1.45e+03, want >= 0.5)",
        ]),
        ("fig2", [
            "PASS fig2 L2 slope gamma=0 (slope -1.000, want -1 +- 0.3)",
            "PASS fig2 L2 slope gamma=1 (slope -2.000, want -2 +- 0.4)",
            "PASS fig2 L2 slope gamma=3 (slope -2.000, want -2 +- 0.4)",
            "FAIL fig2 L2 slope gamma=5 (slope -2.500, want -2 +- 0.4)",
            "PASS fig2 S decreasing gamma=5 (last/first 0.0884, want < 1)",
            "PASS fig2 S non-decreasing gamma=0 (last/first 1, want >= 0.5)",
            "PASS fig2 S non-decreasing gamma=1 (last/first 0.616, want >= 0.5)",
            "FAIL fig2 S non-decreasing gamma=3 (last/first 0.0884, want >= 0.5)",
        ]),
        ("fig3", [
            "PASS fig3 L2 slope gamma=(0, 0) (slope -3.500, want -3 +- 0.6)",
            "PASS fig3 L2 slope gamma=(1, 1) (slope -3.000, want -3 +- 0.6)",
            "FAIL fig3 L2 slope gamma=(2, 2) (slope -2.000, want -3 +- 0.6)",
            "PASS fig3 L2 slope gamma=(3, 3) (slope -3.000, want -3 +- 0.6)",
            "PASS fig3 S decreasing gamma=(2, 2) (last/first 0.25, want < 1)",
            "FAIL fig3 S decreasing gamma=(3, 3) (last/first 4, want < 1)",
            "PASS fig3 S non-decreasing gamma=(0, 0) (last/first 16, want >= 0.5)",
            "PASS fig3 S non-decreasing gamma=(1, 1) (last/first 1, want >= 0.5)",
        ]),
        ("fig4", [
            "PASS fig4 exact recovery at K=4 (L2) (error 9.09e-13, want <= 1e-12)",
            "FAIL fig4 exact recovery at K=4 (S) (error 9.54e-07, want <= 1e-12)",
        ]),
    ])
    def test_every_line(self, figure, lines):
        # perfbench compares each criteria line's text exactly
        assert [c.line() for c in figure_criteria(figure, geometric_sweeps(figure))] == lines

    @pytest.mark.parametrize("bad", [math.nan, 0.0])
    def test_unreadable_slope_row_fails_alone(self, bad):
        # a failed point (NaN) or a zero error in the window fails only the
        # slope rows that read it; every other row is still read
        sweeps = geometric_sweeps("fig1")
        at = sweeps[(5,)].params.index(64)
        sweeps[(5,)].l2[at] = sweeps[(5,)].s[at] = bad
        reason = "(window (16, 256) contains zero/invalid errors)"
        assert [c.line() for c in figure_criteria("fig1", sweeps)] == [
            "PASS fig1 L2 slope gamma=0 (slope -5.000, want -5 +- 0.5)",
            "FAIL fig1 L2 slope gamma=5 " + reason,
            "FAIL fig1 S slope gamma=5 " + reason,
            "PASS fig1 S non-decreasing gamma=0 (last/first 1.45e+03, want >= 0.5)",
        ]

    def test_zero_first_error_fails_its_ratio_row_alone(self):
        # last/first has no value when the first error reads 0
        sweeps = geometric_sweeps("fig1")
        sweeps[(0,)].s[0] = 0.0
        assert [c.line() for c in figure_criteria("fig1", sweeps)] == [
            "PASS fig1 L2 slope gamma=0 (slope -5.000, want -5 +- 0.5)",
            "FAIL fig1 L2 slope gamma=5 (slope -4.000, want -5 +- 0.5)",
            "PASS fig1 S slope gamma=5 (slope -0.250, want -0.25 +- 0.15)",
            "FAIL fig1 S non-decreasing gamma=0 (first error is 0, last/first is undefined)",
        ]

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_rows_are_well_formed(self, figure):
        preset = FIGURES[figure]
        for kind, gamma, norm, *arg in preset["criteria"]:
            assert kind in ("slope", "drop", "hold", "exact")
            assert norm in ("l2", "s")
            assert gamma in preset["gammas"]
            assert len(arg) == {"slope": 2, "exact": 1}.get(kind, 0)
            if kind == "slope":
                assert "window" in preset
        check_figure_params(figure, preset["params"])
