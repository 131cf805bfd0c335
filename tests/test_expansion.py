import functools
import operator

import numpy as np
import pytest

from sobrecon.analytic import AnalyticFunction
from sobrecon.core import HyperRect, face_spec, multiindex_range
from sobrecon.expansion import (
    PolyTraceBundle,
    apply_tensor,
    check_membership,
    extract_traces_poly,
    fund_int_pair,
    reconstruct,
    term_at_point,
)
from sobrecon.legseries import LegendreSeries
from sobrecon.piecewise import PiecewisePoly, coeff_distance
from sobrecon.projection import sobolev_project_legendre
from sobrecon.quadrature import QuadratureRule
from sobrecon.verify import (
    ROUNDTRIP_CONFIGS,
    random_domain,
    random_tensor_poly,
    random_trace_bundle,
)


def legendre_series(p: PiecewisePoly, nodes: int) -> LegendreSeries:
    """The Legendre series of a one-cell polynomial on the standard cube:
    its direct (order-zero) projection, exact up to rounding when a Gauss
    rule of `nodes` points per axis integrates p times the basis."""
    zero = (0,) * p.ndim
    u = AnalyticFunction(p.domain, zero, {zero: p})
    return sobolev_project_legendre(u, zero, p.degree, QuadratureRule(nodes=nodes, panels=1))


def abs_poly():
    return PiecewisePoly(
        HyperRect.cube(1), (np.array([0.0]),),
        np.array([[1.0, -1.0], [0.0, 1.0]]),
    )


class TestApplyTensor:
    def test_rejects_alpha_above_delta(self):
        with pytest.raises(ValueError):
            apply_tensor((3,), (2,), abs_poly())

    def test_volterra_on_constant(self):
        dom = HyperRect((0.0,), (1.0,))
        one = PiecewisePoly.constant(dom, 1.0)
        out = apply_tensor((2,), (2,), one)
        assert coeff_distance(out, PiecewisePoly.kernel(dom, 0, 2)) <= 1e-14  # s^2/2

    def test_multiplier_on_constant(self):
        dom = HyperRect((0.5,), (2.0,))
        c = PiecewisePoly.constant(dom, 3.0)
        out = apply_tensor((1,), (2,), c)
        for s in (0.5, 1.0, 2.0):
            assert out(s) == pytest.approx(3.0 * (s - 0.5))

    def test_identity(self):
        f = abs_poly()
        assert apply_tensor((0,), (0,), f) is f


class TestReconstruct:
    def test_monomial_from_top_trace(self):
        # delta=(2,1) on [0,1]^2, only trace D^(2,1) = 2: reconstructs x^2 y
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        mapping = {a: PiecewisePoly.constant(dom, 0.0) for a in multiindex_range((2, 1))}
        mapping[(2, 1)] = PiecewisePoly.constant(dom, 2.0)
        u = reconstruct(PolyTraceBundle((2, 1), mapping))
        target = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).antiderivative(1)
        assert coeff_distance(u, target) <= 1e-13

    def test_order_zero_is_identity(self):
        dom = HyperRect.cube(2)
        rng = np.random.default_rng(1)
        v = random_tensor_poly(rng, dom, (2, 2))
        out = reconstruct(PolyTraceBundle((0, 0), {(0, 0): v}))
        assert coeff_distance(out, v) <= 1e-15

    def test_incomplete_bundle_rejected(self):
        dom = HyperRect.cube(1)
        with pytest.raises(ValueError):
            PolyTraceBundle((1,), {(0,): PiecewisePoly.constant(dom, 1.0)})

    def test_trace_varying_on_inactive_axis_rejected(self):
        dom = HyperRect.cube(2)
        for good, bad in [
            (PiecewisePoly.constant(dom, 0.0), PiecewisePoly.kernel(dom, 0, 1)),
            (LegendreSeries(np.zeros((1, 1))), LegendreSeries(np.ones((2, 1)))),
        ]:  # bad varies along axis 0
            entries = {a: good for a in multiindex_range((1, 0))}
            entries[(0, 0)] = bad  # face (-1, 0): axis 0 inactive
            with pytest.raises(ValueError, match="inactive axis 0"):
                PolyTraceBundle((1, 0), entries)

    def test_legendre_traces_match_piecewise_traces(self):
        # the same operator on both trace representations
        rng = np.random.default_rng(11)
        order = (2, 1)
        dom = HyperRect.cube(2)
        entries = {}
        for alpha in multiindex_range(order):
            face = face_spec(alpha, order)
            degree = tuple(int(rng.integers(1, 5)) if b == 0 else 0 for b in face)
            entries[alpha] = random_tensor_poly(rng, dom, degree)
        from_poly = reconstruct(PolyTraceBundle(order, entries))
        from_series = reconstruct(PolyTraceBundle(order, {
            a: legendre_series(e, 5) for a, e in entries.items()}))
        assert isinstance(from_series, LegendreSeries)
        xs = np.linspace(-1, 1, 9)
        assert np.allclose(from_series.eval_grid([xs, xs]),
                           from_poly.eval_grid([xs, xs]), rtol=1e-10, atol=1e-10)


    @pytest.mark.parametrize("delta", [(2, 2), (1, 2, 1)])
    def test_matches_pairwise_sum_of_lifted_terms(self, delta):
        rng = np.random.default_rng(30 + len(delta))
        lattice = multiindex_range(delta)
        for trial in range(5):
            b = random_trace_bundle(rng, delta, random_domain(rng, len(delta)),
                                    breaks_per_axis=2)
            grids = {tuple(map(tuple, b.entries[a].breaks)) for a in lattice}
            assert len(grids) > 1  # the entries really have different break grids
            terms = [apply_tensor(a, delta, b.entries[a]) for a in lattice]
            pairwise = functools.reduce(operator.add, terms)
            assert coeff_distance(reconstruct(b), pairwise) <= 1e-14, trial


    @pytest.mark.parametrize("delta", [(2,), (3,), (2, 1), (1, 2), (1, 2, 1), (2, 1, 1)])
    def test_roundtrips_with_breaks_are_exact(self, delta):
        # entries are put on the union breaks before any lift, so extraction
        # gives each one back bit for bit, and a reconstruction is rebuilt
        # bit for bit from its own traces
        rng = np.random.default_rng(40 + sum(delta))
        for trial in range(40):
            b = random_trace_bundle(rng, delta, random_domain(rng, len(delta)),
                                    degree=int(rng.integers(0, 4)), breaks_per_axis=2)
            u = reconstruct(b)
            back = extract_traces_poly(u, delta)
            for alpha in multiindex_range(delta):
                assert coeff_distance(b.entries[alpha], back.entries[alpha]) == 0.0, (trial, alpha)
            assert coeff_distance(u, reconstruct(back)) == 0.0, trial

    @pytest.mark.parametrize("delta", [(1,), (2,), (3,), (5,)])
    def test_one_axis_equals_the_lattice_order_sum(self, delta):
        # in 1-D the pass sums the lifted terms in lattice order, bit for bit,
        # for both trace representations
        rng = np.random.default_rng(50 + delta[0])
        lattice = multiindex_range(delta)
        for trial in range(10):
            poly = random_trace_bundle(rng, delta, random_domain(rng, 1), breaks_per_axis=3)
            series = PolyTraceBundle(delta, {a: LegendreSeries(rng.standard_normal(
                rng.integers(2, 7) if a == delta else 1)) for a in lattice})
            for b in (poly, series):
                terms = [apply_tensor(a, delta, b.entries[a]) for a in lattice]
                want = functools.reduce(operator.add, terms)
                assert np.array_equal(reconstruct(b).coeffs, want.coeffs), (trial, type(want))


class TestBundleNorm:
    def test_high_degree_face_entry_matches_parseval(self):
        # the only nonzero trace lives on the face z = -1 of [-1, 1]^3; its
        # L2 norm there is |c| / sqrt(2), c its orthonormal Legendre coefficients
        order = (1, 1, 1)
        cube = HyperRect.cube(3)
        for seed in range(5):
            entries = {a: PiecewisePoly.constant(cube, 0.0) for a in multiindex_range(order)}
            e = random_tensor_poly(np.random.default_rng(seed), cube, (6, 5, 0))
            entries[(1, 1, 0)] = e
            c = legendre_series(e, 7).coeffs
            norm = PolyTraceBundle(order, entries).norm()
            assert norm == pytest.approx(np.linalg.norm(c) / np.sqrt(2.0), rel=1e-10), seed

    def test_legendre_entries_rejected(self):
        bundle = PolyTraceBundle((1,), {(0,): LegendreSeries(np.ones(1)),
                                        (1,): LegendreSeries(np.ones(1))})
        with pytest.raises(ValueError, match="needs PiecewisePoly entries, got LegendreSeries"):
            bundle.norm()


class TestBundleTypes:
    @pytest.mark.parametrize("swap", [False, True])
    def test_mixed_entry_types_rejected(self, swap):
        pieces = [PiecewisePoly.constant(HyperRect.cube(1), 1.0),
                  LegendreSeries(np.ones(1))]
        if swap:
            pieces.reverse()
        with pytest.raises(ValueError, match="mix types: LegendreSeries, PiecewisePoly"):
            PolyTraceBundle((1,), {(0,): pieces[0], (1,): pieces[1]})

    def test_order_must_match_entry_dimension(self):
        square = PiecewisePoly.constant(HyperRect.cube(2), 1.0)
        with pytest.raises(ValueError, match=r"order \(1,\) has 1 entries but the entries are 2-D"):
            PolyTraceBundle((1,), {(0,): square, (1,): square})


class TestUncheckedBundles:
    # extract_traces_poly, scaled and + build their bundles without the
    # constructor's checks; rebuilt through it, each must pass
    def test_pass_the_public_validation(self):
        rng = np.random.default_rng(5)
        for ndim, delta in ROUNDTRIP_CONFIGS:
            dom = random_domain(rng, ndim)
            bundle = random_trace_bundle(rng, delta, dom)
            u = random_tensor_poly(rng, dom, tuple(d + 2 for d in delta))
            for built in (extract_traces_poly(u, delta), bundle.scaled(-1.5),
                          bundle + bundle.scaled(0.5)):
                again = PolyTraceBundle(built.order, built.entries)
                assert type(built.order) is tuple and built.order == again.order
                assert type(built.entries) is dict and built.entries == again.entries


def _square_bundle_entries(bad_axis0: bool):
    dom = HyperRect.cube(2)
    entries = {a: PiecewisePoly.constant(dom, 0.0) for a in multiindex_range((1, 0))}
    if bad_axis0:
        entries[(0, 0)] = PiecewisePoly.kernel(dom, 0, 1)  # face (-1, 0): axis 0 inactive
    return entries


@pytest.mark.parametrize("build, match", [
    (lambda: apply_tensor((2, 0), (1, 1), PiecewisePoly.constant(HyperRect.cube(2), 1.0)),
     r"alpha=\(2, 0\) is not <= delta=\(1, 1\)"),
    (lambda: PolyTraceBundle((1, 1), _square_bundle_entries(False)),
     "do not cover the lattice"),
    (lambda: PolyTraceBundle((1,), {(0,): PiecewisePoly.constant(HyperRect.cube(1), 1.0),
                                    (1,): LegendreSeries(np.ones(1))}),
     "mix types"),
    (lambda: PolyTraceBundle((1, 0), _square_bundle_entries(True)), "inactive axis 0"),
    (lambda: PiecewisePoly(HyperRect.cube(1), (np.array([0.5, 0.0]),), np.zeros((3, 2))),
     "must increase strictly"),
    (lambda: PiecewisePoly(HyperRect.cube(1), (np.array([0.0]),), np.zeros((3, 2))),
     "3 cell rows for 1 breaks"),
], ids=["apply_tensor-alpha", "bundle-lattice", "bundle-types", "bundle-inactive-axis",
        "poly-breaks", "poly-coeff-shape"])
def test_public_refusals_still_raise(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class TestExtract:
    def test_monomial_traces(self):
        dom = HyperRect((0.0, 0.0), (1.0, 1.0))
        u = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).antiderivative(1)
        bundle = extract_traces_poly(u, (2, 1))
        for alpha in multiindex_range((2, 1)):
            e = bundle.entries[alpha]
            expected = 2.0 if alpha == (2, 1) else 0.0
            assert np.allclose(e.coeffs.reshape(-1), [expected] if e.coeffs.size == 1
                               else np.full(e.coeffs.size, expected))

    def test_abs_value_traces(self):
        bundle = extract_traces_poly(abs_poly(), (1,))
        v0 = bundle.entries[(0,)]
        assert float(np.squeeze(v0.coeffs)) == pytest.approx(1.0)
        v1 = bundle.entries[(1,)]
        assert v1(-0.5) == pytest.approx(-1.0)
        assert v1(0.5) == pytest.approx(1.0)

    def test_smoothness_admission(self):
        u = abs_poly()
        with pytest.raises(ValueError, match="order-1 derivative along axis 0"):
            extract_traces_poly(u, (2,))
        check_membership(u, (1,))  # |x| is fine at order 1


class TestRoundtrips:
    @pytest.mark.parametrize("ndim,delta", [(1, (2,)), (2, (2, 1)), (3, (1, 2, 1))])
    def test_forward(self, ndim, delta):
        rng = np.random.default_rng(101 + ndim)
        for _ in range(10):
            dom = random_domain(rng, ndim)
            u = random_tensor_poly(rng, dom, tuple(d + 2 for d in delta))
            again = reconstruct(extract_traces_poly(u, delta))
            assert coeff_distance(u, again) <= 1e-10

    @pytest.mark.parametrize("ndim,delta", [(1, (3,)), (2, (2, 2))])
    def test_inverse(self, ndim, delta):
        rng = np.random.default_rng(7 + ndim)
        for _ in range(10):
            dom = random_domain(rng, ndim)
            b = random_trace_bundle(rng, delta, dom)
            back = extract_traces_poly(reconstruct(b), delta)
            for alpha in multiindex_range(delta):
                assert coeff_distance(b.entries[alpha], back.entries[alpha]) <= 1e-10


class TestFundInt:
    def test_multiplier_case(self):
        dom = HyperRect((0.0,), (1.0,))
        one = PiecewisePoly.constant(dom, 1.0)
        lhs, rhs = fund_int_pair(0, 1, one)
        assert coeff_distance(lhs, rhs) <= 1e-14
        assert lhs(0.7) == pytest.approx(0.7)  # both sides are s

    def test_volterra_case(self):
        dom = HyperRect((0.0,), (1.0,))
        one = PiecewisePoly.constant(dom, 1.0)
        lhs, rhs = fund_int_pair(1, 1, one)
        assert coeff_distance(lhs, rhs) <= 1e-14
        assert lhs(0.8) == pytest.approx(0.32)  # s^2/2

    def test_p1_input(self):
        dom = HyperRect((0.0,), (1.0,))
        p1 = PiecewisePoly.kernel(dom, 0, 1)
        lhs, rhs = fund_int_pair(1, 1, p1)
        assert coeff_distance(lhs, rhs) <= 1e-14
        assert lhs(1.0) == pytest.approx(1 / 6)  # s^3/6


def test_term_table_sums_to_value():
    # u(x,y) = x^2 y at (1,1): only the top summand contributes, value 1
    dom = HyperRect((0.0, 0.0), (1.0, 1.0))
    u = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).antiderivative(1)
    delta = (2, 1)
    total = 0.0
    for alpha in multiindex_range(delta):
        trace = u.boundary_trace(alpha, delta)
        total += term_at_point(trace, (1.0, 1.0), QuadratureRule())
    assert total == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("delta", [(3,), (2, 1), (1, 2, 1)])
@pytest.mark.parametrize("seed", range(5))
def test_each_term_matches_its_lifted_trace(delta, seed):
    # term by term, so errors that cancel in the sum still show
    rng = np.random.default_rng(seed)
    domain = random_domain(rng, len(delta))
    u = random_tensor_poly(rng, domain, tuple(d + 2 for d in delta))
    point = tuple(rng.uniform(domain.lo, domain.hi))
    bundle = extract_traces_poly(u, delta)
    rule = QuadratureRule(nodes=8, panels=1)  # exact for these low-degree integrands
    for alpha in multiindex_range(delta):
        got = term_at_point(u.boundary_trace(alpha, delta), point, rule)
        want = apply_tensor(alpha, delta, bundle.entries[alpha])(*point)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), alpha
