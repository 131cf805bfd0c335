"""Seeded property suites: roundtrip, identity, and optimality checks.

These are the machine-checkable consequences of the reconstruction theory:
trace extraction and reconstruction invert each other exactly on piecewise
polynomials, the one-axis integration identity holds coefficientwise, the
fundamental-theorem special case round-trips, reconstruction is linear with
an empirically bounded norm ratio, and the projections cannot be improved
by small perturbations inside their subspaces.  Every per-axis lift is an
antiderivative, so the "fund-int identity" line checks that k folds then
one more equal k+1 folds.  The kernel identity (k folds of a constant are
the product with z^k/k!) is checked in tests/test_piecewise.py and
tests/test_legseries.py, and by the Fraction reference of
tests/test_exact_reference.py, which keeps its own kernel product.

Each printed line is one `_check` call, in print order inside its suite:
one measurement per trial, reduced by `np.max` (so a NaN fails the line)
against a bound defined once below with its reason.  The CLI and the test
suite share these CheckResults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projection
from .core import HyperRect, as_multiindex, face_spec, multiindex_range
from .expansion import (
    PolyTraceBundle,
    extract_traces_poly,
    fund_int_pair,
    reconstruct,
)
from .legseries import LegendreSeries
from .piecewise import PiecewisePoly, coeff_distance
from .quadrature import QuadratureRule, dc_error, l2_error, rule_for, sobolev_error
from .targets import get_example

ROUNDTRIP_CONFIGS = (
    (1, (2,)),
    (1, (3,)),
    (2, (2, 1)),
    (2, (3, 3)),
    (3, (1, 2, 1)),
    (3, (2, 1, 3)),
)

# Extraction, reconstruction and the identities are exact polynomial algebra:
# rounding reads below 1e-15 relative at seeds 0-19, a wrong term reads O(1).
EXACT = 1e-10
# The norm equivalence bounds ||recon||_S by C ||b||; C reads 2.5 to 5 on these
# domains (sides 0.5 to 2.5) at seeds 0-19, so only a blow-up passes 1e3.
NORM_RATIO = 1e3
# An optimal projection lets no nudge lower its error; 1e-12 is rounding in
# a quadrature error of order 1.
SLACK = 1e-12
EPSILONS = (-1e-1, -1e-3, 1e-3, 1e-1)
COEFF_ERR = "max coeff err {:.2e}"
IMPROVEMENT = "max improvement {:.2e}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f" ({self.detail})" if self.detail else "")


# ------------------------------------------------------------- random inputs


def random_domain(rng: np.random.Generator, ndim: int) -> HyperRect:
    lo = rng.uniform(-2.0, 0.5, size=ndim)
    hi = lo + rng.uniform(0.5, 2.5, size=ndim)
    return HyperRect(tuple(lo), tuple(hi))


def random_tensor_poly(rng: np.random.Generator, domain: HyperRect, degrees,
                       breaks_per_axis=None) -> PiecewisePoly:
    nd = domain.ndim
    degrees = as_multiindex(degrees, ndim=nd)
    breaks_per_axis = breaks_per_axis or (0,) * nd
    breaks = []
    for i, n in enumerate(breaks_per_axis):
        if n:
            pts = np.sort(rng.uniform(domain.lo[i], domain.hi[i], size=n))
        else:
            pts = np.array([])
        breaks.append(pts)
    cells = tuple(n + 1 for n in breaks_per_axis)
    coeffs = rng.standard_normal(cells + tuple(d + 1 for d in degrees))
    return PiecewisePoly(domain, tuple(breaks), coeffs)


def random_trace_bundle(rng: np.random.Generator, order, domain: HyperRect,
                        degree: int = 2, breaks_per_axis: int = 1) -> PolyTraceBundle:
    """Random bundle: each trace varies (with optional breaks) only on the
    active axes of its face."""
    order = as_multiindex(order)
    entries = {}
    for alpha in multiindex_range(order):
        face = face_spec(alpha, order)
        degs = tuple(degree if b == 0 else 0 for b in face)
        nbr = tuple(
            (int(rng.integers(0, breaks_per_axis + 1)) if b == 0 else 0) for b in face
        )
        entries[alpha] = random_tensor_poly(rng, domain, degs, nbr)
    return PolyTraceBundle(order, entries)


def random_legendre_poly(rng: np.random.Generator, degree) -> LegendreSeries:
    """Random coefficient tensor, used as a perturbation direction."""
    degree = as_multiindex(degree)
    return LegendreSeries(rng.standard_normal(tuple(d + 1 for d in degree)))


# ------------------------------------------------------------------- checks


def _check(name: str, values, bound: float, detail: str) -> CheckResult:
    """One printed line: the largest of `values` (one per trial) against
    `bound`.  `np.max` carries a NaN through, so a NaN fails the line."""
    worst = np.max(list(values))
    return CheckResult(name, bool(worst <= bound), detail.format(worst))


def _roundtrip_errors(rng: np.random.Generator, ndim: int, delta) -> tuple[float, float]:
    """Both roundtrips of one trial on one domain draw: the forward error and
    the worst trace error of the inverse."""
    domain = random_domain(rng, ndim)
    u = random_tensor_poly(rng, domain, tuple(d + 2 for d in delta))
    forward = coeff_distance(u, reconstruct(extract_traces_poly(u, delta)))
    bundle = random_trace_bundle(rng, delta, domain)
    back = extract_traces_poly(reconstruct(bundle), delta)
    return forward, np.max([coeff_distance(bundle.entries[alpha], back.entries[alpha])
                            for alpha in multiindex_range(delta)])


def roundtrip_suite(seed: int = 42, trials: int = 100) -> list[CheckResult]:
    """Forward (function -> traces -> function) and inverse (bundle ->
    function -> bundle) roundtrips, exact to EXACT, over all configurations."""
    results = []
    for ndim, delta in ROUNDTRIP_CONFIGS:
        rng = np.random.default_rng(seed + 17 * ndim + sum(delta))
        forward, inverse = zip(*(_roundtrip_errors(rng, ndim, delta) for _ in range(trials)))
        results.append(_check(f"roundtrip-forward N={ndim} delta={delta}",
                              forward, EXACT, COEFF_ERR))
        results.append(_check(f"roundtrip-inverse N={ndim} delta={delta}",
                              inverse, EXACT, COEFF_ERR))
    return results


def identity_suite(seed: int = 42, trials: int = 20) -> list[CheckResult]:
    """One-axis integration identity, fundamental-theorem roundtrip,
    linearity, and the empirical norm-ratio bound of reconstruction."""
    rng = np.random.default_rng(seed)

    def fund_int_error(k, top):
        # Inputs respect the identity's premise: below top order the trace
        # lives on the pinned face, i.e. is constant along the operator axis;
        # only the top-order trace varies (and may jump) along it.
        ndim = int(rng.integers(1, 3))
        domain = random_domain(rng, ndim)
        at_top = k == top and top > 0
        degs = (3 if at_top else 0,) + (2,) * (ndim - 1)
        nbr = (int(rng.integers(0, 3)) if at_top else 0,) + tuple(
            int(rng.integers(0, 2)) for _ in range(ndim - 1))
        v = random_tensor_poly(rng, domain, degs, nbr)
        return coeff_distance(*fund_int_pair(k, top, v))

    def fundamental_theorem_error(ndim, axis):
        delta = tuple(1 if i == axis else 0 for i in range(ndim))
        domain = random_domain(rng, ndim)
        nbr = tuple(0 if i == axis else int(rng.integers(0, 3)) for i in range(ndim))
        u = random_tensor_poly(rng, domain, (2,) * ndim, nbr)
        return coeff_distance(u, reconstruct(extract_traces_poly(u, delta)))

    def linearity_error(ndim, delta):
        domain = random_domain(rng, ndim)
        b1 = random_trace_bundle(rng, delta, domain)
        b2 = random_trace_bundle(rng, delta, domain)
        lam = float(rng.uniform(-2, 2))
        return coeff_distance(reconstruct(b1 + b2.scaled(lam)),
                              reconstruct(b1) + lam * reconstruct(b2))

    def norm_ratio(ndim, delta):
        domain = random_domain(rng, ndim)
        b = random_trace_bundle(rng, delta, domain)
        rule = QuadratureRule(nodes=8, panels=4)
        return sobolev_error(reconstruct(b), None, delta, domain, rule) / b.norm()

    def trace_norm_error(ndim, delta):
        domain = random_domain(rng, ndim)
        b = random_trace_bundle(rng, delta, domain)
        exact = b.norm()
        got = extract_traces_poly(reconstruct(b), delta).norm()
        return abs(got - exact) / max(exact, 1.0)

    return [
        _check("fund-int identity (k <= top <= 4)",
               (fund_int_error(k, top) for top in range(5) for k in range(top + 1)
                for _ in range(trials)), EXACT, COEFF_ERR),
        _check("fundamental-theorem roundtrip (delta = e_k)",
               (fundamental_theorem_error(ndim, axis) for ndim in (1, 2, 3)
                for axis in range(ndim) for _ in range(trials)), EXACT, COEFF_ERR),
        _check("reconstruction linearity",
               (linearity_error(*case) for case in ((1, (2,)), (2, (2, 1)))
                for _ in range(trials)), EXACT, COEFF_ERR),
        _check("norm ratio empirically bounded",
               (norm_ratio(*case) for case in ((1, (3,)), (2, (2, 2)))
                for _ in range(trials)), NORM_RATIO, "max ||recon||_S / ||b|| = {:.3g}"),
        _check("trace-norm roundtrip",
               (trace_norm_error(*case) for case in ((1, (2,)), (2, (2, 1)))
                for _ in range(trials)), EXACT, "max rel err {:.2e}"),
    ]


def optimality_suite(seed: int = 42, trials: int = 50) -> list[CheckResult]:
    """Perturbation non-improvement of the L2 projections (Legendre and
    step) and of the trace-space projection in the discrete-continuous norm.

    First-order optimality over a finite-dimensional subspace is equivalent
    to non-improvement under perturbations within it, so each check nudges
    the projection by eps * q for random subspace directions q."""
    rng = np.random.default_rng(seed)
    u1 = get_example("example1-1d")
    dom1 = u1.domain

    def improvements(error, best, draw):
        # one draw per trial, then every eps: the order of the seeded stream
        base = error(best)
        return (base - error(best + eps * q)
                for q in (draw() for _ in range(trials)) for eps in EPSILONS)

    # L2 optimality of the Legendre projection, degree 8
    d = (8,)
    rule = rule_for(u1, QuadratureRule(nodes=d[0] + 8, panels=4))
    results = [_check("L2 optimality of Legendre projection", improvements(
        lambda g: l2_error(u1, g, dom1, rule),
        projection.sobolev_project_legendre(u1, (0,), d, rule),
        lambda: random_legendre_poly(rng, d)), SLACK, IMPROVEMENT)]

    # L2 optimality of the step projection, 16 cells
    cells = (16,)
    edges = projection.cell_edges(cells, 1)
    rule = rule_for(u1, extra_splits=edges)
    results.append(_check("L2 optimality of step projection", improvements(
        lambda g: l2_error(u1, g, dom1, rule),
        projection.sobolev_project_step(u1, (0,), cells, rule),
        lambda: PiecewisePoly.from_cell_values(dom1, edges, rng.standard_normal(cells))),
        SLACK, IMPROVEMENT))

    # dc-norm optimality of the order-gamma trace projection, perturbing
    # within the polynomials of degree d + gamma
    gamma, d = (5,), (6,)
    rule = rule_for(u1, QuadratureRule(nodes=d[0] + 14, panels=4))
    dplus = tuple(a + b for a, b in zip(d, gamma))
    results.append(_check("dc-norm optimality of trace projection", improvements(
        lambda g: dc_error(u1, g, gamma, dom1, rule),
        projection.sobolev_project_legendre(u1, gamma, d, rule),
        lambda: random_legendre_poly(rng, dplus)), SLACK, IMPROVEMENT))
    return results


SUITES = {
    "roundtrip": roundtrip_suite,
    "identities": identity_suite,
    "optimality": optimality_suite,
}


def run_suite(name: str, seed: int = 42, trials: int | None = None) -> list[CheckResult]:
    if trials is not None and trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    names = list(SUITES) if name == "all" else [name]
    results = []
    for n in names:
        if n not in SUITES:
            raise KeyError(f"unknown suite {n!r}; have {sorted(SUITES)} or 'all'")
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        results.extend(SUITES[n](**kwargs))
    return results
